"""The paper's experiments, each defined once: seeded worlds (``build_world``)
and one method scored on a world (``method_cell``), under the method-ordering
table, the rate trend and the interpretability comparison against lasso.
The ``compare`` command, the acceptance criteria and ``scripts/`` call these."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import BatchDataset, split
from .envs import A2_ENV, EnvSpec, GroundTruth, SyntheticEnv, generate_trajectories, make_env
from .interpret import clipped_weights
from .learner import (DEFAULT_LASSO_GRID, ModelBundle, StageSpectra, default_config,
                      stage_spectra, train)
from .policy import MetricsReport, evaluate

# The benchmark law with a user pool large enough that the feature span is
# full rank, so the rate study's gap is estimation-dominated (sigma = 0.5).
RATE_SPEC = EnvSpec(n_users=200, n_actions=30)
# The spectral filters that shrink every eigen-direction they keep, as lasso
# soft-thresholds every coefficient; each is pooled with lasso on its own.
SHRINKING_FILTERS = ("tikhonov", "gradient-descent")


@dataclass(frozen=True)
class World:
    env: SyntheticEnv
    train: BatchDataset
    eval: BatchDataset
    truth: GroundTruth
    spectra: StageSpectra    # of ``train``, shared by every method trained on it


@dataclass(frozen=True)
class Cell:
    bundle: ModelBundle
    metrics: MetricsReport
    train_s: float


def build_world(spec: EnvSpec, seed: int, n: int,
                train_fraction: float | None = None) -> World:
    """Seeded environment and ``n`` logged trajectories, split at
    ``train_fraction``; with None both sides are the whole dataset.  The
    training side's stage spectra are built here, once for every method."""
    env = make_env(spec, seed)
    dataset, truth = generate_trajectories(env, n, seed=seed)
    if train_fraction is None:
        train_set = eval_set = dataset
    else:
        train_set, eval_set = split(dataset, train_fraction, seed)
    return World(env, train_set, eval_set, truth, stage_spectra(train_set))


def method_cell(world: World, method: str, seed: int, adaptive: dict | None = None,
                lasso_grid=DEFAULT_LASSO_GRID, env: SyntheticEnv | None = None,
                n_episodes: int = 200) -> Cell:
    """Train ``method`` on the world's training side under ``adaptive``
    overrides and score it on the evaluation side; rollout rewards need
    ``env``, and without it the reward is the direct value estimate."""
    cfg = default_config(method, **{"reward_bound": world.train.reward_bound, **(adaptive or {})})
    started = time.monotonic()
    bundle, _ = train(world.train, method, cfg, seed=seed, spectra=world.spectra,
                      lasso_grid=lasso_grid)
    train_s = time.monotonic() - started
    metrics = evaluate(bundle, world.truth.theta_star, world.eval, env=env,
                       n_episodes=n_episodes, seed=seed)
    return Cell(bundle, metrics, train_s)


def rate_curve(method: str, sizes, seeds):
    """Parameter gap against the trajectory count on ``RATE_SPEC``, trained on
    every trajectory: (means, sds) over ``seeds`` per size in ``sizes``, and
    the log-log slope of the means."""
    means, sds = [], []
    for n in sizes:
        gaps = [method_cell(build_world(RATE_SPEC, seed, n), method, seed).metrics.parameter_gap
                for seed in seeds]
        means.append(float(np.mean(gaps)))
        sds.append(float(np.std(gaps, ddof=1)))
    return means, sds, float(np.polyfit(np.log(sizes), np.log(means), 1)[0])


def interpretability_comparison(seeds, n: int, methods=SHRINKING_FILTERS + ("lasso",)):
    """Train each of ``methods`` once per seed on the static-truth preset
    (half the trajectories), pool each shrinking filter among them with lasso
    alone, and count the weights in each pool's 5% tails.  Returns the
    bundles by (method, seed), the counts by pool and method, and the mean
    |theta_hat - theta*| by method."""
    pools = [kind for kind in SHRINKING_FILTERS if kind in methods]
    if pools and "lasso" not in methods:
        raise ValueError("pooling a shrinking filter needs lasso among the methods")
    bundles = {}
    werr = {name: [] for name in methods}
    for seed in seeds:
        world = build_world(A2_ENV, seed, n, 0.5)
        for name in methods:
            bundle = bundles[name, seed] = method_cell(world, name, seed).bundle
            werr[name].append(np.mean(np.abs(bundle.theta_matrix() - world.truth.theta_star[0])))
    clipped = {}
    for kind in pools:
        names = (kind, "lasso")
        # (method, seed, stage, feature) weights, flagged on the one pool
        flags = clipped_weights([[b.theta_matrix() for (m, _), b in bundles.items() if m == name]
                                 for name in names])
        clipped[kind] = {name: int(np.sum(f)) for name, f in zip(names, flags)}
    return bundles, clipped, {name: float(np.mean(v)) for name, v in werr.items()}
