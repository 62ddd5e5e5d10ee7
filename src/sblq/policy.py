"""Greedy policy extraction and evaluation metrics.

The greedy action at stage t maximizes <theta_t, x(state, a)> over the
candidate-action table, ties broken by the lowest action index.  Metrics are
pure functions with fixed summation order; rollout episodes draw from
per-episode child seeds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import BatchDataset, candidate_scores
from .envs import SyntheticEnv, simulate
from .learner import ModelBundle, stage_spectra
from .spectral import weighted_half_norm


@dataclass(frozen=True)
class GreedyPolicy:
    """The greedy rule of ``model`` over ``action_table``, scored on the
    feature map the model was fit on: unit-normalized rows if ``normalize``."""

    model: ModelBundle
    action_table: np.ndarray
    normalize: bool = True

    def __post_init__(self):
        self.action_table.setflags(write=False)
        if len(self.action_table) < 1:
            raise ValueError("empty candidate-action table")
        if self.model.feature_dim <= self.action_table.shape[1]:
            raise ValueError("model feature dimension leaves no room for state features")


@dataclass(frozen=True)
class MetricsReport:
    parameter_gap: float
    policy_gap: float
    cumulative_reward: float
    per_stage: tuple = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "parameter_gap": self.parameter_gap,
            "policy_gap": self.policy_gap,
            "cumulative_reward": self.cumulative_reward,
            "per_stage": list(self.per_stage),
        }


def greedy_actions(policy: GreedyPolicy, t: int, states: np.ndarray) -> np.ndarray:
    """Greedy action indices (n,) for ``states`` (n, d_s) at stage t."""
    if not 1 <= t <= policy.model.horizon:
        raise ValueError(f"stage {t} outside 1..{policy.model.horizon}")
    scores = candidate_scores(states, policy.action_table, policy.model.theta(t),
                              normalize=policy.normalize, mask=policy.model.feature_mask)
    return np.argmax(scores, axis=0)


def parameter_gap(estimated, truth) -> float:
    """Root of the stage-averaged squared parameter error."""
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch {est.shape} vs {tru.shape}")
    return float(np.sqrt(np.mean(np.sum((est - tru) ** 2, axis=-1))))


def _truth_rows(theta_star, horizon: int, feature_dim: int) -> np.ndarray:
    """Accept (T, d) or (T+1, d) truth arrays; always return (T+1, d)."""
    arr = np.asarray(theta_star, dtype=float)
    if arr.shape == (horizon, feature_dim):
        return np.vstack([arr, np.zeros(feature_dim)])
    if arr.shape == (horizon + 1, feature_dim):
        return arr
    raise ValueError(
        f"theta_star has shape {arr.shape}, expected ({horizon}, {feature_dim})"
        f" or ({horizon + 1}, {feature_dim})")


def policy_gap(model: ModelBundle, theta_star, dataset: BatchDataset) -> float:
    """RMS discrepancy between outcomes predicted under the estimated and
    the true next-stage parameters, averaged over stages.

    Each stage scores its contexts once, with the stack of both parameter
    vectors.  A feature-masked estimate is normalized on its masked features
    and the truth on all of them, so such a stage scores the two apart."""
    truth = _truth_rows(theta_star, model.horizon, model.feature_dim)
    horizon = model.horizon
    stage_mse = np.zeros(horizon)
    for t in range(1, horizon):
        ctx = dataset.stage_states(t + 1)
        if model.feature_mask is None:
            est_best, true_best = candidate_scores(
                ctx, dataset.action_table, np.stack([model.theta(t + 1), truth[t]]),
                normalize=dataset.normalize).max(axis=1)
        else:
            est_best = candidate_scores(ctx, dataset.action_table, model.theta(t + 1),
                                        normalize=dataset.normalize,
                                        mask=model.feature_mask).max(axis=0)
            true_best = candidate_scores(ctx, dataset.action_table, truth[t],
                                         normalize=dataset.normalize).max(axis=0)
        stage_mse[t - 1] = np.mean((est_best - true_best) ** 2)
    # stage T: both continuation parameters are zero, so the gap vanishes
    return float(np.sqrt(np.mean(stage_mse)))


def rollout_reward(policy: GreedyPolicy, env: SyntheticEnv, n_episodes: int,
                   seed: int = 0) -> float:
    """Mean cumulative logged reward of the policy over seeded episodes."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    _, _, rewards = simulate(env, n_episodes, seed, partial(greedy_actions, policy))
    # one running float sum in episode order: np.sum and sum (3.12+) round otherwise
    total = 0.0
    for reward in rewards.ravel().tolist():
        total += reward
    return total / n_episodes


def direct_value_estimate(model: ModelBundle, dataset: BatchDataset) -> float:
    """Model-implied initial value: mean over trajectories of the best
    stage-1 action score.  Offline stand-in when no simulator is available."""
    ctx = dataset.stage_states(1)
    scores = candidate_scores(ctx, dataset.action_table, model.theta(1),
                              normalize=dataset.normalize, mask=model.feature_mask)
    return float(np.mean(scores.max(axis=0)))


def policy_value(model: ModelBundle, dataset: BatchDataset, env: SyntheticEnv | None = None,
                 n_episodes: int = 200, seed: int = 0) -> float:
    """The reported reward: the greedy policy's rollout reward when a simulator
    is given, else the direct value estimate."""
    if env is None:
        return direct_value_estimate(model, dataset)
    policy = GreedyPolicy(model, dataset.action_table, normalize=dataset.normalize)
    return rollout_reward(policy, env, n_episodes, seed)


def comparison_diagnostic(model: ModelBundle, theta_star,
                          dataset: BatchDataset) -> float:
    """Value-suboptimality bound sum_t 2 mu^(t/2) ||theta_t - theta*_t||_Sigma_t,
    with Sigma_t estimated from the dataset and mu the action-set size.  Under
    the model's feature mask Sigma_t is 0 outside the kept features, so the
    norm is taken on the kept coordinates."""
    truth = _truth_rows(theta_star, model.horizon, model.feature_dim)
    mu = float(len(dataset.action_table))
    total = 0.0
    for t, stage in enumerate(stage_spectra(dataset, model.feature_mask).stages, start=1):
        diff = stage.kept(model.theta(t) - truth[t - 1])
        total += 2.0 * mu ** (t / 2.0) * weighted_half_norm(stage.decomp, 0.0, diff)
    return total


def evaluate(model: ModelBundle, theta_star, dataset: BatchDataset,
             env: SyntheticEnv | None = None, n_episodes: int = 200,
             seed: int = 0) -> MetricsReport:
    """Bundle the three headline metrics plus per-stage diagnostics."""
    truth = _truth_rows(theta_star, model.horizon, model.feature_dim)
    # a norm whose square passes the float range is inf, which the caller
    # reports as metrics that overflow
    with np.errstate(over="ignore"):
        pgap = parameter_gap(model.theta_matrix(), truth[:-1])
        per_stage = tuple(
            {
                "t": s.t,
                "lambda": s.lambda_selected,
                "k": s.k_selected,
                "theta_norm": float(np.linalg.norm(s.theta)),
                "stage_gap": float(np.linalg.norm(s.theta - truth[s.t - 1])),
            }
            for s in model.stages
        )
    ygap = policy_gap(model, truth, dataset)
    reward = policy_value(model, dataset, env, n_episodes, seed)
    return MetricsReport(parameter_gap=pgap, policy_gap=ygap,
                         cumulative_reward=reward, per_stage=per_stage)
