"""Greedy policy extraction and evaluation metrics.

The greedy action at stage t maximizes <theta_t, x(state, a)> over the
candidate-action table, ties broken by the lowest action index.  Metrics are
pure functions with fixed summation order; rollout episodes draw from
per-episode child seeds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import BatchDataset, candidate_scores, empirical_covariance, stage_design
from .envs import SyntheticEnv
from .learner import ModelBundle
from .spectral import decompose, weighted_half_norm


@dataclass(frozen=True)
class GreedyPolicy:
    model: ModelBundle
    action_table: np.ndarray

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


def act(policy: GreedyPolicy, t: int, state: np.ndarray) -> int:
    """Greedy action index for ``state`` at stage t."""
    if not 1 <= t <= policy.model.horizon:
        raise ValueError(f"stage {t} outside 1..{policy.model.horizon}")
    state = np.asarray(state, dtype=float)
    scores = candidate_scores(state[None, :], policy.action_table,
                              policy.model.theta(t), normalize=True,
                              mask=policy.model.feature_mask)[0]
    return int(np.argmax(scores))


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
    the true next-stage parameters, averaged over stages."""
    truth = _truth_rows(theta_star, model.horizon, model.feature_dim)
    horizon = model.horizon
    stage_mse = np.zeros(horizon)
    for t in range(1, horizon):
        ctx = dataset.states[:, t, :]
        est_best = candidate_scores(ctx, dataset.action_table, model.theta(t + 1),
                                    normalize=dataset.normalize,
                                    mask=model.feature_mask).max(axis=1)
        true_best = candidate_scores(ctx, dataset.action_table, truth[t],
                                     normalize=dataset.normalize).max(axis=1)
        stage_mse[t - 1] = np.mean((est_best - true_best) ** 2)
    # stage T: both continuation parameters are zero, so the gap vanishes
    return float(np.sqrt(np.mean(stage_mse)))


def rollout_reward(policy: GreedyPolicy, env: SyntheticEnv, n_episodes: int,
                   seed: int = 0) -> float:
    """Mean cumulative logged reward of the policy over seeded episodes."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    streams = np.random.SeedSequence(seed).spawn(n_episodes)
    total = 0.0
    for i in range(n_episodes):
        rng = np.random.default_rng(streams[i])
        state = env.initial_state(rng)
        for t in range(1, env.spec.horizon + 1):
            action = act(policy, t, state)
            total += env.step_outcome(rng, t, state, action)
            state = env.transition(state, action)
    return total / n_episodes


def direct_value_estimate(model: ModelBundle, dataset: BatchDataset) -> float:
    """Model-implied initial value: mean over trajectories of the best
    stage-1 action score.  Offline stand-in when no simulator is available."""
    ctx = dataset.states[:, 0, :]
    scores = candidate_scores(ctx, dataset.action_table, model.theta(1),
                              normalize=dataset.normalize, mask=model.feature_mask)
    return float(np.mean(scores.max(axis=1)))


def comparison_diagnostic(model: ModelBundle, theta_star,
                          dataset: BatchDataset) -> float:
    """Value-suboptimality bound sum_t 2 mu^(t/2) ||theta_t - theta*_t||_Sigma_t,
    with Sigma_t estimated from the dataset and mu the action-set size."""
    truth = _truth_rows(theta_star, model.horizon, model.feature_dim)
    mu = float(len(dataset.action_table))
    total = 0.0
    for t in range(1, model.horizon + 1):
        design = stage_design(dataset, t, mask=model.feature_mask)
        decomp = decompose(empirical_covariance(design))
        diff = model.theta(t) - truth[t - 1]
        total += 2.0 * mu ** (t / 2.0) * weighted_half_norm(decomp, 0.0, diff)
    return total


def evaluate(model: ModelBundle, theta_star, dataset: BatchDataset,
             env: SyntheticEnv | None = None, n_episodes: int = 200,
             seed: int = 0) -> MetricsReport:
    """Bundle the three headline metrics plus per-stage diagnostics."""
    truth = _truth_rows(theta_star, model.horizon, model.feature_dim)
    pgap = parameter_gap(model.theta_matrix(), truth[:-1])
    ygap = policy_gap(model, truth, dataset)
    if env is not None:
        reward = rollout_reward(GreedyPolicy(model, dataset.action_table),
                                env, n_episodes, seed)
    else:
        reward = direct_value_estimate(model, dataset)
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
    return MetricsReport(parameter_gap=pgap, policy_gap=ygap,
                         cumulative_reward=reward, per_stage=per_stage)
