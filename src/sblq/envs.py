"""Synthetic video-recommendation environments with exposed ground truth.

An environment holds Gaussian feature pools for users, videos and actions,
plus one unit-norm true parameter vector per stage.  A state is the
concatenation (user features, current video features); choosing action j
replaces the video block with video j's features.  Regression inputs are the
unit-normalized concatenation (state, action features).

The logged per-step reward is constructed so that the stage value function is
exactly linear in the normalized features:

    r_t = <x_t, theta*_t> - max_a' <theta*_{t+1}, x_{t+1}(a')> + u_t + e_t

with u_t uniform on [reward_low, reward_high] and e_t Gaussian noise with
standard deviation noise_sd, truncated at 8 standard deviations so a finite
reward bound can be declared.  Under this law the constructed stage-t outcome
has conditional mean <x_t, theta*_t>, so consistent estimators recover the
true parameters.  ``observe_target`` separately exposes the plain one-step
observation r + <x, theta*_{t+1}> + e used in distributional diagnostics.

All sampling uses numpy's default_rng (PCG64); per-episode streams are
spawned from a SeedSequence so generation order never depends on scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import json
import numpy as np

from .data import (BatchDataset, Trajectory, candidate_scores, feature_vector, file_values,
                   read_json_fields)

TIME_VARYING = "time-varying"
STATIC = "static"
NOISE_CLIP_SDS = 8.0


@dataclass(frozen=True)
class EnvSpec:
    n_users: int = 10
    n_actions: int = 30
    d_video: int = 28
    d_user: int = 20
    d_action: int = 24
    horizon: int = 20
    noise_sd: float = 0.5
    reward_low: float = -0.5
    reward_high: float = 0.5
    theta_mode: str = TIME_VARYING

    def __post_init__(self):
        if min(self.n_users, self.n_actions, self.d_video, self.d_user,
               self.d_action, self.horizon) < 1:
            raise ValueError("all pool sizes and dimensions must be >= 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if not self.reward_low < self.reward_high:
            raise ValueError("reward_low must be below reward_high")
        if self.theta_mode not in (TIME_VARYING, STATIC):
            raise ValueError(f"unknown theta_mode {self.theta_mode!r}")

    @property
    def state_dim(self) -> int:
        return self.d_user + self.d_video

    @property
    def feature_dim(self) -> int:
        return self.d_user + self.d_video + self.d_action


# Experiment presets: the performance-comparison environment (72 features,
# horizon 20, time-varying truth) and the interpretability environment
# (15 features, horizon 6, one static truth shared by all stages).
A1_ENV = EnvSpec()
A2_ENV = EnvSpec(d_video=5, d_user=5, d_action=5, horizon=6, theta_mode=STATIC)


def sample_theta_star(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm truth: first half of entries near +1, second half near -1."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    half = (d + 1) // 2
    theta = np.concatenate([
        rng.normal(1.0, 0.2, size=half),
        rng.normal(-1.0, 0.2, size=d - half),
    ])
    return theta / np.linalg.norm(theta)


@dataclass(frozen=True)
class SyntheticEnv:
    spec: EnvSpec
    user_pool: np.ndarray    # (n_users, d_user)
    video_pool: np.ndarray   # (n_actions, d_video)
    action_pool: np.ndarray  # (n_actions, d_action)
    theta_star: np.ndarray   # (T+1, d); last row is zero
    seed: int
    reward_fn: Optional[Callable] = None  # (rng, t, state, action_idx) -> float

    def __post_init__(self):
        for name in ("user_pool", "video_pool", "action_pool", "theta_star"):
            getattr(self, name).setflags(write=False)

    @property
    def reward_bound(self) -> float:
        """Declared bound on the logged reward magnitude."""
        spec = self.spec
        peak = float(np.max(np.linalg.norm(self.theta_star, axis=1)))
        return (max(abs(spec.reward_low), abs(spec.reward_high))
                + 2.0 * peak + NOISE_CLIP_SDS * spec.noise_sd)

    def initial_state(self, rng: np.random.Generator) -> np.ndarray:
        user = self.user_pool[rng.integers(self.spec.n_users)]
        video = self.video_pool[rng.integers(self.spec.n_actions)]
        return np.concatenate([user, video])

    def transition(self, state: np.ndarray, action_idx: int) -> np.ndarray:
        """Replace the video block of the state with the chosen video."""
        nxt = np.array(state, dtype=float)
        nxt[self.spec.d_user:] = self.video_pool[action_idx]
        return nxt

    def step_outcome(self, rng: np.random.Generator, t: int, state: np.ndarray,
                     action_idx: int) -> float:
        """Draw the logged reward for taking ``action_idx`` at stage t."""
        if self.reward_fn is not None:
            return float(self.reward_fn(rng, t, state, action_idx))
        spec = self.spec
        u = rng.uniform(spec.reward_low, spec.reward_high)
        eps = 0.0
        if spec.noise_sd > 0:
            eps = float(np.clip(spec.noise_sd * rng.standard_normal(),
                                -NOISE_CLIP_SDS * spec.noise_sd,
                                NOISE_CLIP_SDS * spec.noise_sd))
        x = feature_vector(state, self.action_pool[action_idx])
        value_now = float(x @ self.theta_star[t - 1])
        next_best = 0.0
        if t < spec.horizon:
            nxt = self.transition(state, action_idx)
            scores = candidate_scores(nxt[None, :], self.action_pool, self.theta_star[t])
            next_best = float(scores.max())
        return value_now - next_best + u + eps


def make_env(spec: EnvSpec, seed: int, reward_fn: Optional[Callable] = None) -> SyntheticEnv:
    """Draw the feature pools and true parameters for a seeded environment."""
    rng = np.random.default_rng(seed)
    user_pool = rng.standard_normal((spec.n_users, spec.d_user))
    video_pool = rng.standard_normal((spec.n_actions, spec.d_video))
    action_pool = rng.standard_normal((spec.n_actions, spec.d_action))
    d = spec.feature_dim
    theta = np.zeros((spec.horizon + 1, d))
    if spec.theta_mode == STATIC:
        theta[: spec.horizon] = np.ones(d) / np.sqrt(d)
    else:
        for t in range(spec.horizon):
            theta[t] = sample_theta_star(d, rng)
    return SyntheticEnv(spec=spec, user_pool=user_pool, video_pool=video_pool,
                        action_pool=action_pool, theta_star=theta, seed=seed,
                        reward_fn=reward_fn)


@dataclass(frozen=True)
class GroundTruth:
    """True per-stage parameters, including the zero slot for stage T+1."""

    theta_star: np.ndarray  # (T+1, d)

    def __post_init__(self):
        self.theta_star.setflags(write=False)


def ground_truth_json_text(truth: GroundTruth) -> str:
    return json.dumps({"version": 1, "theta_star": truth.theta_star.tolist()}) + "\n"


def load_ground_truth(path) -> GroundTruth:
    payload = read_json_fields(path, "theta_star")
    with file_values(path):
        return GroundTruth(theta_star=np.asarray(payload["theta_star"], dtype=float))


def generate_trajectories(env: SyntheticEnv, n: int, seed: int = 0):
    """Roll out ``n`` episodes under the uniform-random logging policy.

    Returns (BatchDataset, GroundTruth).  Episode randomness comes from
    per-episode child seeds, so output is reproducible and order-independent.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    spec = env.spec
    streams = np.random.SeedSequence(seed).spawn(n)
    trajectories = []
    for i in range(n):
        rng = np.random.default_rng(streams[i])
        state = env.initial_state(rng)
        states = np.empty((spec.horizon, spec.state_dim))
        actions = np.empty(spec.horizon, dtype=np.int64)
        rewards = np.empty(spec.horizon)
        for t in range(1, spec.horizon + 1):
            action = int(rng.integers(spec.n_actions))
            states[t - 1] = state
            actions[t - 1] = action
            rewards[t - 1] = env.step_outcome(rng, t, state, action)
            state = env.transition(state, action)
        trajectories.append(Trajectory(states, actions, rewards))
    if env.reward_fn is None:
        bound = env.reward_bound
    else:
        bound = float(max(np.max(np.abs(t.rewards)) for t in trajectories))
    dataset = BatchDataset.from_trajectories(
        trajectories, env.action_pool, reward_bound=bound, normalize=True)
    return dataset, GroundTruth(theta_star=env.theta_star.copy())


def observe_target(env: SyntheticEnv, x: np.ndarray, t: int,
                   rng: np.random.Generator) -> float:
    """One draw of the plain observation r + <x, theta*_{t+1}> + noise."""
    spec = env.spec
    if not 1 <= t <= spec.horizon:
        raise ValueError(f"stage {t} outside 1..{spec.horizon}")
    x = np.asarray(x, dtype=float)
    r = rng.uniform(spec.reward_low, spec.reward_high)
    eps = spec.noise_sd * rng.standard_normal() if spec.noise_sd > 0 else 0.0
    return float(r + x @ env.theta_star[t] + eps)


def env_json_text(env: SyntheticEnv) -> str:
    return json.dumps({"version": 1, "seed": env.seed, "spec": vars(env.spec).copy()}) + "\n"


def load_env(path) -> SyntheticEnv:
    payload = read_json_fields(path, "spec", "seed")
    with file_values(path):
        return make_env(EnvSpec(**payload["spec"]), payload["seed"])
