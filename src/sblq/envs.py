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

All sampling uses numpy's default_rng (PCG64) on per-episode streams spawned
from a SeedSequence.  No draw depends on a state, so each episode's draws are
taken first and the simulator then steps all episodes together.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import json
import numpy as np

from .data import (BatchDataset, candidate_scores, feature_matrix, file_values,
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
    reward_fn: Optional[Callable] = None  # (t, states, actions) -> (n,) rewards

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
        if not np.all(np.isfinite(self.theta_star)):
            raise ValueError("theta_star contains non-finite values")
        self.theta_star.setflags(write=False)


def ground_truth_json_text(truth: GroundTruth) -> str:
    return json.dumps({"version": 1, "theta_star": truth.theta_star.tolist()}) + "\n"


def load_ground_truth(path) -> GroundTruth:
    payload = read_json_fields(path, "theta_star")
    with file_values(path):
        return GroundTruth(theta_star=np.asarray(payload["theta_star"], dtype=float))


def episode_draws(env: SyntheticEnv, n: int, seed: int, logged: bool):
    """Each episode's draws from its own child of SeedSequence(seed): user,
    video, then per stage the logging action (if ``logged``), u (if no
    ``reward_fn``) and e (if also noise_sd > 0).  Returns initial states
    (n, d_s) and (n, T) actions, u and clipped e; undrawn entries are 0."""
    spec = env.spec
    users, videos = np.empty((2, n), dtype=np.int64)
    actions = np.zeros((n, spec.horizon), dtype=np.int64)
    u, z = np.zeros((2, n, spec.horizon))
    low, width = spec.reward_low, spec.reward_high - spec.reward_low
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(stream)
        integers, random, normal = rng.integers, rng.random, rng.standard_normal
        users[i], videos[i] = integers(spec.n_users), integers(spec.n_actions)
        for t in range(spec.horizon):
            if logged:
                actions[i, t] = integers(spec.n_actions)
            if env.reward_fn is None:
                u[i, t] = low + width * random()  # rng.uniform(low, high), bit for bit
                if spec.noise_sd > 0:
                    z[i, t] = normal()
    states = np.hstack([env.user_pool[users], env.video_pool[videos]])
    clip = NOISE_CLIP_SDS * spec.noise_sd
    return states, actions, u, np.clip(spec.noise_sd * z, -clip, clip)


def stage_step(env: SyntheticEnv, t: int, states: np.ndarray, actions: np.ndarray):
    """Reward term (n,) and next states for ``actions`` (n,) in ``states``
    (n, d_s) at stage t: <x_t, theta*_t> - max_a' <theta*_{t+1}, x_{t+1}(a')>,
    or ``reward_fn(t, states, actions)`` if set.  The logged reward adds u + e."""
    nxt = np.hstack([states[:, :env.spec.d_user], env.video_pool[actions]])
    if env.reward_fn is not None:
        return np.asarray(env.reward_fn(t, states, actions), dtype=float), nxt
    term = feature_matrix(states, env.action_pool[actions]) @ env.theta_star[t - 1]
    if t < env.spec.horizon:
        term -= candidate_scores(nxt, env.action_pool, env.theta_star[t]).max(axis=1)
    return term, nxt


def simulate(env: SyntheticEnv, n: int, seed: int, choose: Optional[Callable] = None):
    """Step ``n`` seeded episodes together, with actions from
    ``choose(t, states) -> (n,)`` or, if None, the uniform logging policy.
    Returns states (n, T, d_s), actions (n, T) and rewards (n, T)."""
    spec = env.spec
    state, actions, u, eps = episode_draws(env, n, seed, logged=choose is None)
    states = np.empty((n, spec.horizon, spec.state_dim))
    rewards = np.empty((n, spec.horizon))
    for t in range(1, spec.horizon + 1):
        states[:, t - 1] = state
        if choose is not None:
            actions[:, t - 1] = choose(t, state)
        term, state = stage_step(env, t, state, actions[:, t - 1])
        rewards[:, t - 1] = term + u[:, t - 1] + eps[:, t - 1]
    return states, actions, rewards


def generate_trajectories(env: SyntheticEnv, n: int, seed: int = 0):
    """Roll out ``n`` seeded episodes under the uniform-random logging policy.
    Returns (BatchDataset, GroundTruth)."""
    if n < 1:
        raise ValueError("need at least one trajectory")
    states, actions, rewards = simulate(env, n, seed)
    bound = env.reward_bound if env.reward_fn is None else float(np.max(np.abs(rewards)))
    dataset = BatchDataset(states=states, actions=actions, rewards=rewards,
                           action_table=env.action_pool, reward_bound=bound)
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
