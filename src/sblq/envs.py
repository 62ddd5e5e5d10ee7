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
true parameters.

All sampling uses numpy's default_rng (PCG64) on per-episode streams spawned
from a SeedSequence.  No draw depends on a state, so the draws of all episodes
are taken first, together, by ``sblq.streams.EpisodeStreams``, and the
simulator then steps all episodes together.  The generated bytes are those of
``integers``, ``uniform`` and ``standard_normal`` on each episode's own
Generator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import (BatchDataset, candidate_scores, check, feature_matrix, file_values,
                   read_json, record)
from .streams import EpisodeStreams

TIME_VARYING = "time-varying"
STATIC = "static"
NOISE_CLIP_SDS = 8.0

# The keys, types and ranges of an EnvSpec, in a config's "env" and in env.json
ENV_SPEC_NODE = record({
    **dict.fromkeys(("n_users", "n_actions", "d_video", "d_user", "d_action", "horizon"),
                    {"type": "integer", "minimum": 1}),
    "noise_sd": {"type": "number", "minimum": 0},
    "reward_low": {"type": "number"},
    "reward_high": {"type": "number"},
    "theta_mode": {"enum": [TIME_VARYING, STATIC]},
}, required=())


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
        check(vars(self), ENV_SPEC_NODE, ValueError, "env spec")
        if not self.reward_low < self.reward_high:
            raise ValueError("reward_low must be below reward_high")
        # the reward bound of a unit-norm truth (SyntheticEnv.reward_bound),
        # summed over the horizon and one more stage, must be finite
        bound = (max(abs(self.reward_low), abs(self.reward_high)) + 2.0
                 + NOISE_CLIP_SDS * self.noise_sd)
        if not math.isfinite((self.horizon + 1) * bound):
            raise ValueError(f"reward_low, reward_high and noise_sd give the reward bound "
                             f"{bound:.6g}, which over horizon {self.horizon} is not finite")

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


def make_env(spec: EnvSpec, seed: int) -> SyntheticEnv:
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
                        action_pool=action_pool, theta_star=theta, seed=seed)


@dataclass(frozen=True)
class GroundTruth:
    """True per-stage parameters, including the zero slot for stage T+1."""

    theta_star: np.ndarray  # (T+1, d)

    def __post_init__(self):
        self.theta_star.setflags(write=False)


GROUND_TRUTH_SCHEMA = record({"version": {"const": 1},
                              "theta_star": {"type": "numbers", "rank": 2}})


def ground_truth_json_text(truth: GroundTruth) -> str:
    return json.dumps({"version": 1, "theta_star": truth.theta_star.tolist()}) + "\n"


def load_ground_truth(path) -> GroundTruth:
    return GroundTruth(theta_star=read_json(path, GROUND_TRUTH_SCHEMA)["theta_star"])


def pool_states(env: SyntheticEnv, cells: np.ndarray) -> np.ndarray:
    """The (len(cells), d_s) states of the pool cells user * n_actions + video:
    the user's features, then the video's."""
    user, video = np.divmod(cells, env.spec.n_actions)
    return np.hstack([env.user_pool[user], env.video_pool[video]])


def episode_draws(env: SyntheticEnv, n: int, seed: int, logged: bool):
    """Each episode's draws from its own child of SeedSequence(seed): user,
    video, then per stage the logging action (if ``logged``), u and e (if
    noise_sd > 0).  Returns the (n,) pool cells user * n_actions + video of
    the initial states (see ``pool_states``) and (n, T) actions, u and
    clipped e; undrawn entries are 0.

    The draws of all episodes are taken together by ``EpisodeStreams``, equal
    to ``integers``, ``uniform`` and ``standard_normal`` on each episode's
    own Generator bit for bit."""
    spec = env.spec
    streams = EpisodeStreams(seed, n)
    users = streams.integers(spec.n_users)
    videos = streams.integers(spec.n_actions)
    acts = np.zeros((n, spec.horizon), dtype=np.int64)
    u, z = np.zeros((n, spec.horizon)), np.zeros((n, spec.horizon))
    for t in range(spec.horizon):
        if logged:
            acts[:, t] = streams.integers(spec.n_actions)
        u[:, t] = streams.doubles()
        if spec.noise_sd > 0:
            z[:, t] = streams.normals()
    # numpy's uniform(low, high) = low + width * random()
    u = spec.reward_low + (spec.reward_high - spec.reward_low) * u
    clip = NOISE_CLIP_SDS * spec.noise_sd
    return users * spec.n_actions + videos, acts, u, np.clip(spec.noise_sd * z, -clip, clip)


def stage_step(env: SyntheticEnv, t: int, states: np.ndarray, actions: np.ndarray,
               next_states: np.ndarray) -> np.ndarray:
    """Reward term (n,) for ``actions`` (n,) in ``states`` (n, d_s) at stage t,
    which lead to ``next_states``: <x_t, theta*_t> - max_a' <theta*_{t+1},
    x_{t+1}(a')>.  The logged reward adds u + e."""
    term = feature_matrix(states, env.action_pool[actions]) @ env.theta_star[t - 1]
    if t < env.spec.horizon:
        term -= candidate_scores(next_states, env.action_pool, env.theta_star[t]).max(axis=0)
    return term


def simulate(env: SyntheticEnv, n: int, seed: int, choose: Optional[Callable] = None):
    """Step ``n`` seeded episodes together, with actions from
    ``choose(t, states) -> (n,)`` or, if None, the uniform logging policy.
    Returns the (n, T) pool cell of each state (see ``pool_states``), actions
    (n, T) and rewards (n, T).  The next state keeps the user and shows the
    chosen video."""
    spec = env.spec
    cells, actions, u, eps = episode_draws(env, n, seed, logged=choose is None)
    state = pool_states(env, cells)
    state_cells = np.empty((n, spec.horizon), dtype=np.int64)
    rewards = np.empty((n, spec.horizon))
    for t in range(1, spec.horizon + 1):
        state_cells[:, t - 1] = cells
        if choose is not None:
            actions[:, t - 1] = choose(t, state)
        cells = cells - cells % spec.n_actions + actions[:, t - 1]
        nxt = pool_states(env, cells)
        term = stage_step(env, t, state, actions[:, t - 1], nxt)
        rewards[:, t - 1] = term + u[:, t - 1] + eps[:, t - 1]
        state = nxt
    return state_cells, actions, rewards


def generate_trajectories(env: SyntheticEnv, n: int, seed: int = 0):
    """Roll out ``n`` seeded episodes under the uniform-random logging policy.
    Returns (BatchDataset, GroundTruth); the dataset's state rows are the
    distinct pool states its episodes visit."""
    if n < 1:
        raise ValueError("need at least one trajectory")
    state_cells, actions, rewards = simulate(env, n, seed)
    cells, index = np.unique(state_cells, return_inverse=True)
    dataset = BatchDataset(state_rows=pool_states(env, cells),
                           state_index=index.reshape(state_cells.shape),
                           actions=actions, rewards=rewards,
                           action_table=env.action_pool, reward_bound=env.reward_bound)
    return dataset, GroundTruth(theta_star=env.theta_star.copy())


ENV_SCHEMA = record({"version": {"const": 1}, "seed": {"type": "integer", "minimum": 0},
                     "spec": ENV_SPEC_NODE})


def env_json_text(env: SyntheticEnv) -> str:
    return json.dumps({"version": 1, "seed": env.seed, "spec": vars(env.spec).copy()}) + "\n"


def load_env(path) -> SyntheticEnv:
    payload = read_json(path, ENV_SCHEMA)
    with file_values(path):  # EnvSpec's cross-field rules
        spec = EnvSpec(**payload["spec"])
    return make_env(spec, payload["seed"])
