import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sblq.data import candidate_scores
from sblq.envs import (
    A1_ENV,
    A2_ENV,
    NOISE_CLIP_SDS,
    EnvSpec,
    episode_draws,
    generate_trajectories,
    make_env,
    pool_states,
    sample_theta_star,
)
from sblq.learner import ModelBundle, StageModel, stage_spectra
from sblq.policy import GreedyPolicy, rollout_reward
from sblq.streams import EpisodeStreams

from conftest import reference_design, reference_features, stage_rows


class TestSampleThetaStar:
    def test_unit_norm(self, rng):
        theta = sample_theta_star(7, rng)
        assert np.linalg.norm(theta) == pytest.approx(1.0, abs=1e-12)

    def test_half_signs_separate(self):
        # 5-sigma separation between the two halves makes sign flips
        # vanishingly rare; check 100 seeds at the benchmark dimension
        for seed in range(100):
            theta = sample_theta_star(72, np.random.default_rng(seed))
            assert np.mean(theta[:36]) > 0
            assert np.mean(theta[36:]) < 0

    def test_deterministic(self):
        a = sample_theta_star(10, np.random.default_rng(3))
        b = sample_theta_star(10, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_rejects_tiny_dimension(self, rng):
        with pytest.raises(ValueError):
            sample_theta_star(1, rng)


class TestMakeEnv:
    def test_benchmark_dimensions(self):
        env = make_env(A1_ENV, seed=0)
        assert A1_ENV.feature_dim == 72
        assert env.theta_star.shape == (21, 72)
        assert env.user_pool.shape == (10, 20)
        assert env.video_pool.shape == (30, 28)
        assert env.action_pool.shape == (30, 24)

    def test_interpretability_preset(self):
        env = make_env(A2_ENV, seed=0)
        assert A2_ENV.feature_dim == 15
        assert A2_ENV.horizon == 6
        # one static truth shared by every stage, uniform across features
        for t in range(6):
            np.testing.assert_array_equal(env.theta_star[t], env.theta_star[0])
        np.testing.assert_allclose(env.theta_star[0], np.ones(15) / np.sqrt(15))
        np.testing.assert_array_equal(env.theta_star[6], np.zeros(15))

    def test_time_varying_truth_has_unit_rows(self):
        env = make_env(A1_ENV, seed=1)
        norms = np.linalg.norm(env.theta_star[:-1], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        np.testing.assert_array_equal(env.theta_star[-1], np.zeros(72))

    def test_seed_reproducibility(self):
        e1, e2 = make_env(A1_ENV, seed=5), make_env(A1_ENV, seed=5)
        np.testing.assert_array_equal(e1.user_pool, e2.user_pool)
        np.testing.assert_array_equal(e1.theta_star, e2.theta_star)


class TestGenerateTrajectories:
    def test_benchmark_scale(self):
        env = make_env(A1_ENV, seed=0)
        ds, truth = generate_trajectories(env, 1000, seed=0)
        assert len(ds) == 1000
        assert ds.horizon == 20
        assert truth.theta_star.shape == (21, 72)

    def test_rewards_within_declared_bound(self):
        env = make_env(EnvSpec(n_users=5, n_actions=6, d_video=3, d_user=3,
                               d_action=3, horizon=4), seed=2)
        ds, _ = generate_trajectories(env, 50, seed=2)
        assert np.max(np.abs(ds.rewards)) <= ds.reward_bound

    def test_feature_rows_unit_norm(self):
        env = make_env(EnvSpec(n_users=4, n_actions=5, d_video=3, d_user=2,
                               d_action=3, horizon=3), seed=3)
        ds, _ = generate_trajectories(env, 20, seed=3)
        for t in range(1, 4):
            rows = stage_rows(stage_spectra(ds).stages[t - 1])
            np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        env = make_env(A2_ENV, seed=4)
        d1, _ = generate_trajectories(env, 30, seed=9)
        d2, _ = generate_trajectories(env, 30, seed=9)
        np.testing.assert_array_equal(d1.states, d2.states)
        np.testing.assert_array_equal(d1.actions, d2.actions)
        np.testing.assert_array_equal(d1.rewards, d2.rewards)

    def test_transition_carries_chosen_video(self):
        env = make_env(EnvSpec(n_users=3, n_actions=4, d_video=2, d_user=2,
                               d_action=2, horizon=3), seed=6)
        ds, _ = generate_trajectories(env, 10, seed=6)
        for i in range(10):
            for t in range(2):
                chosen = ds.actions[i, t]
                np.testing.assert_array_equal(
                    ds.states[i, t + 1, 2:], env.video_pool[chosen])
                np.testing.assert_array_equal(
                    ds.states[i, t + 1, :2], ds.states[i, t, :2])

    @staticmethod
    def outcome_residuals(spec, seed):
        """y - <x_t, theta*_t> over every logged stage, with the outcome
        y = r + max_a' <theta*_{t+1}, x_{t+1}(a')> rebuilt from the dataset."""
        ds, truth = generate_trajectories(make_env(spec, seed), 2000, seed=seed)
        resid = []
        for t in range(1, ds.horizon + 1):
            y = ds.rewards[:, t - 1].copy()
            if t < ds.horizon:
                y += candidate_scores(ds.states[:, t, :], ds.action_table,
                                      truth.theta_star[t]).max(axis=0)
            resid.append(y - reference_design(ds, t) @ truth.theta_star[t - 1])
        return np.concatenate(resid)

    def test_outcome_law_at_centred_range(self):
        # E[y | x_t] = <x_t, theta*_t> at a centred range other than the default
        spec = EnvSpec(n_users=6, n_actions=5, d_video=2, d_user=2, d_action=2,
                       horizon=4, noise_sd=0.3, reward_low=-1.0, reward_high=1.0)
        resid = self.outcome_residuals(spec, seed=11)
        se = resid.std(ddof=1) / np.sqrt(len(resid))
        assert abs(resid.mean()) < 4 * se
        # an uncentred range shifts every outcome by its midpoint
        shifted = self.outcome_residuals(
            dataclasses.replace(spec, reward_low=0.0, reward_high=2.0), seed=11)
        assert abs(shifted.mean() - 1.0) < 4 * se


def test_env_spec_validation():
    with pytest.raises(ValueError):
        EnvSpec(noise_sd=-0.1)
    with pytest.raises(ValueError):
        EnvSpec(reward_low=0.5, reward_high=0.5)
    with pytest.raises(ValueError):
        EnvSpec(theta_mode="drifting")


def scalar_episodes(env, n, seed, choose=None):
    """Reference simulator: one episode at a time, one stage at a time, in the
    draw order of each episode's own stream.  ``choose(t, state)`` picks the
    action; None draws it uniformly, as the logging policy does."""
    spec = env.spec
    states = np.empty((n, spec.horizon, spec.state_dim))
    actions = np.empty((n, spec.horizon), dtype=np.int64)
    rewards = np.empty((n, spec.horizon))
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(stream)
        user = env.user_pool[rng.integers(spec.n_users)]
        video = env.video_pool[rng.integers(spec.n_actions)]
        state = np.concatenate([user, video])
        for t in range(1, spec.horizon + 1):
            action = int(rng.integers(spec.n_actions)) if choose is None else choose(t, state)
            nxt = state.copy()
            nxt[spec.d_user:] = env.video_pool[action]
            if env.reward_fn is not None:
                reward = float(env.reward_fn(t, state[None, :], np.array([action]))[0])
            else:
                u = rng.uniform(spec.reward_low, spec.reward_high)
                eps = 0.0
                if spec.noise_sd > 0:
                    eps = float(np.clip(spec.noise_sd * rng.standard_normal(),
                                        -NOISE_CLIP_SDS * spec.noise_sd,
                                        NOISE_CLIP_SDS * spec.noise_sd))
                x = reference_features(state, env.action_pool[action])
                next_best = 0.0
                if t < spec.horizon:
                    next_best = float(candidate_scores(nxt[None, :], env.action_pool,
                                                       env.theta_star[t])[:, 0].max())
                reward = float(x @ env.theta_star[t - 1]) - next_best + u + eps
            states[i, t - 1], actions[i, t - 1], rewards[i, t - 1] = state, action, reward
            state = nxt
    return states, actions, rewards


def scalar_greedy(theta_rows, action_table):
    """Reference greedy rule for one state: argmax of its one column of
    (A, 1) scores."""
    return lambda t, state: int(np.argmax(
        candidate_scores(state[None, :], action_table, theta_rows[t - 1])[:, 0]))


small_specs = st.builds(
    EnvSpec,
    n_users=st.integers(1, 4), n_actions=st.integers(1, 5),
    d_video=st.integers(1, 3), d_user=st.integers(1, 3), d_action=st.integers(1, 3),
    horizon=st.integers(1, 5), noise_sd=st.sampled_from([0.0, 0.3, 2.0]),
    theta_mode=st.sampled_from(["time-varying", "static"]))


def ulp_tolerance(env, terms=1):
    """A few ulps of the declared reward bound, for ``terms`` summed rewards."""
    return 4 * terms * np.spacing(terms * env.reward_bound)


class TestBatchedSimulatorMatchesScalarReference:
    @settings(max_examples=60, deadline=None)
    @given(spec=small_specs, env_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
           n=st.integers(1, 6), scripted=st.booleans())
    def test_generate_trajectories(self, spec, env_seed, seed, n, scripted):
        env = make_env(spec, env_seed)
        if scripted:
            # a reward_fn draws nothing, so each stream holds only the
            # initial state and the logging actions
            env = dataclasses.replace(
                env, reward_fn=lambda t, states, actions: 0.25 * t - 0.1 * actions)
        ds, _ = generate_trajectories(env, n, seed=seed)
        states, actions, rewards = scalar_episodes(env, n, seed)
        np.testing.assert_array_equal(ds.states, states)
        np.testing.assert_array_equal(ds.actions, actions)
        np.testing.assert_allclose(ds.rewards, rewards, rtol=0, atol=ulp_tolerance(env))

    @settings(max_examples=60, deadline=None)
    @given(spec=small_specs, env_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
           n=st.integers(1, 6))
    def test_rollout_reward(self, spec, env_seed, seed, n):
        env = make_env(spec, env_seed)
        stages = tuple(StageModel(t=t, theta=env.theta_star[t - 1].copy(),
                                  lambda_selected=0.0, k_selected=1)
                       for t in range(1, spec.horizon + 1))
        model = ModelBundle(horizon=spec.horizon, feature_dim=spec.feature_dim,
                            filter_kind="cutoff", stages=stages)
        got = rollout_reward(GreedyPolicy(model, env.action_pool), env, n, seed=seed)
        _, _, rewards = scalar_episodes(env, n, seed,
                                        scalar_greedy(env.theta_star, env.action_pool))
        want = 0.0
        for reward in rewards.ravel():
            want += float(reward)
        assert type(got) is float
        assert got == pytest.approx(want / n, rel=0, abs=ulp_tolerance(env, spec.horizon))


class TestEpisodeDraws:
    @settings(max_examples=60, deadline=None)
    @given(spec=small_specs, low=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0),
           seed=st.integers(0, 2**16), n=st.integers(1, 6), logged=st.booleans())
    def test_match_per_call_uniform(self, spec, low, width, seed, n, logged):
        spec = dataclasses.replace(spec, reward_low=low, reward_high=low + width)
        env = make_env(spec, 0)
        cells, actions, u, eps = episode_draws(env, n, seed, logged)
        states = pool_states(env, cells)
        clip = NOISE_CLIP_SDS * spec.noise_sd
        for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n)):
            rng = np.random.default_rng(stream)
            user, video = rng.integers(spec.n_users), rng.integers(spec.n_actions)
            np.testing.assert_array_equal(
                states[i], np.concatenate([env.user_pool[user], env.video_pool[video]]))
            for t in range(spec.horizon):
                assert actions[i, t] == (rng.integers(spec.n_actions) if logged else 0)
                assert u[i, t] == rng.uniform(spec.reward_low, spec.reward_high)
                z = rng.standard_normal() if spec.noise_sd > 0 else 0.0
                assert eps[i, t] == np.clip(spec.noise_sd * z, -clip, clip)

    @pytest.mark.parametrize("bound", [1, 2, 3, 30, 2**31 + 1, 2**32 - 1, 2**32])
    def test_bounded_integers_match_numpy(self, bound):
        # 300 streams draw integers(bound) together, with random() and
        # standard_normal() interleaved, against each stream's own Generator:
        # a half-word taken or buffered differently shifts every later draw
        n, seed = 300, 5
        streams = EpisodeStreams(seed, n)
        refs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]
        out_of_step = 0  # integer draws met with a buffered half in some streams only
        for op in "iiuiniinuiii":
            if op == "i":
                buffered = int(streams.has_half.sum())
                out_of_step += 0 < buffered < n
                hi, lo = streams.hi, streams.lo
                got = streams.integers(bound)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, [g.integers(bound) for g in refs])
                if bound == 1:  # numpy takes no word
                    assert np.array_equal(streams.hi, hi) and np.array_equal(streams.lo, lo)
            elif op == "u":
                np.testing.assert_array_equal(streams.doubles(), [g.random() for g in refs])
            else:
                np.testing.assert_array_equal(streams.normals(),
                                              [g.standard_normal() for g in refs])
        if bound == 2**31 + 1:
            # numpy rejects about half of all halves at this bound, so the
            # streams fall out of step and each integer draw mixes both cases
            assert out_of_step >= 6

    @pytest.mark.parametrize("logged, digests", [
        (True, ("f83186390297676ad5d090c588e89ba18c8321475df40a81fbaaf46d32034742",
                "d130bae2508e8ec7231883bfe288f49743b041cca70682d14ec38a706a533cd3",
                "e0cdce561c33b0fd3296629ff7c5fa2b21b1e575095482f0edc45493afe7c29e",
                "ef8e562c4b32be61ff366b06ed5d396fd551ae6569760068d2101e655e4e6167")),
        (False, ("f83186390297676ad5d090c588e89ba18c8321475df40a81fbaaf46d32034742",
                 "0c92bddb4e96f3ea9ec9f0f64a668255a6c15527ac09f6f119cafde60c7c4a39",
                 "496a02ccdd99d1413743fea2a764ac492291390f072bbbcb3faaeddad45091a8",
                 "406dc1d42ddc312923dda3dee2cf1160ede90efb1abfeb05bff4253ff79b07f2")),
    ])
    def test_a1_bytes_pinned(self, logged, digests):
        # states (gathered from the drawn pool cells), actions, u and e of 200
        # a1 episodes, as numpy's integers() and uniform() drew them; no BLAS
        # call touches these bytes
        env = make_env(A1_ENV, 0)
        cells, *arrays = episode_draws(env, 200, 0, logged)
        arrays.insert(0, pool_states(env, cells))
        assert [(a.dtype.str, a.shape) for a in arrays] == [
            ("<f8", (200, 48)), ("<i8", (200, 20)), ("<f8", (200, 20)), ("<f8", (200, 20))]
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests
