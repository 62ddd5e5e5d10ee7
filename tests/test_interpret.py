import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sblq.envs import EnvSpec, SyntheticEnv, generate_trajectories, make_env
from sblq.interpret import clipped_weights, contribution_proportions, topk_feature_rewards
from sblq.learner import ModelBundle, StageModel, default_config, stage_spectra, train
from sblq.policy import GreedyPolicy, rollout_reward


def bundle_from_weights(weights):
    weights = np.asarray(weights, dtype=float)
    stages = tuple(
        StageModel(t=t + 1, theta=weights[t].copy(), lambda_selected=0.1, k_selected=1)
        for t in range(weights.shape[0])
    )
    return ModelBundle(horizon=weights.shape[0], feature_dim=weights.shape[1],
                       filter_kind="cutoff", stages=stages)


class TestContributionProportions:
    def test_uniform_magnitudes(self):
        report = contribution_proportions(bundle_from_weights(np.ones((3, 4))))
        np.testing.assert_allclose(report.proportions, 0.25)
        assert sorted(report.ranking.tolist()) == [0, 1, 2, 3]

    def test_single_feature(self):
        w = np.zeros((2, 3))
        w[:, 1] = 2.0
        report = contribution_proportions(bundle_from_weights(w))
        np.testing.assert_allclose(report.proportions, [0.0, 1.0, 0.0])
        assert report.ranking[0] == 1

    def test_hand_arithmetic(self):
        report = contribution_proportions(bundle_from_weights([[1.0, 3.0], [3.0, 1.0]]))
        np.testing.assert_allclose(report.proportions, [0.5, 0.5])

    def test_zero_model_rejected(self):
        with pytest.raises(ValueError):
            contribution_proportions(bundle_from_weights(np.zeros((2, 3))))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_permutation_equivariance(self, seed):
        r = np.random.default_rng(seed)
        w = r.standard_normal((3, 5))
        perm = r.permutation(5)
        p1 = contribution_proportions(bundle_from_weights(w)).proportions
        p2 = contribution_proportions(bundle_from_weights(w[:, perm])).proportions
        np.testing.assert_allclose(p2, p1[perm], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(1e-4, 1e4), seed=st.integers(0, 300))
    def test_scale_invariance(self, scale, seed):
        r = np.random.default_rng(seed)
        w = r.standard_normal((2, 4))
        p1 = contribution_proportions(bundle_from_weights(w)).proportions
        p2 = contribution_proportions(bundle_from_weights(scale * w)).proportions
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_proportions_sum_to_one(self, rng):
        w = rng.standard_normal((4, 7))
        report = contribution_proportions(bundle_from_weights(w))
        assert report.proportions.sum() == pytest.approx(1.0, abs=1e-10)
        assert sorted(report.ranking.tolist()) == list(range(7))


class TestClippedWeights:
    def test_all_equal_no_flags(self):
        assert not clipped_weights(np.full(20, 0.5)).any()

    def test_hundred_distinct_values(self):
        values = np.arange(1.0, 101.0)
        flags = clipped_weights(values)
        assert set(values[flags]) == {1.0, 2.0, 3.0, 4.0, 5.0, 96.0, 97.0, 98.0, 99.0, 100.0}

    def test_order_invariant(self, rng):
        values = rng.standard_normal(60)
        perm = rng.permutation(60)
        flags = clipped_weights(values)
        assert np.array_equal(clipped_weights(values[perm]), flags[perm])

    def test_flags_keep_the_pool_shape(self, rng):
        # (method, seed, stage, feature) arrays, as the interpretability
        # comparison pools them, flag as their flattened values do
        values = rng.standard_normal((2, 3, 4, 5))
        flags = clipped_weights(values)
        assert flags.shape == values.shape
        assert np.array_equal(flags.ravel(), clipped_weights(values.ravel()))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 200), seed=st.integers(0, 300))
    def test_flag_count_bound(self, n, seed):
        flags = clipped_weights(np.random.default_rng(seed).standard_normal(n))
        assert flags.sum() <= 2 * int(np.ceil(0.05 * n))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clipped_weights([])


class TestTopkFeatureRewards:
    def _setup(self):
        # truth loads on exactly two of six features (one state, one action)
        spec = EnvSpec(n_users=8, n_actions=6, d_video=2, d_user=2, d_action=2,
                       horizon=2, noise_sd=0.1, theta_mode="static")
        base = make_env(spec, seed=31)
        theta = np.zeros((3, 6))
        theta[:2, 0] = 0.8
        theta[:2, 4] = 0.6
        env = SyntheticEnv(spec=spec, user_pool=base.user_pool,
                           video_pool=base.video_pool, action_pool=base.action_pool,
                           theta_star=theta, seed=base.seed)
        ds, _ = generate_trajectories(env, 300, seed=31)
        cfg = default_config("tikhonov", reward_bound=ds.reward_bound, budget=40)

        def trainer(mask):
            bundle, _ = train(ds, "tikhonov", cfg, spectra=stage_spectra(ds, mask))
            return bundle

        def reward_of(bundle):
            return rollout_reward(GreedyPolicy(bundle, ds.action_table), env, 200, seed=7)

        return ds, env, cfg, trainer, reward_of

    def test_full_k_equals_unmasked(self):
        ds, env, cfg, trainer, reward_of = self._setup()
        unmasked, _ = train(ds, "tikhonov", cfg)
        report = contribution_proportions(unmasked)
        curve = topk_feature_rewards(report, trainer, reward_of, [6])
        assert curve[6] == pytest.approx(reward_of(unmasked))

    def test_curve_keys_in_input_order(self):
        ds, env, cfg, trainer, reward_of = self._setup()
        unmasked, _ = train(ds, "tikhonov", cfg)
        report = contribution_proportions(unmasked)
        curve = topk_feature_rewards(report, trainer, reward_of, [3, 1, 6])
        assert list(curve.keys()) == [3, 1, 6]

    def test_sparse_truth_reaches_full_reward_at_k_two(self):
        ds, env, cfg, trainer, reward_of = self._setup()
        unmasked, _ = train(ds, "tikhonov", cfg)
        report = contribution_proportions(unmasked)
        # the two loaded features should rank on top
        assert set(report.ranking[:2].tolist()) == {0, 4}
        curve = topk_feature_rewards(report, trainer, reward_of, [2, 6])
        assert curve[2] == pytest.approx(curve[6], abs=0.1)

    def test_out_of_range_k_rejected(self):
        ds, env, cfg, trainer, reward_of = self._setup()
        unmasked, _ = train(ds, "tikhonov", cfg)
        report = contribution_proportions(unmasked)
        with pytest.raises(ValueError):
            topk_feature_rewards(report, trainer, reward_of, [7])
