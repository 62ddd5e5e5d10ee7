import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sblq.data import BatchDataset, best_scores, candidate_scores, split
from sblq.envs import A2_ENV, EnvSpec, generate_trajectories, make_env
from sblq.learner import AdaptiveConfig, ModelBundle, StageModel, default_config, train
from sblq.policy import (
    GreedyPolicy,
    comparison_diagnostic,
    direct_value_estimate,
    evaluate,
    greedy_actions,
    parameter_gap,
    policy_gap,
    policy_value,
    rollout_reward,
)

from conftest import make_dataset, reference_design, reference_features, reference_scores


def bundle_from_thetas(thetas, filter_kind="cutoff"):
    thetas = np.asarray(thetas, dtype=float)
    stages = tuple(
        StageModel(t=t + 1, theta=thetas[t].copy(), lambda_selected=0.1, k_selected=1)
        for t in range(thetas.shape[0])
    )
    return ModelBundle(horizon=thetas.shape[0], feature_dim=thetas.shape[1],
                       filter_kind=filter_kind, stages=stages)


def with_final_zero(truth):
    """The (T+1, d) truth of (T, d) stage rows: stage T+1's row is zero."""
    return np.vstack([truth, np.zeros(truth.shape[1])])


def pooled_dataset(n, horizon, pool, seed, normalize=True, d_s=4, d_a=3, n_actions=5):
    """A dataset of n trajectories whose states are drawn from ``pool`` rows,
    so that rows repeat: m = pool.  Features are small nonzero integers."""
    rng = np.random.default_rng(seed)
    values = [-2.0, -1.0, 1.0, 2.0]
    return BatchDataset(rng.choice(values, (pool, d_s)), rng.integers(0, pool, (n, horizon)),
                        rng.integers(0, n_actions, (n, horizon)),
                        rng.uniform(-1.0, 1.0, (n, horizon)),
                        rng.choice(values, (n_actions, d_a)), 2.0, normalize)


# Datasets on both sides of the m <= n rule by which evaluation scores the
# distinct state rows rather than each trajectory's context.  On the m <= n
# side the features are integers and the parameters (``random_model``)
# multiples of 1/4, so every dot product is exact: a BLAS may round a row's
# product by its place among the rows it is given, and these datasets give
# the per-trajectory formula other rows than evaluation scores.
SCORING_DATASETS = {
    "repeating": lambda: pooled_dataset(12, 4, 7, seed=1),
    "repeating-unnormalized": lambda: pooled_dataset(12, 4, 7, seed=2, normalize=False),
    # the test side of a split holds parent rows that it never uses
    "split-half": lambda: split(pooled_dataset(40, 2, 18, seed=3), 0.5, 3)[1],
    "horizon-1": lambda: pooled_dataset(12, 1, 5, seed=4),
    "non-repeating": lambda: make_dataset(n=9, horizon=4, seed=7),
    "non-repeating-unnormalized": lambda: make_dataset(n=9, horizon=4, seed=7, normalize=False),
}


def test_scoring_datasets_cover_both_sides_of_the_rule():
    built = {case: build() for case, build in SCORING_DATASETS.items()}
    rows_repeat = {"repeating", "repeating-unnormalized", "split-half", "horizon-1"}
    for case, ds in built.items():
        assert (len(ds.state_rows) <= len(ds)) == (case in rows_repeat), case
    half = built["split-half"]
    assert len(np.unique(half.state_index)) < len(half.state_rows)
    assert built["horizon-1"].horizon == 1


def random_model(ds, seed, masked):
    """A model near a random (T+1, d) truth, its last row zero, and the
    truth, all multiples of 1/4; the model keeps all but two features if
    ``masked``."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(-8, 9, (ds.horizon + 1, ds.feature_dim)) / 4.0
    truth[-1] = 0.0
    base = bundle_from_thetas(truth[:-1] + rng.integers(-2, 3, truth[:-1].shape) / 4.0)
    mask = None
    if masked:
        mask = np.ones(ds.feature_dim)
        mask[[1, ds.state_dim + 1]] = 0.0
    model = ModelBundle(horizon=base.horizon, feature_dim=base.feature_dim,
                        filter_kind=base.filter_kind, stages=base.stages, feature_mask=mask)
    return model, truth


def one_row_action(policy, t, state):
    """The greedy action of a one-row batch, checked to hold one action."""
    actions = greedy_actions(policy, t, np.asarray(state, dtype=float)[None, :])
    assert actions.shape == (1,)
    return int(actions[0])


class TestAct:
    """The greedy action rule, through ``greedy_actions`` on one-row batches."""

    def test_zero_theta_breaks_ties_low(self):
        table = np.eye(2)
        model = bundle_from_thetas(np.zeros((1, 4)))
        policy = GreedyPolicy(model, table)
        assert one_row_action(policy, 1, np.array([1.0, 0.0])) == 0

    def test_picks_higher_score(self):
        table = np.array([[1.0, 0.0], [0.0, 1.0]])
        theta = np.array([0.0, 0.0, 0.3, 0.7])
        # same concatenation norm for both actions, so scores are 0.3 vs 0.7
        policy = GreedyPolicy(bundle_from_thetas(theta[None, :] * np.sqrt(2)), table)
        assert one_row_action(policy, 1, np.array([1.0, 0.0])) == 1

    def test_matches_exhaustive_argmax(self, rng):
        table = rng.standard_normal((30, 3))
        theta = rng.standard_normal(5)
        state = rng.standard_normal(2)
        policy = GreedyPolicy(bundle_from_thetas(theta[None, :]), table)
        got = one_row_action(policy, 1, state)
        scores = [float(reference_features(state, a) @ theta) for a in table]
        assert got == int(np.argmax(scores))

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 200))
    def test_invariant_to_positive_rescaling(self, scale, seed):
        r = np.random.default_rng(seed)
        table = r.standard_normal((6, 3))
        theta = r.standard_normal(5)
        state = r.standard_normal(2)
        p1 = GreedyPolicy(bundle_from_thetas(theta[None, :]), table)
        p2 = GreedyPolicy(bundle_from_thetas(scale * theta[None, :]), table)
        assert one_row_action(p1, 1, state) == one_row_action(p2, 1, state)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            GreedyPolicy(bundle_from_thetas(np.zeros((1, 3))), np.zeros((0, 2)))


class TestParameterGap:
    def test_zero_when_equal(self, rng):
        t = rng.standard_normal((4, 6))
        assert parameter_gap(t, t) == 0.0

    def test_single_unit_difference(self):
        est = np.zeros((1, 3))
        tru = np.zeros((1, 3))
        est[0, 0] = 1.0
        assert parameter_gap(est, tru) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        est = np.zeros((2, 5))
        tru = np.zeros((2, 5))
        est[0, 0] = 3.0
        est[1, 1] = 4.0
        assert parameter_gap(est, tru) == pytest.approx(np.sqrt((9 + 16) / 2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            parameter_gap(np.zeros((2, 3)), np.zeros((3, 3)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_metric_axioms(self, seed):
        r = np.random.default_rng(seed)
        a, b, c = r.standard_normal((3, 2, 4))
        assert parameter_gap(a, b) == pytest.approx(parameter_gap(b, a), abs=1e-12)
        assert parameter_gap(a, c) <= parameter_gap(a, b) + parameter_gap(b, c) + 1e-12
        assert parameter_gap(a, a) == 0.0


class TestPolicyGap:
    def test_zero_when_exact(self):
        ds = make_dataset(n=5, horizon=3, seed=1)
        rng = np.random.default_rng(0)
        truth = rng.standard_normal((4, ds.feature_dim))
        truth[-1] = 0.0
        model = bundle_from_thetas(truth[:-1])
        assert policy_gap(model, truth, ds) == pytest.approx(0.0, abs=1e-14)

    def test_constant_offset(self):
        # one action and one context: the estimated-vs-true best scores
        # differ by a constant c at every trajectory and stage
        table = np.array([[1.0, 0.0]])
        states = np.tile(np.array([1.0, 0.0]), (4, 3, 1))
        ds = BatchDataset.from_states(states=states, actions=np.zeros((4, 3), dtype=np.int64),
                                      rewards=np.zeros((4, 3)), action_table=table,
                                      reward_bound=1.0)
        truth = np.zeros((4, 4))
        c = 0.37
        x = reference_features([1.0, 0.0], [1.0, 0.0])
        delta = c * x  # <delta, x> = c on the unique context
        est = truth[:-1] + delta
        model = bundle_from_thetas(est)
        # stages t < T contribute c^2, stage T contributes 0
        want = np.sqrt(((3 - 1) * c**2) / 3)
        assert policy_gap(model, truth, ds) == pytest.approx(want, abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        ds = make_dataset(n=2, horizon=2, d_s=2, d_a=2, n_actions=2, seed=3)
        rng = np.random.default_rng(4)
        truth = rng.standard_normal((3, 4))
        truth[-1] = 0.0
        est = truth[:-1] + 0.3 * rng.standard_normal((2, 4))
        model = bundle_from_thetas(est)
        mse = []
        for t in (1, 2):
            errs = []
            for i in range(2):
                if t == 2:
                    errs.append(0.0)
                    continue
                ctx = ds.states[i, t]
                xs = [reference_features(ctx, a) for a in ds.action_table]
                best_est = max(float(x @ est[t]) for x in xs)
                best_tru = max(float(x @ truth[t]) for x in xs)
                errs.append((best_est - best_tru) ** 2)
            mse.append(np.mean(errs))
        want = float(np.sqrt(np.mean(mse)))
        assert policy_gap(model, truth, ds) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("case", ["repeating", "non-repeating"])
    def test_scores_each_distinct_row_once_when_rows_repeat(self, case, monkeypatch):
        # m <= n: one pass over the m rows for all stages; else each stage's n contexts
        import sblq.policy as policy_mod
        scored = []

        def recording(states, *args, **kwargs):
            scored.append(len(states))
            return best_scores(states, *args, **kwargs)

        monkeypatch.setattr(policy_mod, "best_scores", recording)
        ds = SCORING_DATASETS[case]()
        policy_gap(*random_model(ds, 8, masked=False), ds)
        want = [len(ds.state_rows)] if case == "repeating" else [len(ds)] * (ds.horizon - 1)
        assert scored == want

    def test_a_row_no_trajectory_visits_does_not_refuse_a_masked_model(self):
        # m <= n, and row 2, which no trajectory visits, is 0 on the one kept
        # feature, as is every action: its features cannot be normalized
        ds = BatchDataset(np.array([[1.0, 2.0], [0.5, 1.0], [0.0, 3.0]]),
                          np.array([[0, 1], [1, 0], [0, 0]]), np.zeros((3, 2), dtype=np.int64),
                          np.zeros((3, 2)), np.array([[1.0], [2.0]]), reward_bound=1.0)
        stages = tuple(StageModel(t=t, theta=np.array([1.0, 0.0, 0.0]), lambda_selected=0.0,
                                  k_selected=1) for t in (1, 2))
        model = ModelBundle(horizon=2, feature_dim=3, filter_kind="cutoff", stages=stages,
                            feature_mask=np.array([1.0, 0.0, 0.0]))
        truth = np.zeros((3, 3))
        assert policy_gap(model, truth, ds) == self.per_theta_gap(model, truth, ds,
                                                                  est_mask=model.feature_mask)
        assert direct_value_estimate(model, ds) == 1.0

    @staticmethod
    def per_theta_gap(model, truth, ds, est_mask=None, truth_mask=None):
        """The policy gap with each parameter vector scored on its own by the
        reference formula."""
        mse = []
        for t in range(1, model.horizon):
            ctx = ds.states[:, t, :]
            est = reference_scores(ctx, ds.action_table, model.theta(t + 1), ds.normalize,
                                   est_mask)
            tru = reference_scores(ctx, ds.action_table, truth[t], ds.normalize, truth_mask)
            mse.append(np.mean((est.max(axis=1) - tru.max(axis=1)) ** 2))
        return float(np.sqrt(np.mean(mse + [0.0])))

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("case", list(SCORING_DATASETS))
    def test_matches_per_trajectory_formula(self, case, masked):
        # bit for bit, whichever contexts the dataset's rows lead it to score
        ds = SCORING_DATASETS[case]()
        model, truth = random_model(ds, 8, masked)
        assert policy_gap(model, truth, ds) == self.per_theta_gap(model, truth, ds,
                                                                  est_mask=model.feature_mask)

    def test_masked_model_normalizes_truth_on_all_features(self):
        # the estimate is scored on its masked features, the truth on all of
        # them: one normalizer shared by both would give another number
        ds = make_dataset(n=9, horizon=4, seed=5)
        rng = np.random.default_rng(6)
        truth = rng.standard_normal((5, ds.feature_dim))
        truth[-1] = 0.0
        mask = np.ones(ds.feature_dim)
        mask[[1, 5]] = 0.0
        base = bundle_from_thetas(truth[:-1] + 0.2 * rng.standard_normal((4, ds.feature_dim)))
        model = ModelBundle(horizon=base.horizon, feature_dim=base.feature_dim,
                            filter_kind=base.filter_kind, stages=base.stages,
                            feature_mask=mask)
        got = policy_gap(model, truth, ds)
        assert got == self.per_theta_gap(model, truth, ds, est_mask=mask)
        assert got != self.per_theta_gap(model, truth, ds, est_mask=mask, truth_mask=mask)


class TestRolloutReward:
    def test_deterministic(self):
        spec = EnvSpec(n_users=2, n_actions=2, d_video=2, d_user=2, d_action=2,
                       horizon=3, noise_sd=0.0)
        env = make_env(spec, seed=0)
        policy = GreedyPolicy(bundle_from_thetas(np.zeros((3, 6))), env.action_pool)
        r1 = rollout_reward(policy, env, 25, seed=3)
        r2 = rollout_reward(policy, env, 25, seed=3)
        assert r1 == r2

    def test_truth_greedy_beats_uniform_random(self):
        spec = EnvSpec(n_users=5, n_actions=8, d_video=4, d_user=3, d_action=4,
                       horizon=4, noise_sd=0.2)
        env = make_env(spec, seed=11)
        truth_policy = GreedyPolicy(bundle_from_thetas(env.theta_star[:-1]), env.action_pool)
        greedy_value = rollout_reward(truth_policy, env, 1000, seed=17)
        # uniform-random baseline: the logging policy on the same per-episode streams
        ds, _ = generate_trajectories(env, 1000, seed=17)
        random_value = float(np.mean(ds.rewards.sum(axis=1)))
        assert greedy_value > random_value
        assert greedy_value - random_value > 0.05


def test_rollouts_score_on_the_feature_map_of_the_fit():
    # a model fit on unnormalized features acts as its own argmax, and
    # policy_value rolls it out that way; the unit-normalized map picks other
    # actions on most stage-3 states of this world
    env = make_env(A2_ENV, seed=0)
    ds, _ = generate_trajectories(env, 300, seed=0)
    ds = dataclasses.replace(ds, normalize=False)
    bundle, _ = train(ds, "ls")
    policy = GreedyPolicy(bundle, ds.action_table, normalize=False)
    normalized = GreedyPolicy(bundle, ds.action_table)
    for t in range(1, ds.horizon + 1):
        states = ds.states[:, t - 1]
        own = candidate_scores(states, ds.action_table, bundle.theta(t),
                               normalize=False).argmax(axis=0)
        np.testing.assert_array_equal(greedy_actions(policy, t, states), own)
        if t == 3:
            assert np.sum(greedy_actions(normalized, t, states) != own) > 150
    want = rollout_reward(policy, env, 50, seed=3)
    assert policy_value(bundle, ds, env, 50, seed=3) == want
    assert rollout_reward(normalized, env, 50, seed=3) != want


class TestDirectValueEstimate:
    def test_zero_model(self, small_dataset):
        model = bundle_from_thetas(np.zeros((small_dataset.horizon, small_dataset.feature_dim)))
        assert direct_value_estimate(model, small_dataset) == 0.0

    def test_single_trajectory_two_actions(self):
        table = np.array([[1.0, 0.0], [0.0, 1.0]])
        ds = BatchDataset.from_states(states=np.array([[[1.0, 0.0]]]), actions=np.array([[0]]),
                                      rewards=np.array([[0.0]]), action_table=table,
                                      reward_bound=1.0)
        theta = np.array([0.0, 0.0, 1.0, 2.0]) * np.sqrt(2)
        model = bundle_from_thetas(theta[None, :])
        assert direct_value_estimate(model, ds) == pytest.approx(2.0)

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("case", list(SCORING_DATASETS))
    def test_matches_per_trajectory_formula(self, case, masked):
        ds = SCORING_DATASETS[case]()
        model, _ = random_model(ds, 9, masked)
        scores = reference_scores(ds.states[:, 0], ds.action_table, model.theta(1),
                                  ds.normalize, model.feature_mask)
        assert direct_value_estimate(model, ds) == float(np.mean(scores.max(axis=1)))

    def test_matches_brute_force_mean(self, rng):
        ds = make_dataset(n=10, horizon=2, seed=6)
        theta = rng.standard_normal(ds.feature_dim)
        model = bundle_from_thetas(np.stack([theta, np.zeros_like(theta)]))
        vals = []
        for i in range(10):
            vals.append(max(float(reference_features(ds.states[i, 0], a) @ theta)
                            for a in ds.action_table))
        assert direct_value_estimate(model, ds) == pytest.approx(np.mean(vals), abs=1e-12)


class TestComparisonDiagnostic:
    def test_zero_when_exact(self):
        ds = make_dataset(n=6, horizon=2, seed=8)
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((2, ds.feature_dim))
        model = bundle_from_thetas(truth)
        got = comparison_diagnostic(model, with_final_zero(truth), ds)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_single_stage_identity_covariance(self):
        # one action (mu = 1); rows sqrt(3) e_j over j = 1..3 make the
        # stage covariance exactly I on the state block
        d_s = 3
        table = np.array([[0.0]])
        ds = BatchDataset.from_states(states=np.sqrt(3.0) * np.eye(d_s)[:, None, :],
                                      actions=np.zeros((d_s, 1), dtype=np.int64),
                                      rewards=np.zeros((d_s, 1)),
                                      action_table=table, reward_bound=1.0, normalize=False)
        truth = np.zeros((1, d_s + 1))
        est = truth.copy()
        est[0, 0] = 1.0  # difference e_1
        model = bundle_from_thetas(est)
        got = comparison_diagnostic(model, with_final_zero(truth), ds)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_matches_term_by_term_recomputation(self, rng):
        ds = make_dataset(n=8, horizon=3, seed=9)
        truth = rng.standard_normal((3, ds.feature_dim))
        est = truth + 0.2 * rng.standard_normal(truth.shape)
        model = bundle_from_thetas(est)
        mu = float(len(ds.action_table))
        total = 0.0
        for t in (1, 2, 3):
            rows = reference_design(ds, t)
            cov = rows.T @ rows / rows.shape[0]
            diff = est[t - 1] - truth[t - 1]
            total += 2.0 * mu ** (t / 2.0) * np.sqrt(diff @ cov @ diff)
        got = comparison_diagnostic(model, with_final_zero(truth), ds)
        assert got == pytest.approx(total, abs=1e-10)


    def test_masked_model_matches_term_by_term_recomputation(self, rng):
        # Sigma_t of the masked design is 0 outside the kept features
        ds = make_dataset(n=8, horizon=3, seed=9)
        mask = np.ones(ds.feature_dim)
        mask[[0, 4]] = 0.0
        truth = rng.standard_normal((3, ds.feature_dim))
        est = (truth + 0.2 * rng.standard_normal(truth.shape)) * mask
        stages = tuple(StageModel(t=t + 1, theta=est[t].copy(), lambda_selected=0.1,
                                  k_selected=1) for t in range(3))
        model = ModelBundle(horizon=3, feature_dim=ds.feature_dim, filter_kind="cutoff",
                            stages=stages, feature_mask=mask)
        mu = float(len(ds.action_table))
        total = 0.0
        for t in (1, 2, 3):
            rows = reference_design(ds, t, mask=mask)
            cov = rows.T @ rows / rows.shape[0]
            diff = est[t - 1] - truth[t - 1]
            total += 2.0 * mu ** (t / 2.0) * np.sqrt(diff @ cov @ diff)
        got = comparison_diagnostic(model, with_final_zero(truth), ds)
        assert got == pytest.approx(total, rel=1e-12)


def test_evaluate_bundles_metrics():
    spec = EnvSpec(n_users=6, n_actions=5, d_video=3, d_user=3, d_action=3,
                   horizon=3, noise_sd=0.3)
    env = make_env(spec, seed=21)
    ds, truth = generate_trajectories(env, 120, seed=21)
    cfg = default_config("tikhonov", reward_bound=ds.reward_bound, budget=40)
    bundle, _ = train(ds, "tikhonov", cfg)
    report = evaluate(bundle, truth.theta_star, ds, env=env, n_episodes=20, seed=1)
    assert np.isfinite(report.parameter_gap)
    assert np.isfinite(report.policy_gap)
    assert np.isfinite(report.cumulative_reward)
    assert len(report.per_stage) == 3
    offline = evaluate(bundle, truth.theta_star, ds)
    assert offline.cumulative_reward == pytest.approx(direct_value_estimate(bundle, ds))
