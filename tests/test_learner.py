import json
import math
import os
import re
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sblq.config import METHODS
from sblq.data import BatchDataset, candidate_scores
from sblq.cli import _trace_text
from sblq.envs import A1_ENV, A2_ENV, EnvSpec, generate_trajectories, make_env
from sblq.errors import ConfigError, DataError
from sblq.experiments import build_world, method_cell
from sblq.learner import (
    DEFAULT_LASSO_GRID,
    AdaptiveConfig,
    ModelBundle,
    StageModel,
    StageSpectra,
    adaptive_threshold,
    default_config,
    dimension_adjusted_sample_size,
    effective_sample_size,
    _lasso_fitter,
    error_decomposition,
    fit_stage,
    lasso_holdout,
    lasso_path,
    load_model,
    model_json_text,
    select_lambda,
    stage_of,
    stage_spectra,
    stage_targets,
    train,
    variance_proxy,
)
from sblq.policy import parameter_gap
from sblq.spectral import decompose, default_filter, weighted_half_norm

from conftest import design_stage, make_dataset, reference_design, reference_features, stage_rows

# A stage and the design rows it stands for sum Sigma_hat and the moment in
# another order; their estimates agree to this bound, relative to the
# stage's largest coefficient.
DESIGN_RTOL = 1e-12


def covariance(rows):
    """(1/n) sum_i x_i x_i^T of the (n, d) ``rows``."""
    return rows.T @ rows / len(rows)


def gram_and_moment(rows, y):
    """The lasso inputs (1/n) X^T X and (1/n) X^T y of the (n, d) ``rows``."""
    return covariance(rows), rows.T @ y / len(rows)


def two_action_dataset(r=1.0, scores=(0.2, -0.1)):
    """One trajectory, horizon 2, two candidate actions with controlled
    next-stage inner products.

    States and actions are chosen so the stage-2 context features are axis
    aligned; theta_next below picks out the desired scores.
    """
    table = np.array([[1.0, 0.0], [0.0, 1.0]])
    states = np.array([[1.0, 0.0], [1.0, 0.0]])  # stage-2 context = e1
    ds = BatchDataset.from_states(states=states[None], actions=np.array([[0, 0]]),
                                  rewards=np.array([[r, 0.0]]), action_table=table,
                                  reward_bound=2.0)
    # x(ctx, a0) = (1,0,1,0)/sqrt2, x(ctx, a1) = (1,0,0,1)/sqrt2
    s0, s1 = scores
    theta_next = np.array([0.0, 0.0, s0 * math.sqrt(2), s1 * math.sqrt(2)])
    return ds, theta_next


class TestConstructTargets:
    def test_zero_theta_gives_rewards(self, small_dataset):
        t = small_dataset.horizon
        spectra = stage_spectra(small_dataset)
        y = stage_targets(spectra, t, np.zeros(small_dataset.feature_dim))[0]
        np.testing.assert_array_equal(y, small_dataset.rewards[:, t - 1])

    def test_two_action_enumeration(self):
        ds, theta_next = two_action_dataset(r=1.0, scores=(0.2, -0.1))
        y = stage_targets(stage_spectra(ds), 1, theta_next)[0]
        assert y[0] == pytest.approx(1.2)

    def test_negated_theta_flips_argmax(self):
        ds, theta_next = two_action_dataset(r=1.0, scores=(0.2, -0.1))
        y = stage_targets(stage_spectra(ds), 1, -theta_next)[0]
        assert y[0] == pytest.approx(1.0 + 0.1)

    def test_nonzero_theta_at_final_stage_rejected(self, small_dataset):
        theta = np.ones(small_dataset.feature_dim)
        with pytest.raises(ValueError):
            stage_targets(stage_spectra(small_dataset), small_dataset.horizon, theta)[0]

    def test_matches_brute_force(self):
        ds = make_dataset(n=5, horizon=3, seed=8)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(ds.feature_dim)
        t = 2
        y = stage_targets(stage_spectra(ds), t, theta)[0]
        for i in range(len(ds)):
            best = max(
                float(reference_features(ds.states[i, t], a) @ theta)
                for a in ds.action_table
            )
            assert y[i] == pytest.approx(ds.rewards[i, t - 1] + best, abs=1e-12)


class TestFitStage:
    def test_zero_targets(self, small_dataset):
        stage = design_stage(reference_design(small_dataset, 1))
        theta = fit_stage(stage, np.zeros(len(small_dataset)), default_filter("tikhonov"), 0.5)
        np.testing.assert_allclose(theta, 0.0, atol=1e-14)

    def test_tikhonov_matches_ridge_normal_equations(self, rng):
        for _ in range(5):
            n, d = 40, 6
            rows = rng.standard_normal((n, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            y = rng.standard_normal(n)
            lam = 0.2
            got = fit_stage(design_stage(rows), y, default_filter("tikhonov"), lam)
            cov = rows.T @ rows / n
            want = np.linalg.solve(cov + lam * np.eye(d), rows.T @ y / n)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    def test_cutoff_above_spectrum_gives_zero(self, rng):
        rows = rng.standard_normal((10, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        theta = fit_stage(design_stage(rows), rng.standard_normal(10), default_filter("cutoff"),
                          5.0)
        np.testing.assert_array_equal(theta, np.zeros(4))


class TestSampleSizes:
    def test_collapse_with_zero_mixing(self):
        cfg = AdaptiveConfig()
        assert effective_sample_size(1000, cfg) == pytest.approx(1000.0)
        assert dimension_adjusted_sample_size(1000, 72, cfg) == pytest.approx(1000.0)

    def test_log_clause_at_e(self):
        # pick c0 so that log(c1* n) = e, giving n * b0 / (2 e^(1/gamma0)) = n / e
        m, cx, hint = 1.0, 1.0, 1.0
        inner = max(math.sqrt(2) * max(m + 2 * cx * hint, cx) / (2 * cx * m), 1 / cx)
        c0 = math.exp(math.e) / (1000 * 2.0 * inner)
        cfg = AdaptiveConfig(c0=c0, reward_bound=m, c_x=cx, theta_norm_hint=hint)
        assert effective_sample_size(1000, cfg) == pytest.approx(1000.0 / math.e)

    def test_dimension_adjusted_log_clause_at_e_squared(self):
        d = 9
        c0 = math.exp(math.e**2) / (2.0 * 1000 * 2.0 * math.sqrt(d) / 1.0)
        cfg = AdaptiveConfig(c0=c0)
        assert dimension_adjusted_sample_size(1000, d, cfg) == pytest.approx(1000.0 / math.e**2)

    def test_monotone_in_n(self):
        cfg = AdaptiveConfig(c0=0.5)
        vals = [effective_sample_size(n, cfg) for n in (10, 100, 1000)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_dimension_adjusted_never_exceeds_collapse(self):
        cfg = AdaptiveConfig(c0=2.0)
        for n in (10, 100, 1000):
            assert dimension_adjusted_sample_size(n, 50, cfg) <= n * cfg.b0 / 2 + 1e-12


class TestVarianceProxy:
    def test_hand_substitution(self):
        # zero spectrum so the effective-dimension clause is max(0, 1) = 1;
        # defaults give n_gamma = ell3 = n = 100
        cfg = AdaptiveConfig(c_x=1.0)
        d = decompose(np.zeros((3, 3)))
        got = variance_proxy(d, 1.0, 100, 3, cfg)
        want = (1 + 4 * (13 / 10 + 21 / 100)) / 10 + 1 / 100
        assert got == pytest.approx(want)
        assert want == pytest.approx(0.714)

    def test_decreasing_in_n(self):
        cfg = AdaptiveConfig()
        d = decompose(np.diag([0.5, 0.2, 0.1]))
        vals = [variance_proxy(d, 0.3, n, 3, cfg) for n in (100, 400, 1600)]
        assert vals[0] > vals[1] > vals[2]

    def test_blows_up_as_lambda_vanishes(self):
        cfg = AdaptiveConfig()
        d = decompose(np.diag([0.5]))
        assert variance_proxy(d, 1e-12, 100, 1, cfg) > variance_proxy(d, 1e-2, 100, 1, cfg) * 100


class TestNextValueBound:
    def test_zero_theta(self, small_dataset):
        spectra = stage_spectra(small_dataset)
        assert stage_targets(spectra, 1, np.zeros(small_dataset.feature_dim))[1] == 0.0

    def test_cauchy_schwarz_equality(self):
        table = np.array([[0.0, 0.0]])
        states = np.array([[1.0, 0.0], [1.0, 0.0]])
        ds = BatchDataset.from_states(states=states[None], actions=np.array([[0, 0]]),
                                      rewards=np.zeros((1, 2)), action_table=table,
                                      reward_bound=1.0)
        theta = np.array([1.0, 0.0, 0.0, 0.0])  # aligned with the unique context
        assert stage_targets(stage_spectra(ds), 1, theta)[1] == pytest.approx(1.0)

    def test_matches_brute_force(self):
        ds = make_dataset(n=4, horizon=3, seed=2)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(ds.feature_dim)
        t = 1
        want = max(
            abs(float(reference_features(ds.states[i, t], a) @ theta))
            for i in range(len(ds)) for a in ds.action_table
        )
        assert stage_targets(stage_spectra(ds), t, theta)[1] == pytest.approx(want, abs=1e-12)


class TestAdaptiveThreshold:
    def test_zero_multiplier(self):
        cfg = AdaptiveConfig(c_ada=0.0)
        assert adaptive_threshold(1, 10, 0.5, 2.0, cfg) == 0.0

    def test_hand_substitution(self):
        # t = T, M = 1, phi = 0, C_x = 1, w = 0.5: the formula is
        # 84 * 2M * 2 * w * log^2(2/delta) = 168 * log^2(2/delta); the config
        # requires delta <= 0.5, so check at delta = 0.5 where log(2/delta) = log 4
        cfg = AdaptiveConfig(c_ada=1.0, reward_bound=1.0, c_x=1.0, delta=0.5)
        got = adaptive_threshold(10, 10, 0.0, 0.5, cfg)
        assert got == pytest.approx(168.0 * math.log(4.0) ** 2)
        assert got / math.log(2 / cfg.delta) ** 2 == pytest.approx(168.0)

    def test_linear_in_multiplier_and_proxy(self):
        cfg1 = AdaptiveConfig(c_ada=1e-6)
        cfg2 = AdaptiveConfig(c_ada=3e-6)
        t1 = adaptive_threshold(2, 5, 0.1, 1.7, cfg1)
        assert adaptive_threshold(2, 5, 0.1, 1.7, cfg2) == pytest.approx(3 * t1)
        assert adaptive_threshold(2, 5, 0.1, 3.4, cfg1) == pytest.approx(2 * t1)


class TestSelectLambda:
    def _rows(self, seed=0, n=60, d=5):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        theta = rng.standard_normal(d)
        theta /= np.linalg.norm(theta)
        return rows, rows @ theta + 0.1 * rng.standard_normal(n)

    def _design(self, seed=0, n=60, d=5):
        rows, y = self._rows(seed, n, d)
        return design_stage(rows), y

    def test_unreachable_threshold_falls_back_to_smallest(self):
        stage, y = self._design()
        cfg = AdaptiveConfig(c_ada=1e12, budget=20)
        lam, theta, rep = select_lambda(stage, y, default_filter("tikhonov"), 1, 1, 0.0, cfg)
        assert rep.selected_k == 20
        assert lam == pytest.approx(cfg.q0 * cfg.q**20)

    def test_zero_multiplier_trips_immediately(self):
        stage, y = self._design()
        cfg = AdaptiveConfig(c_ada=0.0, budget=20)
        lam, theta, rep = select_lambda(stage, y, default_filter("tikhonov"), 1, 1, 0.0, cfg)
        assert rep.selected_k == 20

    def test_scan_visits_ascending_lambdas_from_grid(self):
        stage, y = self._design(seed=3)
        cfg = AdaptiveConfig(budget=15)
        lam, _, rep = select_lambda(stage, y, default_filter("cutoff"), 1, 1, 0.0, cfg)
        assert np.all(np.diff(rep.lambdas) > 0)
        assert np.array_equal(rep.ks, np.arange(15, 0, -1))
        grid = cfg.q0 * cfg.q ** np.arange(1, 16)
        assert any(abs(lam - g) < 1e-15 for g in grid)

    def test_first_crossing_selected_on_two_point_grid(self):
        # manual scan oracle on a 2-point grid: recompute both gaps and
        # thresholds directly and emulate the rule
        rows, y = self._rows(seed=7, n=80, d=4)
        stage = design_stage(rows)
        filt = default_filter("tikhonov")
        cfg = AdaptiveConfig(budget=2, q0=2.0, c_ada=2e-4)
        lam, theta, rep = select_lambda(stage, y, filt, 1, 1, 0.0, cfg)
        decomp = decompose(covariance(rows))
        n = rows.shape[0]
        expected_k = None
        for k in (2, 1):
            lam_hi = cfg.q0 * cfg.q ** (k + 1)
            t_hi = fit_stage(stage, y, filt, lam_hi)
            t_lo = fit_stage(stage, y, filt, cfg.q0 * cfg.q**k)
            gap = weighted_half_norm(decomp, lam_hi, t_hi - t_lo)
            tau = adaptive_threshold(1, 1, 0.0, variance_proxy(decomp, lam_hi, n, 4, cfg), cfg)
            if gap >= tau:
                expected_k = k
                break
        if expected_k is None:
            expected_k = 2
        assert rep.selected_k == expected_k

    def test_underflowing_grid_raises_before_it_is_allocated(self, monkeypatch):
        # 0.9^(K + 1) underflows for K above about 7,000; a grid of 10^7
        # levels would take 80 MB per array
        import sblq.learner as learner_mod
        stage, y = self._design()
        monkeypatch.setattr(learner_mod, "filter_values",
                            lambda *args: pytest.fail("filter values of the grid computed"))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"q0 q\^\(budget \+ 1\) underflows to 0"):
                select_lambda(stage, y, default_filter("tikhonov"), 1, 1, 0.0,
                              AdaptiveConfig(budget=10_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_trace_arrays_aligned(self):
        stage, y = self._design()
        cfg = AdaptiveConfig(budget=10)
        _, _, rep = select_lambda(stage, y, default_filter("gradient-descent"), 1, 1, 0.0, cfg)
        assert len(rep.ks) == len(rep.lambdas) == len(rep.diff_norms) == len(rep.thresholds) == 10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(20, 120), d=st.integers(2, 12), distinct=st.integers(1, 12),
           kind=st.sampled_from(["tikhonov", "cutoff", "gradient-descent"]),
           budget=st.integers(1, 40), log_c_ada=st.floats(-8.0, -3.0),
           seed=st.integers(0, 10_000))
    def test_scan_matches_per_k_loop_oracle(self, n, d, distinct, kind, budget,
                                            log_c_ada, seed):
        # Rows drawn from a pool of `distinct` unit vectors, so designs with
        # distinct < d are rank-deficient with repeated rows.
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((distinct, d))
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        rows = pool[rng.integers(distinct, size=n)]
        y = rows @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n)
        filt = default_filter(kind)
        cfg = AdaptiveConfig(q0=1.0, budget=budget, c_ada=10.0**log_c_ada)
        t, horizon, phi = 2, 3, 0.4
        stage = design_stage(rows)
        lam, theta, rep = select_lambda(stage, y, filt, t, horizon, phi, cfg)

        decomp = decompose(covariance(rows))
        gaps, taus, scale, expected_k = [], [], 0.0, None
        for k in range(budget, 0, -1):
            lam_hi = cfg.q0 * cfg.q ** (k + 1)
            hi = fit_stage(stage, y, filt, lam_hi)
            lo = fit_stage(stage, y, filt, cfg.q0 * cfg.q**k)
            gaps.append(weighted_half_norm(decomp, lam_hi, hi - lo))
            scale = max(scale, np.linalg.norm(hi) * math.sqrt(decomp.eigenvalues[-1] + lam_hi))
            w = variance_proxy(decomp, lam_hi, n, d, cfg)
            taus.append(adaptive_threshold(t, horizon, phi, w, cfg))
            if expected_k is None and gaps[-1] >= taus[-1]:
                expected_k = k
        expected_k = budget if expected_k is None else expected_k

        assert rep.selected_k == expected_k
        assert lam == pytest.approx(cfg.q0 * cfg.q ** expected_k, rel=1e-14)
        np.testing.assert_array_equal(theta, fit_stage(stage, y, filt, lam))
        # The oracle differences estimates in feature space, so a gap at the
        # round-off level of the estimates carries no relative accuracy.
        np.testing.assert_allclose(rep.diff_norms, gaps, rtol=1e-10, atol=1e-13 * scale)
        np.testing.assert_allclose(rep.thresholds, taus, rtol=1e-10, atol=0)


def small_env_dataset(n=400, seed=0, noise=0.3):
    spec = EnvSpec(n_users=40, n_actions=12, d_video=4, d_user=3, d_action=4,
                   horizon=3, noise_sd=noise)
    env = make_env(spec, seed=seed)
    ds, truth = generate_trajectories(env, n, seed=seed)
    return ds, truth


class TestTrain:
    def test_horizon_one_equals_single_stage_selection(self):
        ds, _ = small_env_dataset(n=60, seed=1)
        one = BatchDataset.from_states(states=ds.states[:, :1], actions=ds.actions[:, :1],
                                       rewards=ds.rewards[:, :1], action_table=ds.action_table,
                                       reward_bound=ds.reward_bound)
        cfg = default_config("tikhonov", reward_bound=one.reward_bound, budget=30)
        bundle, reports = train(one, "tikhonov", cfg)
        # the selection on the stage's design rows, which sum Sigma_hat and the
        # moment in another order than the stage train fits
        stage = design_stage(reference_design(one, 1))
        targets = stage_targets(stage_spectra(one), 1, np.zeros(one.feature_dim))[0]
        lam, theta, rep = select_lambda(stage, targets, default_filter("tikhonov"), 1, 1, 0.0,
                                        cfg)
        got = bundle.stages[0]
        assert (got.lambda_selected, got.k_selected) == (lam, rep.selected_k)
        assert np.max(np.abs(got.theta - theta)) <= DESIGN_RTOL * np.max(np.abs(theta))

    def test_deterministic(self):
        ds, _ = small_env_dataset(n=80, seed=2)
        cfg = default_config("cutoff", reward_bound=ds.reward_bound, budget=40)
        b1, _ = train(ds, "cutoff", cfg)
        b2, _ = train(ds, "cutoff", cfg)
        for s1, s2 in zip(b1.stages, b2.stages):
            np.testing.assert_array_equal(s1.theta, s2.theta)
            assert s1.lambda_selected == s2.lambda_selected

    def test_beats_zero_model_on_well_conditioned_env(self):
        ds, truth = small_env_dataset(n=800, seed=3)
        cfg = default_config("tikhonov", reward_bound=ds.reward_bound)
        bundle, _ = train(ds, "tikhonov", cfg)
        gap = parameter_gap(bundle.theta_matrix(), truth.theta_star[:-1])
        zero_gap = parameter_gap(np.zeros_like(truth.theta_star[:-1]), truth.theta_star[:-1])
        assert np.isfinite(gap)
        assert gap < zero_gap

    def test_singleton_grid_tikhonov_equals_ridge_backward_induction(self):
        ds, _ = small_env_dataset(n=150, seed=4)
        lam = 0.05
        cfg = default_config("tikhonov", reward_bound=ds.reward_bound,
                             budget=1, q0=lam / 0.9, c_ada=0.0)
        bundle, _ = train(ds, "tikhonov", cfg)

        # independent dense-solve ridge backward induction
        horizon, d = ds.horizon, ds.feature_dim
        theta_next = np.zeros(d)
        ridge = [None] * horizon
        spectra = stage_spectra(ds)
        for t in range(horizon, 0, -1):
            rows = reference_design(ds, t)
            y = stage_targets(spectra, t, theta_next)[0]
            n = len(ds)
            cov = rows.T @ rows / n
            theta_next = np.linalg.solve(cov + lam * np.eye(d), rows.T @ y / n)
            ridge[t - 1] = theta_next
        for s, want in zip(bundle.stages, ridge):
            assert s.lambda_selected == pytest.approx(lam)
            assert np.linalg.norm(s.theta - want) / np.linalg.norm(want) < 1e-8

    def test_target_boundedness(self):
        ds, _ = small_env_dataset(n=100, seed=5)
        cfg = default_config("gradient-descent", reward_bound=ds.reward_bound, budget=40)
        bundle, _ = train(ds, "gradient-descent", cfg)
        spectra = stage_spectra(ds)
        for t in range(ds.horizon, 0, -1):
            theta_next = bundle.theta(t + 1)
            y, phi = stage_targets(spectra, t, theta_next)
            bound = ds.reward_bound + phi
            assert np.max(np.abs(y)) <= bound + 1e-9

    # horizon 3: a stage report each for the spectral filters, none for baselines
    @pytest.mark.parametrize("method,n_reports", [
        ("ls", 0), ("lasso", 0), ("tikhonov", 3), ("gradient-descent", 3), ("cutoff", 3)])
    def test_scores_candidates_once_per_stage(self, monkeypatch, method, n_reports):
        import sblq.learner as learner_mod
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return candidate_scores(*args, **kwargs)

        monkeypatch.setattr(learner_mod, "candidate_scores", counting)
        ds, _ = small_env_dataset(n=60, seed=8)
        bundle, reports = train(ds, method, seed=2)
        assert len(calls) == ds.horizon - 1
        assert len(reports) == n_reports
        assert bundle.filter_kind == method and bundle.seed == 2

    def test_baseline_rejects_adaptive_config(self):
        ds, _ = small_env_dataset(n=40, seed=9)
        with pytest.raises(ValueError, match="ls"):
            train(ds, "ls", AdaptiveConfig())


@pytest.fixture(scope="module")
def a2_world():
    return build_world(A2_ENV, 0, 200, 0.5)


class TestStageSpectra:
    @pytest.mark.parametrize("masked", [False, True])
    def test_shared_spectra_give_the_bytes_of_own_spectra(self, a2_world, masked):
        ds = a2_world.train
        mask = None
        if masked:
            mask = np.ones(ds.feature_dim)
            mask[::3] = 0.0
        shared = stage_spectra(ds, mask) if masked else a2_world.spectra
        for method in METHODS:
            own = train(ds, method, seed=3,
                        spectra=stage_spectra(ds, mask) if masked else None)
            got = train(ds, method, seed=3, spectra=shared)
            assert model_json_text(got[0]) == model_json_text(own[0])
            assert _trace_text(got[1]) == _trace_text(own[1])
            assert (got[0].feature_mask is None) == (not masked)

    def test_stages_are_the_stage_designs_decomposed(self, a2_world):
        # a masked stage stands for the kept columns of the masked design,
        # whose other columns are exactly 0, and holds the eigensystem of
        # their Sigma_hat; it forms both by sums in another order than the
        # design's, so they agree to round-off
        ds = a2_world.train
        mask = np.ones(ds.feature_dim)
        mask[1] = 0.0
        for spectra in (a2_world.spectra, stage_spectra(ds, mask)):
            kept = np.ones(ds.feature_dim, bool) if spectra.mask is None else mask != 0.0
            assert spectra.dataset is ds and len(spectra.stages) == ds.horizon
            for t, stage in enumerate(spectra.stages, start=1):
                design = reference_design(ds, t, mask=spectra.mask)
                assert not np.any(design[:, ~kept])
                rows = design[:, kept]
                assert within(stage_rows(stage), rows, np.max(np.abs(rows)))
                assert not any(arr.flags.writeable for arr in (
                    stage.states, stage.table, stage.state_of, stage.action, stage.scale))
                assert stage.n == len(ds) and stage.feature_dim == ds.feature_dim
                want = decompose(covariance(rows)).eigenvalues
                # Weyl's bound on the gap between the two Sigma_hat, plus eigh's
                # backward error of some d ulps of sigma_max on each
                gap = np.max(np.abs(stage.decomp.eigenvalues - want))
                assert gap <= 1e-13 * want[-1]

    def test_spectra_of_another_dataset_rejected(self, a2_world):
        with pytest.raises(ValueError, match="different dataset"):
            train(a2_world.eval, "tikhonov", spectra=a2_world.spectra)

    def test_world_and_its_cells_decompose_each_stage_once(self, monkeypatch):
        import sblq.learner as learner_mod
        built = []

        def counting(*args):
            built.append(1)
            return stage_of(*args)

        monkeypatch.setattr(learner_mod, "stage_of", counting)
        world = build_world(A2_ENV, 1, 100, 0.5)
        for method in METHODS:
            method_cell(world, method, 1)
        assert len(built) == world.train.horizon

    def test_threads_sharing_spectra_match_serial(self, a2_world):
        # a library caller may train a world's methods on threads that share
        # its spectra (compare itself runs serially): more threads than cores,
        # switching often, must give the serial bytes
        tasks = list(METHODS) * 2

        def cell_text(method):
            return model_json_text(method_cell(a2_world, method, 4).bundle)

        serial = [cell_text(m) for m in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2 * (os.cpu_count() or 1) + 2) as pool:
                threaded = list(pool.map(cell_text, tasks, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


# A stage's Sigma_hat, moments and candidate scores are sums over its
# distinct states that the design path takes over its rows; both round, and
# they agree to this bound relative to the largest term.
STAGE_RTOL = 1e-14


def within(got, want, scale) -> bool:
    return bool(np.max(np.abs(np.asarray(got) - want), initial=0.0) <= STAGE_RTOL * scale)


def spectra_and_covariances(ds, mask=None):
    """``stage_spectra(ds, mask)`` and the Sigma_hat each of its stages decomposed."""
    import sblq.learner as learner_mod
    seen = []

    def spy(matrix):
        seen.append(np.array(matrix))
        return decompose(matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learner_mod, "decompose", spy)
        spectra = stage_spectra(ds, mask)
    return spectra, seen


def property_dataset(source, seed, n, normalize):
    """A generated a1 or a2 dataset, whose states repeat, or one whose every
    state is its own row (``from_states``), on the feature map ``normalize``."""
    if source == "from_states":
        ds = make_dataset(n=n, horizon=3, seed=seed)
    else:
        ds, _ = generate_trajectories(make_env(A1_ENV if source == "a1" else A2_ENV, seed),
                                      n, seed=seed)
    return BatchDataset(ds.state_rows, ds.state_index, ds.actions, ds.rewards,
                        ds.action_table, ds.reward_bound, normalize)


class TestStageIsItsDesign:
    @settings(max_examples=40, deadline=None)
    @given(source=st.sampled_from(["a1", "a2", "from_states"]), seed=st.integers(0, 10_000),
           n=st.integers(1, 120), normalize=st.booleans(), masked=st.booleans(),
           data=st.data())
    def test_stage_equals_the_design_path(self, source, seed, n, normalize, masked, data):
        ds = property_dataset(source, seed, n, normalize)
        d = ds.feature_dim
        mask = None
        if masked:
            mask = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=d,
                                               max_size=d).filter(any)))
        kept = np.ones(d, bool) if mask is None else mask != 0.0
        try:
            designs = [reference_design(ds, t, mask=mask)[:, kept]
                       for t in range(1, ds.horizon + 1)]
        except ValueError:  # the mask leaves a row all zero: both paths refuse it
            with pytest.raises(ValueError, match="all-zero"):
                stage_spectra(ds, mask)
            return
        spectra, covs = spectra_and_covariances(ds, mask)
        rng = np.random.default_rng(seed)
        for t, (stage, cov, rows) in enumerate(zip(spectra.stages, covs, designs), start=1):
            want = covariance(rows)
            assert np.array_equal(cov, cov.T)
            assert within(cov, want, np.max(np.abs(want)))
            y = rng.standard_normal(n)
            moment = rows.T @ y / n
            assert within(stage.coords(y), stage.decomp.eigenvectors.T @ moment,
                          np.linalg.norm(moment))
            if t < ds.horizon:
                theta = rng.standard_normal(d)
                got_y, got_phi = stage_targets(spectra, t, theta)
                scores = candidate_scores(ds.stage_states(t + 1), ds.action_table, theta,
                                          normalize=ds.normalize, mask=mask)
                scale = np.max(np.abs(scores))
                assert within(got_y, ds.rewards[:, t - 1] + scores.max(axis=0), scale)
                assert within(got_phi, scale, scale)

    def test_rank_deficient_a1_stage(self):
        # 100 a1 trajectories: the stage-1 design has rank 62 of 72
        ds, _ = generate_trajectories(make_env(A1_ENV, 0), 100, seed=0)
        spectra, covs = spectra_and_covariances(ds)
        rows = reference_design(ds, 1)
        assert np.linalg.matrix_rank(rows) == 62
        want = covariance(rows)
        assert np.array_equal(covs[0], covs[0].T) and within(covs[0], want, np.max(np.abs(want)))
        stage, bare = spectra.stages[0], design_stage(rows)
        theta_next = np.random.default_rng(1).standard_normal(ds.feature_dim) / 4.0
        y = stage_targets(spectra, 1, theta_next)[0]
        for kind in ("tikhonov", "gradient-descent", "cutoff"):
            cfg = default_config(kind, ds.reward_bound)
            got = select_lambda(stage, y, default_filter(kind), 1, ds.horizon, 0.5, cfg)
            ref = select_lambda(bare, y, default_filter(kind), 1, ds.horizon, 0.5, cfg)
            assert (got[0], got[2].selected_k) == (ref[0], ref[2].selected_k), kind
            assert np.max(np.abs(got[1] - ref[1])) <= DESIGN_RTOL * np.max(np.abs(ref[1]))
        # least squares keeps every eigenvalue down to 1e-10 sigma_max, whose
        # 1/sigma scales the round-off up by the kept condition number
        got, ref = least_squares_stage(stage, y), least_squares_stage(bare, y)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_unnormalized_large_features_train(self):
        # repeated states with 1e4-scale features: Sigma_hat entries near 1e8,
        # where decompose takes only an exactly symmetric matrix (a state block
        # formed as (states^T * counts) @ states is off by 4e-9 here)
        base, _ = generate_trajectories(make_env(A2_ENV, 0), 100, seed=0)
        ds = BatchDataset(base.state_rows * 1e4, base.state_index, base.actions, base.rewards,
                          base.action_table * 1e4, base.reward_bound, normalize=False)
        spectra, covs = spectra_and_covariances(ds)
        assert np.max(np.abs(covs[0])) > 1e7
        assert all(np.array_equal(cov, cov.T) for cov in covs)
        for method in ("tikhonov", "cutoff", "ls"):
            bundle, _ = train(ds, method, spectra=spectra)
            assert np.all(np.isfinite(bundle.theta_matrix())), method

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("method", ["tikhonov", "gradient-descent", "cutoff", "ls", "lasso"])
    def test_train_builds_no_design(self, method, masked):
        # 4,000 a1 trajectories hold at most 300 distinct states, so their
        # (n, k) design takes at least 1.5 MB and a train that built it
        # would allocate more than half of that; lasso's path holds d x d
        # arrays, its Gram and moment, not rows
        ds, _ = generate_trajectories(make_env(A1_ENV, 0), 4000, seed=0)
        mask = None
        if masked:
            mask = np.ones(ds.feature_dim)
            mask[::3] = 0.0
        spectra = stage_spectra(ds, mask)
        kept = ds.feature_dim if mask is None else int(mask.sum())
        tracemalloc.start()
        try:
            train(ds, method, spectra=spectra, lasso_grid=[1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(ds) * kept * 8 / 2
        for stage in spectra.stages:
            for value in vars(stage).values():
                assert not (isinstance(value, np.ndarray) and value.ndim == 2
                            and len(value) == len(ds))


def full_matrix_spectra(ds, mask):
    """Stage spectra as built on all d columns of each stage, the excluded
    state and action columns set to exactly 0, and so the excluded rows and
    columns of Sigma_hat."""
    rows, table = ds.state_rows * mask[:ds.state_dim], ds.action_table * mask[ds.state_dim:]
    return StageSpectra(ds, mask, tuple(
        stage_of(rows, None, ds.state_index[:, t - 1], table, ds.actions[:, t - 1],
                 ds.normalize)
        for t in range(1, ds.horizon + 1)))


class TestMaskedStages:
    @pytest.mark.parametrize("method", METHODS)
    def test_masked_fit_is_the_full_matrix_fit_with_exact_zeros(self, a2_world, method):
        ds = a2_world.train
        mask = np.ones(ds.feature_dim)
        mask[::3] = 0.0
        kept = mask != 0.0
        got, _ = train(ds, method, seed=3, spectra=stage_spectra(ds, mask))
        want, _ = train(ds, method, seed=3, spectra=full_matrix_spectra(ds, mask))
        for g, w in zip(got.stages, want.stages):
            assert not np.any(g.theta[~kept])
            assert (g.lambda_selected, g.k_selected) == (w.lambda_selected, w.k_selected)
            # relative to the stage's largest kept coefficient
            gap = np.max(np.abs(g.theta[kept] - w.theta[kept]))
            assert gap <= 1e-12 * np.max(np.abs(w.theta[kept]))

    def test_masked_stages_keep_the_datasets_dimension_in_the_threshold(self, a2_world,
                                                                        monkeypatch):
        import sblq.learner as learner_mod
        ds = a2_world.train
        mask = np.ones(ds.feature_dim)
        mask[::3] = 0.0
        seen = []

        def spy(n, d, cfg):
            seen.append(d)
            return dimension_adjusted_sample_size(n, d, cfg)

        monkeypatch.setattr(learner_mod, "dimension_adjusted_sample_size", spy)
        cfg = default_config("tikhonov", ds.reward_bound, c0=0.5)
        spectra = stage_spectra(ds, mask)
        assert all(stage.states.shape[1] + stage.table.shape[1] == np.count_nonzero(mask)
                   for stage in spectra.stages)
        got, _ = train(ds, "tikhonov", cfg, spectra=spectra)
        assert seen == [ds.feature_dim] * ds.horizon
        want, _ = train(ds, "tikhonov", cfg, spectra=full_matrix_spectra(ds, mask))
        assert ([(s.lambda_selected, s.k_selected) for s in got.stages]
                == [(s.lambda_selected, s.k_selected) for s in want.stages])

    def test_error_decomposition_of_a_masked_stage_is_the_full_matrix_one(self, a2_world):
        ds = a2_world.train
        mask = np.ones(ds.feature_dim)
        mask[::3] = 0.0
        rng = np.random.default_rng(5)
        ys = [ds.rewards[:, 0] + 0.1 * rng.standard_normal(len(ds)) for _ in range(3)]
        theta_star = rng.standard_normal(ds.feature_dim)
        args = (*ys, 0.05, default_filter("tikhonov"), theta_star, np.eye(ds.feature_dim))
        got = error_decomposition(stage_spectra(ds, mask).stages[0], *args)
        want = error_decomposition(full_matrix_spectra(ds, mask).stages[0], *args)
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_mask_rejected(self, a2_world):
        with pytest.raises(ValueError, match="keeps no feature"):
            stage_spectra(a2_world.train, np.zeros(a2_world.train.feature_dim))


def least_squares(rows, y):
    """The ls stage fit as train runs it on the design ``rows``."""
    return least_squares_stage(design_stage(rows), y)


def least_squares_stage(stage, y):
    """The ls stage fit as train runs it: cut-off at 1e-10 sigma_max."""
    s_max = stage.decomp.eigenvalues[-1]
    return fit_stage(stage, y, default_filter("cutoff"), 1e-10 * (s_max if s_max > 0 else 1.0))


def one_stage_dataset(rows, y):
    """Horizon-1 unnormalized dataset whose stage rows are ``rows`` followed by
    one all-zero action column, with rewards ``y``."""
    return BatchDataset.from_states(states=rows[:, None, :],
                                    actions=np.zeros((len(rows), 1), dtype=np.int64),
                                    rewards=y[:, None], action_table=np.zeros((1, 1)),
                                    reward_bound=float(np.max(np.abs(y))) + 1.0, normalize=False)


def lasso_case(seed, n, d, rank, design, duplicate, integer_y):
    """The lasso inputs (1/n) X^T X and (1/n) X^T y of a seeded degenerate
    (n, d) design: X = A B of rank at most min(n, rank) with a zero column
    ("low-rank"), one-hot rows, which leave the columns no row picks at zero,
    or small integers, which tie correlations exactly; ``duplicate`` repeats
    or negates one column, and ``integer_y`` draws small-integer outcomes."""
    rng = np.random.default_rng(seed)
    if design == "low-rank":
        rows = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
        rows[:, rng.integers(d)] = 0.0
    elif design == "one-hot":
        rows = np.eye(d)[rng.integers(d, size=n)]
    else:
        rows = rng.integers(-2, 3, size=(n, d)).astype(float)
    if duplicate:
        rows[:, rng.integers(d)] = rng.choice([1.0, -1.0]) * rows[:, rng.integers(d)]
    y = rng.integers(-2, 3, size=n).astype(float) if integer_y else rng.standard_normal(n)
    return gram_and_moment(rows, y)


class TestBaselines:
    def test_ls_exact_line_in_one_dimension(self):
        rows = np.array([[1.0], [2.0]])
        theta = least_squares(rows, np.array([3.0, 6.0]))
        assert theta[0] == pytest.approx(3.0)

    def test_ls_matches_normal_equations(self, rng):
        rows = rng.standard_normal((50, 6))
        y = rng.standard_normal(50)
        got = least_squares(rows, y)
        cov = rows.T @ rows / 50
        want = np.linalg.solve(cov, rows.T @ y / 50)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    def test_ls_zero_design_gives_zero(self):
        rows = np.zeros((4, 3))
        np.testing.assert_array_equal(least_squares(rows, np.ones(4)), np.zeros(3))

    def test_ls_rank_deficient_matches_pseudo_inverse(self, rng):
        # 6 distinct rows repeated over 90 observations in 10 dimensions
        pool = rng.standard_normal((6, 10))
        rows = pool[rng.integers(6, size=90)]
        y = rows @ rng.standard_normal(10) + 0.1 * rng.standard_normal(90)
        ds = one_stage_dataset(rows, y)
        theta = train(ds, "ls")[0].stages[0].theta
        features = reference_design(ds, 1)
        assert np.linalg.matrix_rank(features) == 6
        want = np.linalg.pinv(features) @ y
        assert np.linalg.norm(theta - want) / np.linalg.norm(want) < 1e-8

    def test_ls_keeps_eigenvalue_at_floor(self):
        # Sigma_hat = diag(1e10, 1, 0) * 2^-35 exactly: the middle eigenvalue
        # equals the floor 1e-10 * sigma_max, and the cutoff filter keeps
        # sigma >= lambda, so that direction is solved, not dropped.
        a = 2.0 ** -17
        rows = np.array([[1e5 * a, 0.0], [0.0, a]])
        y = np.array([0.5, -0.25])
        theta = train(one_stage_dataset(rows, y), "ls")[0].stages[0].theta
        np.testing.assert_allclose(theta, [y[0] / rows[0, 0], y[1] / a, 0.0], rtol=1e-12)

    def test_lasso_zero_penalty_matches_ls(self, rng):
        rows = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        theta = lasso_path(*gram_and_moment(rows, y), [0.0])[0]
        want = least_squares(rows, y)
        np.testing.assert_allclose(theta, want, rtol=1e-12)

    def test_lasso_kill_condition(self, rng):
        # theta = 0 from lam = 2 max |m| up, where the path starts
        rows = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        top = 2.0 * np.max(np.abs(rows.T @ y / 30))
        path = lasso_path(*gram_and_moment(rows, y), [top + 1e-9, top, 10.0 * top])
        np.testing.assert_array_equal(path, np.zeros((3, 5)))

    def test_lasso_orthonormal_soft_threshold(self, rng):
        n, d = 32, 4
        q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        rows = q  # orthonormal columns: X^T X = I
        y = rng.standard_normal(n)
        lams = [0.05, 0.01]
        path = lasso_path(*gram_and_moment(rows, y), lams)
        # closed-form soft-threshold oracle under (1/n)||y - X theta||^2 + lam |theta|_1
        ols = rows.T @ y
        for lam, theta in zip(lams, path):
            want = np.sign(ols) * np.maximum(np.abs(ols) - n * lam / 2, 0.0)
            np.testing.assert_allclose(theta, want, rtol=1e-12, atol=1e-15)

    @settings(max_examples=500, deadline=None)
    # ties in integer designs: a coefficient that is 0 in exact arithmetic
    # and comes out of the solve with the wrong sign, and a column that
    # leaves and would rejoin at once where it left
    @example(seed=2592159685, n=3, d=5, rank=4, design="integer", duplicate=True,
             integer_y=True, log_lams=[-2.999054392141476])
    @example(seed=1540993215, n=4, d=8, rank=7, design="integer", duplicate=True,
             integer_y=True, log_lams=[])
    # a column whose residual against the support is 8.1e-11 of its
    # diagonal: nearly collinear, but not in their span
    @example(seed=2331754800, n=6, d=6, rank=4, design="low-rank", duplicate=True,
             integer_y=False, log_lams=[])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), d=st.integers(1, 8),
           rank=st.integers(1, 8), design=st.sampled_from(["low-rank", "one-hot", "integer"]),
           duplicate=st.booleans(), integer_y=st.booleans(),
           log_lams=st.lists(st.floats(-4.0, 0.0), max_size=6))
    def test_lasso_path_meets_kkt_at_every_penalty(self, seed, n, d, rank, design, duplicate,
                                                   integer_y, log_lams):
        # Sigma_hat is singular on most of these designs, so the minimizer of
        # theta^T G theta - 2 m^T theta + lam ||theta||_1 need not be unique;
        # every theta of the path meets the KKT conditions: m - G theta is
        # lam/2 sign(theta_j) on the support and at most lam/2 off it.  Each
        # path runs down to penalty 0 and starts above 2 max |m|, where
        # theta = 0.
        gram, moment = lasso_case(seed, n, d, rank, design, duplicate, integer_y)
        top = 2.0 * np.max(np.abs(moment))
        lams = [10.0 ** v for v in log_lams] + [0.0, top, 3.0 * top + 1.0]
        path = lasso_path(gram, moment, lams)
        assert path.shape == (len(lams), d)
        assert not np.any(path[-2:])
        # the round-off of m - G theta, relative to its terms
        slack = 1e-12 * (np.max(np.abs(moment)) + np.max(np.abs(gram)) * np.max(np.abs(path)))
        for lam, theta in zip(lams, path):
            grad = moment - gram @ theta
            support = theta != 0.0
            assert np.all(np.abs(grad[~support]) <= lam / 2 + slack)
            assert np.all(np.abs(grad[support] - lam / 2 * np.sign(theta[support])) <= slack)

    def test_lasso_negative_penalty_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lasso_path(np.eye(2), np.ones(2), [0.1, -0.1])

    def test_baseline_ls_horizon_one(self):
        ds, _ = small_env_dataset(n=50, seed=6)
        one = BatchDataset.from_states(states=ds.states[:, :1], actions=ds.actions[:, :1],
                                       rewards=ds.rewards[:, :1], action_table=ds.action_table,
                                       reward_bound=ds.reward_bound)
        bundle, reports = train(one, "ls")
        assert reports == []
        rows = reference_design(one, 1)
        want = least_squares(rows, stage_targets(stage_spectra(one), 1,
                                                 np.zeros(one.feature_dim))[0])
        np.testing.assert_allclose(bundle.stages[0].theta, want, atol=1e-12)

    def test_baseline_lasso_singleton_grid(self):
        ds, _ = small_env_dataset(n=60, seed=7)
        lam = 0.03
        bundle, reports = train(ds, "lasso", seed=1, lasso_grid=[lam])
        assert reports == []
        theta_next = np.zeros(ds.feature_dim)
        spectra = stage_spectra(ds)
        for t in range(ds.horizon, 0, -1):
            rows = reference_design(ds, t)
            y = stage_targets(spectra, t, theta_next)[0]
            want = lasso_path(*gram_and_moment(rows, y), [lam])[0]
            np.testing.assert_allclose(bundle.stages[t - 1].theta, want, atol=1e-12)
            theta_next = want

    def test_ls_recovers_truth_on_noise_free_data(self):
        spec = EnvSpec(n_users=60, n_actions=15, d_video=3, d_user=3, d_action=3,
                       horizon=3, noise_sd=0.0, reward_low=-1e-9, reward_high=1e-9)
        env = make_env(spec, seed=9)
        ds, truth = generate_trajectories(env, 2000, seed=9)
        bundle, _ = train(ds, "ls")
        for t in range(1, 4):
            err = np.linalg.norm(bundle.theta(t) - truth.theta_star[t - 1])
            assert err < 1e-3


def reference_lasso(rows, targets, grid, seed):
    """Lasso's stage fit on the (n, k) ``rows`` themselves: the grid's path on
    the trajectories a ``seed`` split keeps, the penalty of least validation
    RMSE (the first on a tie), and the refit on all rows; returns (theta,
    penalty)."""
    n = len(rows)
    perm = np.random.default_rng(seed).permutation(n)
    val, kept = np.sort(perm[:lasso_holdout(n)]), np.sort(perm[lasso_holdout(n):])
    path = lasso_path(*gram_and_moment(rows[kept], targets[kept]), grid)
    rmse = [np.sqrt(np.mean((rows[val] @ theta - targets[val]) ** 2)) for theta in path]
    best = grid[int(np.argmin(rmse))]
    return lasso_path(*gram_and_moment(rows, targets), [best])[0], best


class TestLassoFromStage:
    @pytest.mark.parametrize("case", ["unmasked", "masked", "unnormalized"])
    def test_fitter_on_stage_parts_equals_lasso_path_on_reference_rows(self, case):
        # the stage's Gram and moment sum the rows' terms in another order,
        # so the fits agree to round-off, and each stage picks the same penalty
        base, _ = generate_trajectories(make_env(A2_ENV, 0), 100, seed=0)
        ds = BatchDataset(base.state_rows, base.state_index, base.actions, base.rewards,
                          base.action_table, base.reward_bound, case != "unnormalized")
        mask = None
        if case == "masked":
            mask = np.ones(ds.feature_dim)
            mask[::3] = 0.0
        spectra = stage_spectra(ds, mask)
        kept = np.ones(ds.feature_dim, bool) if mask is None else mask != 0.0
        grid = list(DEFAULT_LASSO_GRID)
        fit = _lasso_fitter(spectra, grid, seed=3)
        theta_next, supports = np.zeros(ds.feature_dim), []
        for t in range(ds.horizon, 0, -1):  # the backward induction, on the reference fits
            stage = spectra.stages[t - 1]
            targets, phi = stage_targets(spectra, t, theta_next)
            theta, lam, k, report = fit(t, stage, targets, phi)
            want, want_lam = reference_lasso(reference_design(ds, t, mask)[:, kept], targets,
                                             grid, seed=3)
            assert (lam, k, report) == (want_lam, grid.index(want_lam), None)
            assert np.max(np.abs(theta - want), initial=0.0) <= 1e-10 * np.max(np.abs(want))
            theta_next = stage.lift(want)
            supports.append(np.count_nonzero(want))
        assert max(supports) > 1


class TestErrorDecomposition:
    def _instance(self, seed, noise_sd=0.2, theta_shift=0.1):
        rng = np.random.default_rng(seed)
        n, d = 50, 4
        rows = rng.standard_normal((n, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        theta_star = rng.standard_normal(d)
        theta_star /= np.linalg.norm(theta_star)
        clean = rows @ theta_star
        noise = noise_sd * rng.standard_normal(n)
        y_star = clean + noise
        # observed targets built from a perturbed next-stage parameter
        y = y_star + theta_shift * (rows @ rng.standard_normal(d))
        sigma_true = np.eye(d) / d
        return rows, y, y_star, clean, theta_star, sigma_true

    def test_no_noise_exact_next_stage(self, rng):
        rows, _, _, clean, theta_star, sigma_true = self._instance(0, 0.0, 0.0)
        out = error_decomposition(design_stage(rows), clean, clean, clean, 0.1,
                                  default_filter("tikhonov"), theta_star, sigma_true)
        assert out["variance"] == pytest.approx(0.0, abs=1e-10)
        assert out["multistage"] == pytest.approx(0.0, abs=1e-10)

    def test_triangle_inequality(self):
        for seed in range(6):
            rows, y, y_star, clean, theta_star, sigma_true = self._instance(seed)
            out = error_decomposition(design_stage(rows), y, y_star, clean, 0.05,
                                      default_filter("cutoff"), theta_star, sigma_true)
            assert out["total"] <= out["bias"] + out["variance"] + out["multistage"] + 1e-10

    def test_terms_match_independent_recomputation(self):
        rows, y, y_star, clean, theta_star, sigma_true = self._instance(42)
        lam = 0.07
        filt = default_filter("tikhonov")
        out = error_decomposition(design_stage(rows), y, y_star, clean, lam, filt, theta_star,
                                  sigma_true)
        # recompute the three estimators from their definitions
        n, d = rows.shape
        cov = rows.T @ rows / n
        w, u = np.linalg.eigh(cov)
        w = np.maximum(w, 0.0)
        g = 1.0 / (w + lam)

        def estimate(targets):
            return u @ (g * (u.T @ (rows.T @ targets / n)))

        wt, ut = np.linalg.eigh(sigma_true + lam * np.eye(d))
        root = ut @ np.diag(np.sqrt(wt)) @ ut.T

        def norm(vec):
            return float(np.linalg.norm(root @ vec))

        t_obs, t_star, t_clean = estimate(y), estimate(y_star), estimate(clean)
        assert out["bias"] == pytest.approx(norm(t_clean - theta_star), abs=1e-10)
        assert out["variance"] == pytest.approx(norm(t_clean - t_star), abs=1e-10)
        assert out["multistage"] == pytest.approx(norm(t_obs - t_star), abs=1e-10)
        assert out["total"] == pytest.approx(norm(t_obs - theta_star), abs=1e-10)


class TestModelSerialization:
    def test_version_one_model_is_refused_naming_the_file(self, tmp_path):
        # version 1 carried the adaptive settings c_tilde and c0_effdim, which
        # AdaptiveConfig no longer has
        bundle, _ = train(small_env_dataset(n=40, seed=11)[0], "cutoff")
        payload = json.loads(model_json_text(bundle))
        assert payload["version"] == 3 and len(payload["config"]) == 11
        old = {**payload, "version": 1,
               "config": {**payload["config"], "c_tilde": 0.25, "c0_effdim": 1.0}}
        del old["lasso_grid"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(old))
        with pytest.raises(DataError, match=re.escape(f"{path}: field 'version' must be 3, got 1")):
            load_model(path)

    def test_version_two_model_is_refused_naming_the_file(self, tmp_path):
        # version 2 did not record lasso's penalty grid
        bundle, _ = train(small_env_dataset(n=40, seed=11)[0], "lasso", lasso_grid=[0.05])
        payload = json.loads(model_json_text(bundle))
        assert payload["lasso_grid"] == [0.05]
        del payload["lasso_grid"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**payload, "version": 2}))
        with pytest.raises(DataError, match=re.escape(f"{path}: field 'version' must be 3, got 2")):
            load_model(path)

    @pytest.mark.parametrize("method, grid, message", [
        ("lasso", None, "field 'lasso_grid' must be a penalty grid for filter 'lasso'"),
        ("cutoff", [0.1], "field 'lasso_grid' must be null for filter 'cutoff'"),
        ("ls", [0.1], "field 'lasso_grid' must be null for filter 'ls'"),
        ("lasso", [], "field 'lasso_grid' must list at least 1 item(s)"),
        ("lasso", [0.1, -1.0], "field 'lasso_grid' item 1 must be at least 0, got -1.0"),
        ("lasso", [0.1, "x"], "field 'lasso_grid' item 1 must be a finite number"),
    ])
    def test_lasso_grid_must_fit_the_filter(self, tmp_path, method, grid, message):
        bundle, _ = train(small_env_dataset(n=40, seed=11)[0], method)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**json.loads(model_json_text(bundle)), "lasso_grid": grid}))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_round_trip(self, tmp_path):
        ds, _ = small_env_dataset(n=40, seed=11)
        cfg = default_config("cutoff", reward_bound=ds.reward_bound, budget=25)
        bundle, _ = train(ds, "cutoff", cfg, seed=11)
        (tmp_path / "m.json").write_text(model_json_text(bundle))
        back = load_model(tmp_path / "m.json")
        assert back.horizon == bundle.horizon
        assert back.filter_kind == bundle.filter_kind
        assert back.seed == bundle.seed
        for s1, s2 in zip(back.stages, bundle.stages):
            np.testing.assert_array_equal(s1.theta, s2.theta)
            assert s1.lambda_selected == s2.lambda_selected
        assert back.config == bundle.config

    @settings(max_examples=60, deadline=None)
    @given(method=st.sampled_from(METHODS), masked=st.booleans(), data=st.data())
    def test_saved_bundle_loads_to_the_same_bytes(self, method, masked, data):
        horizon, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        reals = st.floats(allow_nan=False, allow_infinity=False)
        stages = tuple(
            StageModel(t=t, theta=np.array(data.draw(st.lists(reals, min_size=d, max_size=d)),
                                           dtype=float),
                       lambda_selected=data.draw(st.floats(0.0, 1e3)),
                       k_selected=data.draw(st.integers(0, 100)))
            for t in range(1, horizon + 1))
        mask = (np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=d,
                                            max_size=d)))
                if masked else None)
        grid = (tuple(data.draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4)))
                if method == "lasso" else None)
        bundle = ModelBundle(horizon=horizon, feature_dim=d, filter_kind=method, stages=stages,
                             config=default_config(method, data.draw(st.floats(0.1, 10.0))),
                             seed=data.draw(st.integers(0, 2**31 - 1)), feature_mask=mask,
                             lasso_grid=grid)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(model_json_text(bundle))
            back = load_model(path)
        assert model_json_text(back) == model_json_text(bundle)
        assert back.theta_matrix().tobytes() == bundle.theta_matrix().tobytes()
