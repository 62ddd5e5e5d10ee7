import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sblq.errors import NumericError
from sblq.spectral import (
    FilterSpec,
    decompose,
    default_filter,
    empirical_effective_dimension,
    filter_values,
    spectral_system,
    weighted_half_norm,
)


def filter_value(spec, lam, sigma):
    """g_lambda(sigma) at one eigenvalue, through ``filter_values``."""
    return float(filter_values(spec, lam, np.array([sigma]))[0])


def filtered_solve(decomp, spec, lam, v):
    """g_lambda(Sigma) v through the spectral system of v."""
    return spectral_system(decomp, v).estimate(filter_values(spec, lam, decomp.eigenvalues))


class TestDecompose:
    def test_identity(self):
        d = decompose(np.eye(3))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(d.eigenvectors @ d.eigenvectors.T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        d = decompose(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 2.0])
        # axis-aligned eigenvectors, up to sign; column j pairs with eigenvalue j
        np.testing.assert_allclose(np.abs(d.eigenvectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_reconstruction_random_psd(self, rng):
        b = rng.standard_normal((6, 6))
        a = b @ b.T
        d = decompose(a)
        u = d.eigenvectors
        err = np.linalg.norm((u * d.eigenvalues) @ u.T - a) / np.linalg.norm(a)
        assert err < 1e-10
        ortho = np.max(np.abs(d.eigenvectors.T @ d.eigenvectors - np.eye(6)))
        assert ortho < 1e-10

    def test_roundoff_negatives_clamped(self):
        d = decompose(np.diag([0.0, 1.0]) - 1e-14 * np.ones((2, 2)))
        assert d.eigenvalues[0] == 0.0

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            decompose(m)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_truly_negative_rejected(self):
        with pytest.raises(NumericError):
            decompose(np.diag([-0.5, 1.0]))


class TestFilterValue:
    def test_tikhonov_table_row(self):
        assert filter_value(default_filter("tikhonov"), 1.0, 1.0) == pytest.approx(0.5)

    def test_cutoff_below_threshold(self):
        assert filter_value(default_filter("cutoff"), 0.3, 0.2) == 0.0

    def test_cutoff_above_threshold(self):
        assert filter_value(default_filter("cutoff"), 0.3, 0.5) == pytest.approx(2.0)

    def test_gradient_descent_two_steps(self):
        # lambda = 0.5 -> p = 2, g(0.5) = 1 + (1 - 0.5) = 1.5
        assert filter_value(default_filter("gradient-descent"), 0.5, 0.0) == 2.0
        assert filter_value(default_filter("gradient-descent"), 0.5, 0.5) == pytest.approx(1.5)

    @pytest.mark.parametrize("lam", [1e-3, 0.03, 0.2, 0.25, 1 / 3, 0.5, 0.77, 1.0, 2.0, 40.0])
    def test_gradient_descent_step_rule(self, lam):
        # g(0) is the iteration count p = max(1, ceil(1/lambda))
        p = max(1, math.ceil(1.0 / lam))
        assert filter_value(default_filter("gradient-descent"), lam, 0.0) == p

    def test_gradient_descent_at_zero_returns_p(self):
        spec = default_filter("gradient-descent")
        assert filter_value(spec, 0.25, 0.0) == pytest.approx(4.0)

    def test_gradient_descent_matches_series(self, rng):
        spec = default_filter("gradient-descent")
        for lam in (0.03, 0.2, 0.77):
            p = max(1, math.ceil(1.0 / lam))
            for sigma in rng.uniform(0.0, 1.0, size=8):
                series = sum((1.0 - sigma) ** i for i in range(p))
                assert filter_value(spec, lam, sigma) == pytest.approx(series, rel=1e-10)

    def test_gradient_descent_rejects_sigma_above_one(self):
        with pytest.raises(ValueError):
            filter_value(default_filter("gradient-descent"), 0.5, 1.5)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            filter_value(default_filter("tikhonov"), 0.0, 0.5)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec(kind="spline", b=1.0, nu_g=1.0)

    def test_shrinkage_on_smallest_kept_eigenvalue(self):
        # Acceptance criterion 6 compares only the filters that shrink the
        # directions they keep; cut-off leaves them unshrunk.  If this
        # changes, that criterion's scope needs review.
        lambdas = np.geomspace(1e-4, 0.5, 60)
        cut, tik, gd = (
            np.array([filter_value(default_filter(kind), lam, lam) * lam for lam in lambdas])
            for kind in ("cutoff", "tikhonov", "gradient-descent")
        )
        np.testing.assert_allclose(cut, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tik, 0.5, rtol=0, atol=1e-12)
        assert np.all(gd < 0.9)


class TestApplyFilter:
    def test_identity_tikhonov(self):
        d = decompose(np.eye(2))
        out = filtered_solve(d, default_filter("tikhonov"), 1.0, np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_zero_vector(self, rng):
        d = decompose(np.eye(4))
        out = filtered_solve(d, default_filter("cutoff"), 0.5, np.zeros(4))
        np.testing.assert_allclose(out, np.zeros(4))

    def test_cutoff_below_spectrum_is_exact_solve(self, rng):
        b = rng.standard_normal((8, 5))
        sigma = b.T @ b / 8 + 0.1 * np.eye(5)
        d = decompose(sigma)
        lam = 0.5 * d.eigenvalues[0]
        v = rng.standard_normal(5)
        got = filtered_solve(d, default_filter("cutoff"), lam, v)
        want = np.linalg.solve(sigma, v)  # dense solve oracle
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    def test_tikhonov_matches_regularized_solve(self, rng):
        for _ in range(5):
            b = rng.standard_normal((12, 10))
            sigma = b.T @ b / 12
            d = decompose(sigma)
            lam = 0.3
            v = rng.standard_normal(10)
            got = filtered_solve(d, default_filter("tikhonov"), lam, v)
            want = np.linalg.solve(sigma + lam * np.eye(10), v)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    def test_shape_mismatch(self):
        d = decompose(np.eye(3))
        with pytest.raises(ValueError):
            filtered_solve(d, default_filter("tikhonov"), 1.0, np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 100))
    def test_linearity(self, a, b, seed):
        r = np.random.default_rng(seed)
        m = r.standard_normal((4, 4))
        d = decompose(m @ m.T / 4)
        spec = default_filter("tikhonov")
        v, w = r.standard_normal(4), r.standard_normal(4)
        lhs = filtered_solve(d, spec, 0.2, a * v + b * w)
        rhs = a * filtered_solve(d, spec, 0.2, v) + b * filtered_solve(d, spec, 0.2, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestEffectiveDimension:
    def test_identity(self):
        assert empirical_effective_dimension(decompose(np.eye(4)), 1.0) == pytest.approx(2.0)

    def test_zero_spectrum(self):
        assert empirical_effective_dimension(decompose(np.zeros((3, 3))), 0.7) == 0.0

    def test_matches_trace_inverse_oracle(self, rng):
        b = rng.standard_normal((9, 5))
        sigma = b.T @ b / 9
        d = decompose(sigma)
        lam = 0.1
        want = np.trace(sigma @ np.linalg.inv(sigma + lam * np.eye(5)))
        assert empirical_effective_dimension(d, lam) == pytest.approx(want, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_monotone_nonincreasing_in_lambda(self, seed):
        r = np.random.default_rng(seed)
        m = r.standard_normal((5, 5))
        d = decompose(m @ m.T / 5)
        lams = np.geomspace(10.0, 1e-4, 12)  # descending grid
        vals = [empirical_effective_dimension(d, lam) for lam in lams]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            empirical_effective_dimension(decompose(np.eye(2)), 0.0)


class TestWeightedHalfNorm:
    def test_identity_lambda_zero(self):
        d = decompose(np.eye(2))
        assert weighted_half_norm(d, 0.0, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_zero_spectrum_unit_lambda(self):
        d = decompose(np.zeros((2, 2)))
        assert weighted_half_norm(d, 1.0, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_matches_matrix_square_root_oracle(self, rng):
        b = rng.standard_normal((7, 6))
        sigma = b.T @ b / 7
        lam = 0.2
        d = decompose(sigma)
        v = rng.standard_normal(6)
        # independent square-root oracle
        w, u = np.linalg.eigh(sigma + lam * np.eye(6))
        root = u @ np.diag(np.sqrt(w)) @ u.T
        want = np.linalg.norm(root @ v)
        assert weighted_half_norm(d, lam, v) == pytest.approx(want, abs=1e-9)


def test_filter_values_vectorized_matches_scalar(rng):
    sigmas = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=20)])
    lambdas = 30.0 * 0.9 ** np.arange(1, 60)
    for kind in ("tikhonov", "cutoff", "gradient-descent"):
        spec = default_filter(kind)
        vec = filter_values(spec, 0.17, sigmas)
        for s, g in zip(sigmas, vec):
            assert filter_value(spec, 0.17, s) == pytest.approx(g, rel=1e-12, abs=1e-12)
        # a grid of levels gives one row per level, equal to the scalar-level call
        grid = filter_values(spec, lambdas, sigmas)
        assert grid.shape == (len(lambdas), len(sigmas))
        for lam, row in zip(lambdas, grid):
            np.testing.assert_array_equal(row, filter_values(spec, lam, sigmas))
