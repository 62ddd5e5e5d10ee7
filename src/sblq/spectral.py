"""Dense symmetric eigendecomposition and spectral regularization filters.

A spectral filter g_lambda maps the eigenvalues of an empirical covariance
matrix to an approximation of its regularized inverse.  Three filters are
provided:

    tikhonov          g(sigma) = 1 / (sigma + lambda)
    cutoff            g(sigma) = 1/sigma if sigma >= lambda else 0
    gradient-descent  g(sigma) = sum_{i<p} (1 - sigma)^i,  p = max(1, ceil(1/lambda))

The gradient-descent filter is evaluated in closed form, (1 - (1-sigma)^p)/sigma,
and requires sigma <= 1; feature vectors are unit-normalized upstream so the
covariance spectrum stays inside [0, 1].

Everything here is a pure function of its inputs; decompositions and filter
specs are frozen and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import NumericError

TIKHONOV = "tikhonov"
CUTOFF = "cutoff"
GRADIENT_DESCENT = "gradient-descent"
FILTER_KINDS = (TIKHONOV, CUTOFF, GRADIENT_DESCENT)

# Tolerances used when validating decomposition inputs; the eigenvalue
# bound is scaled by max(1, largest eigenvalue) (``eigensystem``).
SYMMETRY_TOL = 1e-10
EIGENVALUE_CLAMP_TOL = 1e-12
# Largest eigenvalue the gradient-descent filter takes: 1 plus the round-off
# of a covariance of unit-norm features.
GRADIENT_DESCENT_MAX_EIGENVALUE = 1.0 + 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a symmetric PSD matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind together with its qualification constants.

    ``b`` bounds |g| <= b/lambda and |g * sigma| <= b; ``gamma_table`` maps a
    smoothness order nu to the constant gamma_nu in the residual bound
    |1 - g*sigma| * sigma^nu <= gamma_nu * lambda^nu, valid for nu <= nu_g.
    The constants are only consumed by the qualification test suite, never by
    training itself.
    """

    kind: str
    b: float
    nu_g: float
    gamma_table: Mapping[float, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if not self.b > 0:
            raise ValueError("filter constant b must be positive")
        if any(g <= 0 for g in self.gamma_table.values()):
            raise ValueError("all gamma_nu constants must be positive")
        object.__setattr__(self, "gamma_table", MappingProxyType(dict(self.gamma_table)))


# Shipped qualification constants.  Cutoff admits gamma_nu = 1 exactly at every
# order.  For gradient descent with p = max(1, ceil(1/lambda)) the residual
# (1-sigma)^p sigma^nu peaks near sigma = nu/p at roughly (nu/e)^nu lambda^nu,
# which stays below 1 for nu <= 2 but reaches ~4.69 at nu = 4; the iteration
# count p can also exceed 1/lambda by one, so |g| <= p <= 2/lambda, hence b = 2.
_DEFAULTS = {
    TIKHONOV: FilterSpec(TIKHONOV, b=1.0, nu_g=1.0, gamma_table={0.5: 1.0, 1.0: 1.0}),
    CUTOFF: FilterSpec(CUTOFF, b=1.0, nu_g=math.inf,
                       gamma_table={0.5: 1.0, 1.0: 1.0, 2.0: 1.0, 4.0: 1.0}),
    GRADIENT_DESCENT: FilterSpec(GRADIENT_DESCENT, b=2.0, nu_g=math.inf,
                                 gamma_table={0.5: 1.0, 1.0: 1.0, 2.0: 1.0, 4.0: 5.0}),
}


def default_filter(kind: str) -> FilterSpec:
    """Return the shipped FilterSpec for a filter kind."""
    try:
        return _DEFAULTS[kind]
    except KeyError:
        raise ValueError(f"unknown filter kind {kind!r}") from None


def decompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a symmetric PSD matrix.

    Rejects matrices with non-finite entries, asymmetry above 1e-10, or an
    eigenvalue below -1e-12 x max(1, largest eigenvalue), a bound relative to
    the matrix's scale once that passes 1.  Round-off negatives are clamped
    to zero.
    """
    return eigensystem(symmetrized(matrix))


def symmetrized(matrix: np.ndarray) -> np.ndarray:
    """``decompose``'s checks before its ``eigh``: the matrix, made exactly
    symmetric, once it is square, finite and symmetric to 1e-10."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must be at least 1x1")
    finite(a)
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return 0.5 * (a + a.T)


def finite(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, once its entries are all finite: the one check of
    ``symmetrized`` that a matrix built square and exactly symmetric can fail."""
    if not np.isfinite(matrix).all():
        raise NumericError("matrix contains non-finite entries")
    return matrix


def eigensystem(sym: np.ndarray) -> SpectralDecomposition:
    """``decompose`` of a finite, exactly symmetric matrix, such as
    ``symmetrized`` returns: its ``eigh``, the PSD check and the clamp."""
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    if eigenvalues[0] < -EIGENVALUE_CLAMP_TOL * max(1.0, eigenvalues[-1]):
        raise NumericError(
            f"matrix is not positive semidefinite (eigenvalue {eigenvalues[0]:.3e})"
        )
    eigenvalues = np.maximum(eigenvalues, 0.0)
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return SpectralDecomposition(eigenvalues, eigenvectors, sym.shape[0])


def filter_values(spec: FilterSpec, lam: float | np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Evaluate g_lambda on an array of nonnegative eigenvalues.

    ``lam`` may be a scalar or an array of levels; the result is indexed
    [lambda..., sigma...], so a 1-D grid of K levels over d eigenvalues gives
    a (K, d) array whose rows equal the scalar-lambda evaluations.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    s = np.asarray(sigmas, dtype=float)
    if np.any(s < 0):
        raise ValueError("eigenvalues must be nonnegative")
    lam = lam.reshape(lam.shape + (1,) * s.ndim)
    if spec.kind == TIKHONOV:
        return 1.0 / (s + lam)
    if spec.kind == CUTOFF:
        keep = s >= lam
        return np.divide(1.0, s, out=np.zeros(keep.shape), where=keep)
    if spec.kind == GRADIENT_DESCENT:
        if np.any(s > GRADIENT_DESCENT_MAX_EIGENVALUE):
            raise ValueError("gradient-descent filter requires eigenvalues <= 1")
        s = np.minimum(s, 1.0)  # absorb round-off from unit-norm features
        p = np.maximum(1.0, np.ceil(1.0 / lam))  # iteration count per level
        inner = (s > 0) & (s < 1)
        si = np.where(inner, s, 0.5)
        # (1 - (1-sigma)^p) / sigma via expm1/log1p to avoid cancellation.
        closed = -np.expm1(p * np.log1p(-si)) / si
        return np.where(inner, closed, np.where(s >= 1.0, 1.0, p))
    raise ValueError(f"unknown filter kind {spec.kind!r}")


def empirical_effective_dimension(decomp: SpectralDecomposition, lam: float | np.ndarray):
    """Tr(Sigma (Sigma + lambda I)^-1) on the stored spectrum, per level lambda."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    s = decomp.eigenvalues
    return np.sum(s / (s + lam[..., None]), axis=-1)


def weighted_half_norm(decomp: SpectralDecomposition, lam: float, v: np.ndarray) -> float:
    """The norm ||(Sigma + lambda I)^{1/2} v||_2; lambda may be zero."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    v = np.asarray(v, dtype=float)
    if v.shape != (decomp.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({decomp.dim},)")
    coords = decomp.eigenvectors.T @ v
    return float(np.sqrt(np.sum((decomp.eigenvalues + lam) * coords**2)))
