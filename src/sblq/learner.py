"""Backward-induction Q-learning with spectral-filter stage fits.

Each stage t = T..1 regresses the constructed outcome

    y_i = r_i + max_a' <theta_{t+1}, x(next state_i, a')>

on the stage features via theta = g_lambda(Sigma_hat) * mean_i(x_i y_i),
where g_lambda is a spectral filter.  The regularization level is chosen per
stage by a balancing rule: scan a geometric grid lambda_k = q0 * q^k from the
smallest grid value upward and stop at the first k where the weighted gap
between consecutive estimates reaches a variance-proxy threshold.

Least-squares and lasso baselines run the same backward induction with the
stage estimator swapped out.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import BatchDataset, candidate_scores, check, file_values, read_json, record
from .errors import ConfigError, DataError, NumericError
from .spectral import (
    CUTOFF,
    GRADIENT_DESCENT,
    GRADIENT_DESCENT_MAX_EIGENVALUE,
    FilterSpec,
    SpectralDecomposition,
    decompose,
    default_filter,
    empirical_effective_dimension,
    filter_values,
    weighted_half_norm,
)

LS = "ls"
LASSO = "lasso"
BASELINE_METHODS = (LS, LASSO)
METHODS = (LS, LASSO, "tikhonov", "gradient-descent", "cutoff")
LS_RELATIVE_FLOOR = 1e-10      # least squares keeps eigenvalues >= this * sigma_max


@dataclass(frozen=True)
class AdaptiveConfig:
    """Constants of the balancing rule and its finite-sample threshold.

    The mixing constants default to the independent-sampling collapse
    (b0 = 2, c0 = 0, gamma0 = 1), under which both effective sample sizes
    reduce to the plain count n.  ``theta_norm_hint`` stands in for the
    unknown true parameter norm inside the c1* constant and is only reachable
    when c0 > 0.
    """

    q: float = 0.9                 # grid ratio, in (0, 1)
    q0: float = 100.0              # grid anchor, lambda_k = q0 * q^k
    budget: int = 100              # grid length used by training
    c_ada: float = 1e-5            # threshold multiplier
    delta: float = 0.1             # confidence level, in (0, 0.5]
    c_x: float = 1.0               # bound on the feature norm
    reward_bound: float = 1.0      # bound M on the per-stage reward
    b0: float = 2.0
    c0: float = 0.0
    gamma0: float = 1.0
    theta_norm_hint: float = 1.0

    def __post_init__(self):
        check(vars(self), ADAPTIVE_NODE, ValueError, "adaptive configuration")


# The keys, types and ranges of an AdaptiveConfig, in a config's "adaptive"
# and in model.json's "config"
_ADAPTIVE_RANGES = {
    "q": {"exclusiveMinimum": 0, "exclusiveMaximum": 1}, "q0": {"exclusiveMinimum": 0},
    "budget": {"type": "integer", "minimum": 1}, "c_ada": {"minimum": 0},
    "delta": {"exclusiveMinimum": 0, "maximum": 0.5}, "c_x": {"exclusiveMinimum": 0},
    "reward_bound": {"minimum": 0}, "b0": {"exclusiveMinimum": 0}, "c0": {"minimum": 0},
    "gamma0": {"exclusiveMinimum": 0}, "theta_norm_hint": {"minimum": 0},
}
ADAPTIVE_NODE = record({f.name: {"type": "number", **_ADAPTIVE_RANGES.get(f.name, {})}
                        for f in fields(AdaptiveConfig)}, required=())


# Per-filter experiment defaults: grid anchor and threshold multiplier.
# The multipliers are calibrated on the synthetic recommendation benchmark so
# the scan stops at mid-grid levels instead of degenerating to a grid
# endpoint; scripts/calibrate_threshold.py reproduces the sweep.  The ladder
# (tikhonov < gradient-descent < cutoff) reflects how spiky each filter's
# consecutive-estimate gaps are.
FILTER_PRESETS = {
    "tikhonov": {"q0": 100.0, "c_ada": 5e-8},
    "gradient-descent": {"q0": 100.0, "c_ada": 1e-7},
    "cutoff": {"q0": 30.0, "c_ada": 5e-7},
}


def default_config(method: str, reward_bound: float = 1.0, **overrides) -> AdaptiveConfig | None:
    """AdaptiveConfig with the per-filter grid anchor and threshold multiplier;
    None for a baseline (``ls``, ``lasso``), which takes no adaptive settings."""
    if method in BASELINE_METHODS:
        return None
    base = dict(FILTER_PRESETS[method])
    base["reward_bound"] = reward_bound
    base.update(overrides)
    return AdaptiveConfig(**base)


@dataclass(frozen=True)
class StageModel:
    t: int
    theta: np.ndarray
    lambda_selected: float
    k_selected: int

    def __post_init__(self):
        if not (np.all(np.isfinite(self.theta)) and np.isfinite(self.lambda_selected)):
            raise NumericError(f"stage {self.t}: non-finite parameters")
        self.theta.setflags(write=False)


@dataclass(frozen=True)
class ModelBundle:
    """Learned per-stage parameters with the settings that produced them."""

    horizon: int
    feature_dim: int
    filter_kind: str
    stages: tuple
    config: AdaptiveConfig | None = None
    seed: int = 0
    feature_mask: np.ndarray | None = None

    def __post_init__(self):
        if len(self.stages) != self.horizon:
            raise ValueError("one stage record per stage required")
        mask = self.feature_mask
        if mask is not None:
            if mask.shape != (self.feature_dim,):
                raise ValueError(f"feature_mask has shape {mask.shape}, "
                                 f"expected ({self.feature_dim},)")
            if not np.all((mask == 0.0) | (mask == 1.0)):
                raise ValueError("feature_mask entries must be 0 or 1")
            mask.setflags(write=False)

    def theta(self, t: int) -> np.ndarray:
        """Parameter vector for stage t (1-based); zeros for t = T + 1."""
        if t == self.horizon + 1:
            return np.zeros(self.feature_dim)
        return self.stages[t - 1].theta

    def theta_matrix(self) -> np.ndarray:
        return np.stack([s.theta for s in self.stages])


@dataclass(frozen=True)
class StageFitReport:
    """Scan trace of the balancing rule at one stage, aligned to the grid."""

    stage: int
    ks: np.ndarray            # scanned k values, K..1
    lambdas: np.ndarray       # lambda_k for each scanned k (ascending)
    diff_norms: np.ndarray    # weighted gap between consecutive estimates
    thresholds: np.ndarray    # balancing threshold per k
    phi_next: float
    selected_k: int
    selected_lambda: float


@dataclass(frozen=True)
class Stage:
    """One stage's features at the cost of its distinct states, and the
    eigensystem U diag(s) U^T of its Sigma_hat.

    Trajectory i's features are x_i = scale_i [states[state_of_i], table[action_i]]:
    ``states`` are the stage's p distinct state rows and ``table`` the
    action table, both on the kept columns, and scale_i is 1/||x_i|| on a
    unit-normalized feature map, else 1.  No (n, d) matrix of the x_i is
    built: every method reads the stage through Sigma_hat and the moment
    mean_i(x_i y_i), over all trajectories or some (``gram``, ``moment``).
    Every filtered estimate g_lambda(Sigma_hat) mean_i(x_i y_i) is
    U (g_lambda(s) * c) with c = ``coords(targets)``, so a spectral method
    works on (s, c) and rotates back only the estimates it keeps.

    Under a 0/1 feature ``mask`` of length d the columns are the k kept
    ones, so every estimate is in those k coordinates and ``lift`` writes it
    into the d features; without one, k = d."""

    states: np.ndarray         # (p, k_s) distinct state rows, kept columns
    table: np.ndarray          # (A, k_a) action table, kept columns
    state_of: np.ndarray       # (n,) each trajectory's row of states
    action: np.ndarray         # (n,) each trajectory's row of table
    scale: np.ndarray          # (n,) 1/||x_i||, or ones
    decomp: SpectralDecomposition
    mask: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.states, self.table, self.state_of, self.action, self.scale):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.state_of)

    @property
    def feature_dim(self) -> int:
        """d, the features of the dataset, whatever the mask keeps."""
        if self.mask is None:
            return self.states.shape[1] + self.table.shape[1]
        return len(self.mask)

    def moment(self, targets: np.ndarray, among=slice(None)) -> np.ndarray:
        """(1/m) sum_i x_i y_i over the m trajectories ``among`` (an index
        array; default all), after checking the outcomes are finite."""
        targets = np.asarray(targets, dtype=float)
        if not np.all(np.isfinite(targets)):
            raise NumericError("targets contain non-finite values")
        state_of, action = self.state_of[among], self.action[among]
        wy = self.scale[among] * targets[among]
        moment = np.concatenate([
            self.states.T @ np.bincount(state_of, wy, minlength=len(self.states)),
            self.table.T @ np.bincount(action, wy, minlength=len(self.table))])
        return moment / len(state_of)

    def gram(self, among=slice(None)) -> np.ndarray:
        """(1/m) sum_i x_i x_i^T over the m trajectories ``among`` (default
        all): Sigma_hat of those trajectories."""
        return _stage_covariance(self.states, self.table, self.state_of[among],
                                 self.action[among], self.scale[among] ** 2)

    def predict(self, theta: np.ndarray, among=slice(None)) -> np.ndarray:
        """<x_i, theta> for the trajectories ``among``, theta in the kept
        coordinates."""
        k_s = self.states.shape[1]
        return self.scale[among] * ((self.states @ theta[:k_s])[self.state_of[among]]
                                    + (self.table @ theta[k_s:])[self.action[among]])

    def coords(self, targets: np.ndarray) -> np.ndarray:
        """c = U^T (1/n) sum_i x_i y_i."""
        return self.decomp.eigenvectors.T @ self.moment(targets)

    def estimate(self, g: np.ndarray, c: np.ndarray) -> np.ndarray:
        """U (g * c) for filter values g on the stage eigenvalues."""
        return self.decomp.eigenvectors @ (g * c)

    def kept(self, v: np.ndarray) -> np.ndarray:
        """The kept coordinates of a d-vector ``v``."""
        return v if self.mask is None else v[self.mask != 0.0]

    def lift(self, theta: np.ndarray) -> np.ndarray:
        """The d-vector of kept coordinates ``theta``, exactly 0 elsewhere."""
        if self.mask is None:
            return theta
        full = np.zeros(len(self.mask))
        full[self.mask != 0.0] = theta
        return full


def _stage_covariance(states, table, state_of, action, weights) -> np.ndarray:
    """(1/n) sum_i w_i [s_i, a_i]^T [s_i, a_i] with w_i = ``weights[i]``, in blocks.

    Each diagonal block is W^T W, W the distinct rows scaled by the root of
    their summed weight, which numpy forms by one symmetric rank-k update,
    so it is exactly symmetric.  The off-diagonal block is states^T C table,
    C the (p, A) summed weight of each (state, action) pair, and its
    transpose is copied into place.
    """
    (p, k_s), n_actions = states.shape, len(table)
    w_s = states * np.sqrt(np.bincount(state_of, weights, minlength=p))[:, None]
    w_a = table * np.sqrt(np.bincount(action, weights, minlength=n_actions))[:, None]
    pairs = np.bincount(state_of * n_actions + action, weights,
                        minlength=p * n_actions).reshape(p, n_actions)
    cov = np.empty((k_s + table.shape[1],) * 2)
    cov[:k_s, :k_s] = w_s.T @ w_s
    cov[k_s:, k_s:] = w_a.T @ w_a
    cov[:k_s, k_s:] = states.T @ (pairs @ table)
    cov[k_s:, :k_s] = cov[:k_s, k_s:].T
    cov /= len(state_of)
    return cov


def stage_of(rows: np.ndarray, mask: np.ndarray | None = None,
             state_of: np.ndarray | None = None, table: np.ndarray | None = None,
             action: np.ndarray | None = None, normalize: bool = False) -> Stage:
    """The Stage of the design whose row i is [rows[state_of_i], table[action_i]],
    unit-normalized if ``normalize``, on the columns ``mask`` keeps: the one
    place Sigma_hat is decomposed.  Bare ``rows`` (no ``state_of``, ``table``
    or ``action``) are the design itself, each row its own state and no
    action columns."""
    rows = np.asarray(rows, dtype=float)
    if state_of is None:
        n = len(rows)
        states, state_of = rows, np.arange(n)
        table, action = np.zeros((1, 0)), np.zeros(n, dtype=np.intp)
    else:
        used, state_of = np.unique(state_of, return_inverse=True)
        states = rows[used]
    if len(state_of) < 1:
        raise ValueError("empty design")
    if mask is not None:
        mask = np.asarray(mask, dtype=float)
        kept = mask != 0.0
        states, table = states[:, kept[:states.shape[1]]], table[:, kept[states.shape[1]:]]
    if normalize:
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            sq = np.sum(states**2, axis=1)[state_of] + np.sum(table**2, axis=1)[action]
        if np.any(sq == 0.0):
            raise DataError("cannot normalize an all-zero feature vector")
        if not np.isfinite(sq).all():
            raise DataError("cannot normalize a feature vector whose squared norm overflows")
        weights, scale = 1.0 / sq, 1.0 / np.sqrt(sq)
    else:
        weights = scale = np.ones(len(state_of))
    cov = _stage_covariance(states, table, state_of, action, weights)
    return Stage(states, table, state_of, action, scale, decompose(cov), mask)


@dataclass(frozen=True)
class StageSpectra:
    """The T stages of ``dataset`` under a 0/1 feature ``mask`` (None keeps
    every feature): what every method fits, built once and shared."""

    dataset: BatchDataset
    mask: np.ndarray | None
    stages: tuple            # Stage for t = 1..T


def stage_spectra(dataset: BatchDataset, mask: np.ndarray | None = None) -> StageSpectra:
    """Distinct states and Sigma_hat eigensystem of each stage of ``dataset``
    under ``mask``, on the kept columns; no stage builds its (n, d) design."""
    if mask is not None:
        mask = np.asarray(mask, dtype=float)
        mask.setflags(write=False)
        if not np.any(mask):
            raise ValueError("the feature mask keeps no feature")
    stages = []
    for t in range(1, dataset.horizon + 1):
        try:
            stages.append(stage_of(dataset.state_rows, mask, dataset.state_index[:, t - 1],
                                   dataset.action_table, dataset.actions[:, t - 1],
                                   dataset.normalize))
        except NumericError as exc:
            raise NumericError(f"stage {t}: {exc}") from exc
    return StageSpectra(dataset, mask, tuple(stages))


def stage_targets(spectra: StageSpectra, t: int,
                  theta_next: np.ndarray) -> tuple[np.ndarray, float]:
    """Stage-t outcomes y_i = r_i + max_a' <theta_next, x(next state_i, a')> and
    the bound phi = max |<theta_next, x>| over the same candidates, for the
    dataset of ``spectra``.

    The post-transition context for stage t < T is the logged stage-(t+1)
    state.  The candidates are scored once per distinct state of that stage,
    on its kept features, and each trajectory takes its state's best score.
    At the final stage theta_next must be zero and (y, phi) is (rewards, 0).
    """
    dataset = spectra.dataset
    theta_next = np.asarray(theta_next, dtype=float)
    if theta_next.shape != (dataset.feature_dim,):
        raise ValueError(
            f"theta_next has shape {theta_next.shape}, expected ({dataset.feature_dim},)")
    rewards = dataset.rewards[:, t - 1]
    if t == dataset.horizon:
        if np.any(theta_next != 0.0):
            raise ValueError("theta_next must be all zeros at the final stage")
        return rewards.copy(), 0.0
    following = spectra.stages[t]
    scores = candidate_scores(following.states, following.table,
                              following.kept(theta_next), normalize=dataset.normalize)
    best = scores.max(axis=0)
    # max |score| without the |.| temporary; abs only fixes the sign of a zero
    return rewards + best[following.state_of], float(abs(max(best.max(), -scores.min())))


def fit_stage(stage: Stage, targets: np.ndarray, filt: FilterSpec, lam: float) -> np.ndarray:
    """theta = g_lambda(Sigma_hat) * (1/n) sum_i x_i y_i on the stage's design,
    in the stage's kept coordinates."""
    return stage.estimate(filter_values(filt, lam, stage.decomp.eigenvalues),
                          stage.coords(targets))


def effective_sample_size(n: int, cfg: AdaptiveConfig) -> float:
    """Mixing-adjusted sample count n*b0 / (2 max(1, log(c1* n))^(1/gamma0))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if cfg.c0 == 0.0:
        return n * cfg.b0 / 2.0
    if cfg.reward_bound == 0.0:  # c1* divides by it
        raise ConfigError(f"adaptive c0 {cfg.c0!r} > 0 needs a positive reward_bound, "
                          "but reward_bound is 0")
    inner = max(
        math.sqrt(2.0) * max(cfg.reward_bound + 2.0 * cfg.c_x * cfg.theta_norm_hint, cfg.c_x)
        / (2.0 * cfg.c_x * cfg.reward_bound),
        1.0 / cfg.c_x,
    )
    c1_star = cfg.c0 * cfg.b0 * inner
    arg = c1_star * n
    denom = max(1.0, math.log(arg)) if arg > 0 else 1.0
    return n * cfg.b0 / (2.0 * denom ** (1.0 / cfg.gamma0))


def dimension_adjusted_sample_size(n: int, d: int, cfg: AdaptiveConfig) -> float:
    """Second mixing-adjusted count whose log argument grows with sqrt(d)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if cfg.c0 == 0.0:
        return n * cfg.b0 / 2.0
    arg = cfg.b0 * cfg.c0 * n * 2.0 * math.sqrt(d) / cfg.c_x
    denom = max(1.0, math.log(arg)) if arg > 0 else 1.0
    return n * cfg.b0 / (2.0 * denom ** (1.0 / cfg.gamma0))


def variance_proxy(decomp: SpectralDecomposition, lam: float | np.ndarray, n: int, d: int,
                   cfg: AdaptiveConfig):
    """Finite-sample scale of the estimator fluctuation, per level lambda."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    n_gamma = effective_sample_size(n, cfg)
    ell = dimension_adjusted_sample_size(n, d, cfg)
    eff = np.maximum(np.sqrt(empirical_effective_dimension(decomp, lam)), 1.0)
    # lam * ell past the float range gives its terms their limit 0, and an
    # effective sample size of 0 gives an infinite proxy, which the
    # balancing rule refuses as an overflowing threshold
    with np.errstate(over="ignore", divide="ignore"):
        front = 1.0 + 4.0 * (13.0 * cfg.c_x / np.sqrt(lam * ell)
                             + 21.0 * cfg.c_x * cfg.c_x / (lam * ell))
        return front * eff / math.sqrt(n_gamma) + 1.0 / (n_gamma * np.sqrt(lam))


def adaptive_threshold(t: int, horizon: int, phi_next: float, w: float | np.ndarray,
                       cfg: AdaptiveConfig):
    """Balancing threshold c_ada * 84 * ((T-t+2) M + phi) (1 + C_x) w log^2(2/delta)."""
    return (cfg.c_ada * 84.0 * ((horizon - t + 2) * cfg.reward_bound + phi_next)
            * (1.0 + cfg.c_x) * w * math.log(2.0 / cfg.delta) ** 2)


def select_lambda(stage: Stage, targets: np.ndarray, filt: FilterSpec,
                  t: int, horizon: int, phi_next: float, cfg: AdaptiveConfig):
    """Choose the stage regularization level by the balancing rule.

    The grid lambda_k = q0 * q^k, k = 1..K, is scanned from k = K down to 1,
    i.e. in ascending lambda order.  At each k the weighted gap between the
    estimates at lambda_{k+1} and lambda_k is compared to the threshold; the
    first k where the gap reaches the threshold is selected, and k = K if
    none does.  Returns (lambda, theta, StageFitReport).

    The whole grid is evaluated in the stage eigenbasis: with filter values
    g_k at lambda_k and moment coordinates c, the gap for k is
    ||(s + lambda_{k+1})^{1/2} (g_{k+1} - g_k) c||, and only the selected
    estimate is rotated back to feature space, in the stage's kept
    coordinates.  The threshold's dimension is the dataset's d, whatever the
    stage's feature mask keeps.
    """
    n, d = stage.n, stage.feature_dim
    k_max = cfg.budget
    # checked before the (K + 1)-level grid and its filter values are allocated
    if cfg.q0 * cfg.q ** float(k_max + 1) == 0.0:
        raise ConfigError(f"stage {t}: the grid's last level q0 q^(budget + 1) underflows "
                          f"to 0 under the adaptive configuration {vars(cfg)}")
    s, c = stage.decomp.eigenvalues, stage.coords(targets)
    lambdas = cfg.q0 * cfg.q ** np.arange(1, k_max + 2, dtype=float)  # k = 1..K+1
    g = filter_values(filt, lambdas, s)                                 # row k-1: lambda_k
    lam_next = lambdas[1:]                                              # lambda_{k+1}, k = 1..K
    step = (g[1:] - g[:-1]) * c
    gaps = np.sqrt(np.sum((s + lam_next[:, None]) * step**2, axis=1))
    taus = adaptive_threshold(t, horizon, phi_next,
                              variance_proxy(stage.decomp, lam_next, n, d, cfg), cfg)
    if not np.isfinite(taus).all():
        raise ConfigError(f"stage {t}: the balancing thresholds overflow under the adaptive "
                          f"configuration {vars(cfg)}")

    ks = np.arange(k_max, 0, -1)
    diff_norms, thresholds = gaps[ks - 1], taus[ks - 1]
    crossed = np.flatnonzero(diff_norms >= thresholds)
    selected = int(ks[crossed[0]]) if crossed.size else k_max
    lam = float(lambdas[selected - 1])
    report = StageFitReport(
        stage=t, ks=ks, lambdas=lambdas[ks - 1], diff_norms=diff_norms,
        thresholds=thresholds, phi_next=phi_next, selected_k=selected,
        selected_lambda=lam,
    )
    return lam, stage.estimate(g[selected - 1], c), report


@dataclass(frozen=True)
class LassoFit:
    theta: np.ndarray
    iterations: int
    converged: bool


def fit_lasso(gram: np.ndarray, moment: np.ndarray, lam: float,
              max_iters: int = 1000, tol: float = 1e-8,
              theta0: np.ndarray | None = None) -> LassoFit:
    """Cyclic coordinate descent on (1/n)||y - X theta||^2 + lam ||theta||_1
    from the d x d ``gram`` (1/n) X^T X and the ``moment`` (1/n) X^T y alone,
    by covariance updates (Friedman, Hastie & Tibshirani 2010, section 2.2).

    Runs until the largest coordinate change in a sweep drops below tol.
    Non-convergence is reported through the ``converged`` flag, not an error.
    ``theta0`` warm-starts the iteration (path-wise fits over a penalty grid).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    gram, xty = np.asarray(gram, dtype=float), np.asarray(moment, dtype=float)
    d = len(xty)
    col_sq = np.diag(gram).copy()
    if theta0 is None:
        theta = np.zeros(d)
        grad = xty.copy()  # (1/n) X^T (y - X theta), maintained incrementally
    else:
        theta = np.array(theta0, dtype=float)
        grad = xty - gram @ theta
    if lam >= 2.0 * np.max(np.abs(xty), initial=0.0) and theta0 is None:
        # every coordinate is soft-thresholded to zero from the start
        return LassoFit(theta=np.zeros(d), iterations=0, converged=True)
    half_lam = lam / 2.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        max_change = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho = grad[j] + col_sq[j] * theta[j]
            new = math.copysign(max(abs(rho) - half_lam, 0.0), rho) / col_sq[j]
            change = new - theta[j]
            if change != 0.0:
                grad -= gram[:, j] * change
                theta[j] = new
                max_change = max(max_change, abs(change))
        if max_change < tol:
            converged = True
            break
    return LassoFit(theta=theta, iterations=iterations, converged=converged)


DEFAULT_LASSO_GRID = tuple(float(v) for v in np.geomspace(1e-4, 1.0, 9))
LASSO_VAL_FRACTION = 0.2       # share of trajectories held out to choose the penalty
LASSO_MAX_ITERS = 2000
LASSO_TOL = 1e-8


def _fit_least_squares(t, stage, targets, phi):
    """Minimum-norm least squares: the cutoff filter at 1e-10 * sigma_max
    (1e-10 when Sigma_hat = 0), the pseudo-inverse convention."""
    s = stage.decomp.eigenvalues
    floor = LS_RELATIVE_FLOOR * (s[-1] if s[-1] > 0 else 1.0)
    return fit_stage(stage, targets, default_filter(CUTOFF), floor), 0.0, 0, None


def lasso_holdout(n: int) -> int:
    """Trajectories of an n-trajectory training set that lasso holds out to
    choose its penalty: a fifth, at least one.  The other n minus these fit
    the path, so lasso needs n - lasso_holdout(n) >= 1."""
    return max(1, int(LASSO_VAL_FRACTION * n))


def _lasso_fitter(spectra: StageSpectra, lasso_grid, seed: int):
    """Lasso with the penalty chosen per stage on held-out trajectories.

    Lasso reads its stage as every method does, through Sigma_hat and the
    moment (``Stage.gram``, ``Stage.moment``).  The grid is fit path-wise
    from those of the fit split, built once per stage (each penalty
    warm-started from the next larger one), the penalty with the lowest
    target RMSE on the validation trajectories wins, and the stage is refit
    from all trajectories' at that penalty.  The split depends on ``seed``
    only.
    """
    grid = [float(g) for g in lasso_grid]
    if not grid:
        raise ValueError("lasso requires a nonempty penalty grid")
    n = len(spectra.dataset)
    perm = np.random.default_rng(seed).permutation(n)
    n_val = lasso_holdout(n)
    if n - n_val < 1:
        raise DataError(f"lasso's validation split of {n} trajectories leaves no "
                        "training rows")
    val_idx = np.sort(perm[:n_val])
    fit_idx = np.sort(perm[n_val:])

    def fit(t, stage, targets, phi):
        gram, moment = stage.gram(fit_idx), stage.moment(targets, fit_idx)
        candidates = {}
        warm = None
        for lam_c in sorted(set(grid), reverse=True):
            warm = fit_lasso(gram, moment, lam_c, max_iters=LASSO_MAX_ITERS,
                             tol=LASSO_TOL, theta0=warm).theta
            candidates[lam_c] = warm
        best_lam, best_rmse = grid[0], math.inf
        for lam_c in grid:
            resid = stage.predict(candidates[lam_c], val_idx) - targets[val_idx]
            rmse = float(np.sqrt(np.mean(resid**2)))
            if rmse < best_rmse:
                best_lam, best_rmse = lam_c, rmse
        theta = fit_lasso(stage.gram(), stage.moment(targets), best_lam,
                          max_iters=LASSO_MAX_ITERS, tol=LASSO_TOL).theta
        return theta, best_lam, grid.index(best_lam), None

    return fit


def _spectral_fitter(method: str, horizon: int, cfg: AdaptiveConfig):
    filt = default_filter(method)

    def fit(t, stage, targets, phi):
        lam, theta, report = select_lambda(stage, targets, filt, t, horizon, phi, cfg)
        return theta, lam, report.selected_k, report

    return fit


def train(dataset: BatchDataset, method: str, cfg: AdaptiveConfig | None = None,
          seed: int = 0, spectra: StageSpectra | None = None,
          lasso_grid=DEFAULT_LASSO_GRID):
    """Backward induction over stages T..1 for any of the five methods.

    Each stage fits the outcomes of ``stage_targets`` with the method's
    estimator, a fitter (t, stage, targets, phi) -> (theta, lambda, k,
    report or None): a spectral filter at the balancing-rule level under
    ``cfg`` (default ``default_config(method, dataset.reward_bound)``), least
    squares, or lasso over ``lasso_grid``.  Baselines take no ``cfg``.
    ``spectra`` are the dataset's ``stage_spectra``, feature mask included;
    None builds them unmasked.  A masked stage is fit in its kept
    coordinates, and its theta is written into the d features with exact
    zeros everywhere else.
    Returns (ModelBundle, StageFitReports for t = 1..T, empty for a
    baseline); identical arguments produce an identical bundle.
    """
    horizon, d = dataset.horizon, dataset.feature_dim
    if spectra is None:
        spectra = stage_spectra(dataset)
    elif spectra.dataset is not dataset:
        raise ValueError("the stage spectra belong to a different dataset")
    if cfg is None:
        cfg = default_config(method, dataset.reward_bound)
    elif method in BASELINE_METHODS:
        raise ValueError(f"{method} takes no adaptive configuration")
    if method == LS:
        fit = _fit_least_squares
    elif method == LASSO:
        fit = _lasso_fitter(spectra, lasso_grid, seed)
    else:
        fit = _spectral_fitter(method, horizon, cfg)
    if method == GRADIENT_DESCENT:
        for t, stage in enumerate(spectra.stages, start=1):
            top = stage.decomp.eigenvalues[-1]
            if top > GRADIENT_DESCENT_MAX_EIGENVALUE:
                raise DataError(f"stage {t}: the gradient-descent filter needs the "
                                f"eigenvalues of Sigma_hat at most 1, but the largest is "
                                f"{top:.6g}; unit-normalized features (normalize: true) "
                                "keep them there")

    theta_next = np.zeros(d)
    stages: list[StageModel | None] = [None] * horizon
    reports: list[StageFitReport | None] = [None] * horizon
    for t in range(horizon, 0, -1):
        targets, phi = stage_targets(spectra, t, theta_next)
        try:
            theta, lam, k, report = fit(t, spectra.stages[t - 1], targets, phi)
        except (NumericError, FloatingPointError) as exc:
            raise NumericError(f"stage {t}: {exc}") from exc
        theta_next = spectra.stages[t - 1].lift(theta)
        stages[t - 1] = StageModel(t=t, theta=theta_next, lambda_selected=lam, k_selected=k)
        reports[t - 1] = report
    bundle = ModelBundle(horizon=horizon, feature_dim=d, filter_kind=method,
                         stages=tuple(stages), config=cfg, seed=seed,
                         feature_mask=spectra.mask)
    return bundle, [r for r in reports if r is not None]


def error_decomposition(stage: Stage, targets_y: np.ndarray,
                        targets_ystar: np.ndarray, targets_noisefree: np.ndarray,
                        lam: float, filt: FilterSpec, theta_star: np.ndarray,
                        sigma_true: np.ndarray) -> dict:
    """Split the weighted estimation error into bias, variance and the
    multi-stage term.

    The three auxiliary estimators apply the same filter, on the stage's
    Sigma_hat, to the observed outcomes, the outcomes built from the true
    next-stage parameters, and their conditional means.  All norms are taken
    in the (Sigma_true + lambda I)^(1/2) metric on the d features, a masked
    stage's estimates being exactly 0 outside its kept ones.  Only usable when
    the ground truth is known.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    n, d = stage.n, stage.feature_dim
    for name, arr in (("targets_y", targets_y), ("targets_ystar", targets_ystar),
                      ("targets_noisefree", targets_noisefree)):
        arr = np.asarray(arr)
        if arr.shape != (n,):
            raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    if theta_star.shape != (d,):
        raise ValueError(f"theta_star has shape {theta_star.shape}, expected ({d},)")
    g = filter_values(filt, lam, stage.decomp.eigenvalues)
    theta_obs, theta_true_targets, theta_clean = (
        stage.lift(stage.estimate(g, stage.coords(y)))
        for y in (targets_y, targets_ystar, targets_noisefree))
    weight = decompose(np.asarray(sigma_true, dtype=float))
    return {
        "bias": weighted_half_norm(weight, lam, theta_clean - theta_star),
        "variance": weighted_half_norm(weight, lam, theta_clean - theta_true_targets),
        "multistage": weighted_half_norm(weight, lam, theta_obs - theta_true_targets),
        "total": weighted_half_norm(weight, lam, theta_obs - theta_star),
    }


# model.json's format version: the one the writer writes and the one
# MODEL_SCHEMA admits
MODEL_VERSION = 2


def model_json_text(bundle: ModelBundle) -> str:
    payload = {
        "version": MODEL_VERSION,
        "horizon": bundle.horizon,
        "feature_dim": bundle.feature_dim,
        "filter": bundle.filter_kind,
        "stages": [
            {"t": s.t, "lambda": s.lambda_selected, "k": s.k_selected,
             "theta": s.theta.tolist()}
            for s in bundle.stages
        ],
        "config": None if bundle.config is None else vars(bundle.config).copy(),
        "seed": bundle.seed,
        "feature_mask": None if bundle.feature_mask is None else bundle.feature_mask.tolist(),
    }
    return json.dumps(payload) + "\n"


def save_model(bundle: ModelBundle, path) -> None:
    Path(path).write_text(model_json_text(bundle))


# model.json, written by ``model_json_text``.  Each record of "stages" is
# checked against STAGE_SCHEMA and named by its stage; a record's "t" must be
# its position, a rule the loader states.
MODEL_SCHEMA = record({
    "version": {"const": MODEL_VERSION},
    "horizon": {"type": "integer", "minimum": 1},
    "feature_dim": {"type": "integer", "minimum": 1},
    "filter": {"enum": list(METHODS)},
    "stages": {"type": "array"},
    "config": {**ADAPTIVE_NODE, "null": True},
    "seed": {"type": "integer", "minimum": 0},
    "feature_mask": {"type": "numbers", "rank": 1, "null": True},
}, required=("version", "horizon", "feature_dim", "filter", "stages", "config", "seed"))
STAGE_SCHEMA = record({"t": {}, "lambda": {"type": "number", "minimum": 0},
                       "k": {"type": "integer", "minimum": 0}, "theta": {"type": "numbers"}})


def load_model(path) -> ModelBundle:
    payload = read_json(path, MODEL_SCHEMA)
    stages = []
    for t, rec in enumerate(payload["stages"], start=1):
        where = f"{path}: stage {t}:"
        rec = check(rec, STAGE_SCHEMA, DataError, where)
        if type(rec["t"]) is not int or rec["t"] != t:
            raise DataError(f"{where} field 't' must be the integer {t}, got {rec['t']!r}")
        if rec["theta"].shape != (payload["feature_dim"],):
            raise DataError(f"{where} field 'theta' has shape {rec['theta'].shape}, "
                            f"expected ({payload['feature_dim']},)")
        stages.append(StageModel(t=t, theta=rec["theta"], lambda_selected=rec["lambda"],
                                 k_selected=rec["k"]))
    config = payload["config"]
    if config is not None and payload["filter"] in BASELINE_METHODS:
        raise DataError(f"{path}: field 'config' must be null for filter "
                        f"{payload['filter']!r}, which takes no adaptive configuration")
    with file_values(path):  # one stage record per stage; the mask's length and 0/1 entries
        return ModelBundle(
            horizon=payload["horizon"], feature_dim=payload["feature_dim"],
            filter_kind=payload["filter"], stages=tuple(stages),
            config=None if config is None else AdaptiveConfig(**config),
            seed=payload["seed"], feature_mask=payload.get("feature_mask"))
