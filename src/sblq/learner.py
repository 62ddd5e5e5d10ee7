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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (BatchDataset, StageDesign, candidate_scores, empirical_covariance,
                   file_values, read_json_fields, require_fields, stage_design)
from .errors import DataError, NumericError
from .spectral import (
    CUTOFF,
    FilterSpec,
    SpectralDecomposition,
    SpectralSystem,
    decompose,
    default_filter,
    empirical_effective_dimension,
    filter_values,
    spectral_system,
    weighted_half_norm,
)

LS = "ls"
LASSO = "lasso"
BASELINE_METHODS = (LS, LASSO)
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
    c_tilde: float = 0.25          # in (0, 0.5)
    c0_effdim: float = 1.0         # effective-dimension constant, >= 1
    theta_norm_hint: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if not 0.0 < self.delta <= 0.5:
            raise ValueError("delta must lie in (0, 0.5]")
        if not 0.0 < self.c_tilde < 0.5:
            raise ValueError("c_tilde must lie in (0, 0.5)")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.q0 <= 0:
            raise ValueError("q0 must be positive")


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
        if not np.all(np.isfinite(self.theta)):
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
    format_version: int = 1

    def __post_init__(self):
        if len(self.stages) != self.horizon:
            raise ValueError("one stage record per stage required")
        if self.feature_mask is not None:
            self.feature_mask.setflags(write=False)

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


def stage_targets(dataset: BatchDataset, t: int, theta_next: np.ndarray,
                  mask: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Stage-t outcomes y_i = r_i + max_a' <theta_next, x(next state_i, a')> and
    the bound phi = max |<theta_next, x>| over the same candidates, scored once.

    The post-transition context for stage t < T is the logged stage-(t+1)
    state.  At the final stage theta_next must be zero and (y, phi) is
    (rewards, 0).
    """
    theta_next = np.asarray(theta_next, dtype=float)
    if theta_next.shape != (dataset.feature_dim,):
        raise ValueError(
            f"theta_next has shape {theta_next.shape}, expected ({dataset.feature_dim},)")
    rewards = dataset.rewards[:, t - 1]
    if t == dataset.horizon:
        if np.any(theta_next != 0.0):
            raise ValueError("theta_next must be all zeros at the final stage")
        return rewards.copy(), 0.0
    ctx = dataset.states[:, t, :]
    scores = candidate_scores(ctx, dataset.action_table, theta_next,
                              normalize=dataset.normalize, mask=mask)
    return rewards + scores.max(axis=1), float(np.max(np.abs(scores)))


def _moment(design: StageDesign, targets: np.ndarray) -> np.ndarray:
    """(1/n) sum_i x_i y_i, after checking the outcomes are finite."""
    targets = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(targets)):
        raise NumericError("targets contain non-finite values")
    return design.rows.T @ targets / design.rows.shape[0]


def _stage_system(design: StageDesign, targets: np.ndarray) -> SpectralSystem:
    """Eigensystem of Sigma_hat with the eigen-coordinates of the moment."""
    return spectral_system(decompose(empirical_covariance(design)), _moment(design, targets))


def fit_stage(design: StageDesign, targets: np.ndarray, filt: FilterSpec,
              lam: float) -> np.ndarray:
    """theta = g_lambda(Sigma_hat) * (1/n) sum_i x_i y_i."""
    system = _stage_system(design, targets)
    return system.estimate(filter_values(filt, lam, system.decomp.eigenvalues))


def effective_sample_size(n: int, cfg: AdaptiveConfig) -> float:
    """Mixing-adjusted sample count n*b0 / (2 max(1, log(c1* n))^(1/gamma0))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if cfg.c0 == 0.0:
        return n * cfg.b0 / 2.0
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
    front = 1.0 + 4.0 * (13.0 * cfg.c_x / np.sqrt(lam * ell)
                         + 21.0 * cfg.c_x**2 / (lam * ell))
    eff = np.maximum(np.sqrt(empirical_effective_dimension(decomp, lam)), 1.0)
    return front * eff / math.sqrt(n_gamma) + 1.0 / (n_gamma * np.sqrt(lam))


def adaptive_threshold(t: int, horizon: int, phi_next: float, w: float | np.ndarray,
                       cfg: AdaptiveConfig):
    """Balancing threshold c_ada * 84 * ((T-t+2) M + phi) (1 + C_x) w log^2(2/delta)."""
    return (cfg.c_ada * 84.0 * ((horizon - t + 2) * cfg.reward_bound + phi_next)
            * (1.0 + cfg.c_x) * w * math.log(2.0 / cfg.delta) ** 2)


def select_lambda(design: StageDesign, targets: np.ndarray, filt: FilterSpec,
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
    estimate is rotated back to feature space.
    """
    n, d = design.rows.shape
    k_max = cfg.budget
    system = _stage_system(design, targets)
    s = system.decomp.eigenvalues
    lambdas = cfg.q0 * cfg.q ** np.arange(1, k_max + 2, dtype=float)  # k = 1..K+1
    g = filter_values(filt, lambdas, s)                                 # row k-1: lambda_k
    lam_next = lambdas[1:]                                              # lambda_{k+1}, k = 1..K
    step = (g[1:] - g[:-1]) * system.coords
    gaps = np.sqrt(np.sum((s + lam_next[:, None]) * step**2, axis=1))
    taus = adaptive_threshold(t, horizon, phi_next,
                              variance_proxy(system.decomp, lam_next, n, d, cfg), cfg)

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
    return lam, system.estimate(g[selected - 1]), report


@dataclass(frozen=True)
class LassoFit:
    theta: np.ndarray
    iterations: int
    converged: bool


def fit_lasso(design: StageDesign, targets: np.ndarray, lam: float,
              max_iters: int = 1000, tol: float = 1e-8,
              theta0: np.ndarray | None = None) -> LassoFit:
    """Cyclic coordinate descent on (1/n)||y - X theta||^2 + lam ||theta||_1.

    Runs until the largest coordinate change in a sweep drops below tol.
    Non-convergence is reported through the ``converged`` flag, not an error.
    ``theta0`` warm-starts the iteration (path-wise fits over a penalty grid).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    x = design.rows
    y = np.asarray(targets, dtype=float)
    n, d = x.shape
    gram = x.T @ x / n
    xty = x.T @ y / n
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


def _fit_least_squares(t, design, targets, phi):
    """Minimum-norm least squares: the cutoff filter at 1e-10 * sigma_max
    (1e-10 when Sigma_hat = 0), the pseudo-inverse convention."""
    system = _stage_system(design, targets)
    s = system.decomp.eigenvalues
    floor = LS_RELATIVE_FLOOR * (s[-1] if s[-1] > 0 else 1.0)
    return system.estimate(filter_values(default_filter(CUTOFF), floor, s)), 0.0, 0, None


def _lasso_fitter(n: int, lasso_grid, seed: int):
    """Lasso with the penalty chosen per stage on held-out trajectories.

    The grid is fit path-wise on the training rows (each penalty
    warm-started from the next larger one), the penalty with the lowest
    target RMSE on the validation rows wins, and the stage is refit on all
    rows at that penalty.  The split depends on ``seed`` only.
    """
    grid = [float(g) for g in lasso_grid]
    if not grid:
        raise ValueError("lasso requires a nonempty penalty grid")
    perm = np.random.default_rng(seed).permutation(n)
    n_val = max(1, int(LASSO_VAL_FRACTION * n))
    if n - n_val < 1:
        raise ValueError("validation split leaves no training rows")
    val_idx = np.sort(perm[:n_val])
    fit_idx = np.sort(perm[n_val:])

    def fit(t, design, targets, phi):
        sub = StageDesign(t, design.rows[fit_idx], design.rewards[fit_idx])
        candidates = {}
        warm = None
        for lam_c in sorted(set(grid), reverse=True):
            warm = fit_lasso(sub, targets[fit_idx], lam_c, max_iters=LASSO_MAX_ITERS,
                             tol=LASSO_TOL, theta0=warm).theta
            candidates[lam_c] = warm
        best_lam, best_rmse = grid[0], math.inf
        for lam_c in grid:
            resid = design.rows[val_idx] @ candidates[lam_c] - targets[val_idx]
            rmse = float(np.sqrt(np.mean(resid**2)))
            if rmse < best_rmse:
                best_lam, best_rmse = lam_c, rmse
        theta = fit_lasso(design, targets, best_lam, max_iters=LASSO_MAX_ITERS,
                          tol=LASSO_TOL).theta
        return theta, best_lam, grid.index(best_lam), None

    return fit


def _spectral_fitter(method: str, horizon: int, cfg: AdaptiveConfig):
    filt = default_filter(method)

    def fit(t, design, targets, phi):
        lam, theta, report = select_lambda(design, targets, filt, t, horizon, phi, cfg)
        return theta, lam, report.selected_k, report

    return fit


def train(dataset: BatchDataset, method: str, cfg: AdaptiveConfig | None = None,
          seed: int = 0, feature_mask: np.ndarray | None = None,
          lasso_grid=DEFAULT_LASSO_GRID):
    """Backward induction over stages T..1 for any of the five methods.

    Each stage fits the outcomes of ``stage_targets`` with the method's
    estimator, a fitter (t, design, targets, phi) -> (theta, lambda, k,
    report or None): a spectral filter at the balancing-rule level under
    ``cfg`` (default ``default_config(method, dataset.reward_bound)``), least
    squares, or lasso over ``lasso_grid``.  Baselines take no ``cfg``.
    Returns (ModelBundle, StageFitReports for t = 1..T, empty for a
    baseline); identical arguments produce an identical bundle.
    """
    horizon, d = dataset.horizon, dataset.feature_dim
    if cfg is None:
        cfg = default_config(method, dataset.reward_bound)
    elif method in BASELINE_METHODS:
        raise ValueError(f"{method} takes no adaptive configuration")
    if method == LS:
        fit = _fit_least_squares
    elif method == LASSO:
        fit = _lasso_fitter(len(dataset), lasso_grid, seed)
    else:
        fit = _spectral_fitter(method, horizon, cfg)

    theta_next = np.zeros(d)
    stages: list[StageModel | None] = [None] * horizon
    reports: list[StageFitReport | None] = [None] * horizon
    for t in range(horizon, 0, -1):
        design = stage_design(dataset, t, mask=feature_mask)
        targets, phi = stage_targets(dataset, t, theta_next, mask=feature_mask)
        try:
            theta, lam, k, report = fit(t, design, targets, phi)
        except (NumericError, FloatingPointError) as exc:
            raise NumericError(f"stage {t}: {exc}") from exc
        stages[t - 1] = StageModel(t=t, theta=theta, lambda_selected=lam, k_selected=k)
        reports[t - 1] = report
        theta_next = theta
    bundle = ModelBundle(horizon=horizon, feature_dim=d, filter_kind=method,
                         stages=tuple(stages), config=cfg, seed=seed,
                         feature_mask=None if feature_mask is None
                         else np.asarray(feature_mask, dtype=float))
    return bundle, [r for r in reports if r is not None]


def error_decomposition(design: StageDesign, targets_y: np.ndarray,
                        targets_ystar: np.ndarray, targets_noisefree: np.ndarray,
                        lam: float, filt: FilterSpec, theta_star: np.ndarray,
                        sigma_true: np.ndarray) -> dict:
    """Split the weighted estimation error into bias, variance and the
    multi-stage term.

    The three auxiliary estimators apply the same filter to the observed
    outcomes, the outcomes built from the true next-stage parameters, and
    their conditional means.  All norms are taken in the
    (Sigma_true + lambda I)^(1/2) metric.  Only usable when the ground truth
    is known.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    d = design.rows.shape[1]
    for name, arr in (("targets_y", targets_y), ("targets_ystar", targets_ystar),
                      ("targets_noisefree", targets_noisefree)):
        arr = np.asarray(arr)
        if arr.shape != (design.rows.shape[0],):
            raise ValueError(f"{name} has shape {arr.shape}, expected ({design.rows.shape[0]},)")
    if theta_star.shape != (d,):
        raise ValueError(f"theta_star has shape {theta_star.shape}, expected ({d},)")
    decomp = decompose(empirical_covariance(design))
    g = filter_values(filt, lam, decomp.eigenvalues)
    theta_obs, theta_true_targets, theta_clean = (
        spectral_system(decomp, _moment(design, y)).estimate(g)
        for y in (targets_y, targets_ystar, targets_noisefree))
    weight = decompose(np.asarray(sigma_true, dtype=float))
    return {
        "bias": weighted_half_norm(weight, lam, theta_clean - theta_star),
        "variance": weighted_half_norm(weight, lam, theta_clean - theta_true_targets),
        "multistage": weighted_half_norm(weight, lam, theta_obs - theta_true_targets),
        "total": weighted_half_norm(weight, lam, theta_obs - theta_star),
    }


def model_json_text(bundle: ModelBundle) -> str:
    payload = {
        "version": bundle.format_version,
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


def load_model(path) -> ModelBundle:
    payload = read_json_fields(path, "version", "horizon", "feature_dim", "filter",
                               "stages", "config", "seed")
    if payload["version"] != 1:
        raise DataError(f"{path}: unsupported model file version {payload['version']!r}")
    records = [require_fields(rec, ("t", "theta", "lambda", "k"), f"{path}: stage {i}")
               for i, rec in enumerate(payload["stages"])]
    mask = payload.get("feature_mask")
    with file_values(path):
        stages = tuple(
            StageModel(t=rec["t"], theta=np.asarray(rec["theta"], dtype=float),
                       lambda_selected=rec["lambda"], k_selected=rec["k"])
            for rec in records
        )
        cfg = None if payload["config"] is None else AdaptiveConfig(**payload["config"])
        return ModelBundle(
            horizon=payload["horizon"], feature_dim=payload["feature_dim"],
            filter_kind=payload["filter"], stages=stages, config=cfg,
            seed=payload["seed"],
            feature_mask=None if mask is None else np.asarray(mask, dtype=float),
        )
