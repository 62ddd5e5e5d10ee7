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

import numpy as np

from .data import (BatchDataset, candidate_scores, check, file_values, partition, read_json,
                   record)
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
# A lasso penalty grid, in a config's "lasso_grid" and in model.json's
LASSO_GRID_NODE = {"type": "array", "minItems": 1, "items": {"type": "number", "minimum": 0}}


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
    """Learned per-stage parameters with the settings that produced them:
    the adaptive ``config`` of a spectral method, the penalty ``lasso_grid``
    of lasso."""

    horizon: int
    feature_dim: int
    filter_kind: str
    stages: tuple
    config: AdaptiveConfig | None = None
    seed: int = 0
    feature_mask: np.ndarray | None = None
    lasso_grid: tuple | None = None

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


def stage_of(rows: np.ndarray, mask: np.ndarray | None, state_of: np.ndarray,
             table: np.ndarray, action: np.ndarray, normalize: bool = False) -> Stage:
    """The Stage of the design whose row i is [rows[state_of_i], table[action_i]],
    unit-normalized if ``normalize``, on the columns ``mask`` keeps: the one
    place Sigma_hat is decomposed."""
    used, state_of = np.unique(state_of, return_inverse=True)
    states = np.asarray(rows, dtype=float)[used]
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
    under ``mask``, on the kept columns; no stage builds its (n, d) design.
    A mask that keeps every feature is no mask: the stages, and all fit from
    them, are the unmasked ones bit for bit."""
    if mask is not None:
        mask = np.asarray(mask, dtype=float)
        if not np.any(mask):
            raise ValueError("the feature mask keeps no feature")
        if np.all(mask):
            mask = None
        else:
            mask.setflags(write=False)
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


def _mixed_sample_size(n: int, arg: float, cfg: AdaptiveConfig) -> float:
    """n b0 / (2 max(1, log arg)^(1/gamma0)), the log term 1 when arg <= 0:
    the tail both mixing-adjusted counts share."""
    denom = max(1.0, math.log(arg)) if arg > 0 else 1.0
    return n * cfg.b0 / (2.0 * denom ** (1.0 / cfg.gamma0))


def effective_sample_size(n: int, cfg: AdaptiveConfig) -> float:
    """Mixing-adjusted sample count n*b0 / (2 max(1, log(c1* n))^(1/gamma0))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if cfg.c0 == 0.0:
        return _mixed_sample_size(n, 0.0, cfg)
    if cfg.reward_bound == 0.0:  # c1* divides by it
        raise ConfigError(f"adaptive c0 {cfg.c0!r} > 0 needs a positive reward_bound, "
                          "but reward_bound is 0")
    inner = max(
        math.sqrt(2.0) * max(cfg.reward_bound + 2.0 * cfg.c_x * cfg.theta_norm_hint, cfg.c_x)
        / (2.0 * cfg.c_x * cfg.reward_bound),
        1.0 / cfg.c_x,
    )
    c1_star = cfg.c0 * cfg.b0 * inner
    return _mixed_sample_size(n, c1_star * n, cfg)


def dimension_adjusted_sample_size(n: int, d: int, cfg: AdaptiveConfig) -> float:
    """Second mixing-adjusted count whose log argument grows with sqrt(d)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    return _mixed_sample_size(n, cfg.b0 * cfg.c0 * n * 2.0 * math.sqrt(d) / cfg.c_x, cfg)


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


# A column whose residual against the active columns, in Sigma_hat's inner
# product, is at most this share of its diagonal lies in their span: it never
# joins, as its correlation is theirs (a zero column included).  Round-off
# leaves such residuals at up to 4e-13 on a1 stages; a nearly collinear
# column below this share would be taken for one in the span.
_LASSO_RANK_RTOL = 1e-11
_SIGNS = np.array([1.0, -1.0])


def lasso_path(gram: np.ndarray, moment: np.ndarray, penalties) -> np.ndarray:
    """The minimizer of theta^T G theta - 2 m^T theta + lam ||theta||_1 at each
    of the ``penalties`` lam, one row each, in input order, for the d x d
    ``gram`` G = (1/n) X^T X and the ``moment`` m = (1/n) X^T y.

    The exact LARS-lasso homotopy (Efron, Hastie, Johnstone & Tibshirani 2004):
    with mu = lam / 2 and the correlations c = m - G theta, theta = 0 at
    mu = max |m|, and walking mu down, the active set A holds the columns with
    |c_j| = mu.  On it G_AA theta_A = m_A - mu s_A, s the signs of c_A, so
    theta is linear in mu between knots, where a column's |c_j| reaches mu
    and it joins, or a coefficient reaches 0 and its column leaves.  A column
    in the span of the active ones never joins (see _LASSO_RANK_RTOL), so
    G_AA stays nonsingular on a rank-deficient Sigma_hat; a column that has
    just left may not rejoin at the sign it left before the next knot.
    Raises NumericError should round-off bring the path back to an active
    set it has left.
    """
    gram, moment = np.asarray(gram, dtype=float), np.asarray(moment, dtype=float)
    targets = np.asarray(penalties, dtype=float) / 2.0
    if np.any(targets < 0.0):
        raise ValueError("lasso penalties must be nonnegative")
    d = len(moment)
    diag, thetas = np.diag(gram), np.zeros((len(targets), d))
    active, signs, barred, left = [], [], None, set()
    mu = np.max(np.abs(moment), initial=0.0)
    for i in np.argsort(-targets, kind="stable"):
        while True:
            a, s = np.array(active, dtype=np.intp), np.array(signs)
            # theta_A = v - mu w, and c = p + mu q off the active set
            solved = np.linalg.solve(gram[np.ix_(a, a)],
                                     np.column_stack([moment[a], s, gram[a]]))
            v, w = solved[:, 0], solved[:, 1]
            p, q = moment - gram[:, a] @ v, gram[:, a] @ w
            free = diag - np.einsum("ij,ij->j", gram[a], solved[:, 2:]) > _LASSO_RANK_RTOL * diag
            free[a] = False
            # the mu at which each column joins at sign +1 (row 0) or -1 (row
            # 1), where sign c_j - mu grows at the rate 1 - sign q_j as mu
            # falls, or at which its coefficient reaches 0 and it leaves (row 2)
            knots = np.full((3, d), -np.inf)
            slopes = 1.0 - np.outer(_SIGNS, q)
            np.divide(np.outer(_SIGNS, p), slopes, out=knots[:2], where=free & (slopes > 0.0))
            leaving = s * w < 0.0
            knots[2, a[leaving]] = v[leaving] / w[leaving]
            if barred is not None:
                knots[barred] = -np.inf
            row, j = np.unravel_index(np.argmax(knots), knots.shape)
            knot = min(mu, knots[row, j])
            if knot <= targets[i]:
                mu = min(mu, targets[i])
                thetas[i, a] = s * np.maximum(s * (v - mu * w), 0.0)  # no round-off sign flip
                break
            # each signed active set holds on one interval of mu, so the
            # path leaves it once; a second time is round-off cycling
            state = (frozenset(zip(active, signs)), barred)
            if state in left:
                raise NumericError("the lasso path returned to an active set it had left")
            left.add(state)
            mu = knot
            if row < 2:
                active.append(j)
                signs.append(_SIGNS[row])
                barred = None
            else:
                k = active.index(j)
                barred = (int(signs[k] < 0.0), j)
                del active[k], signs[k]
    return thetas


DEFAULT_LASSO_GRID = tuple(float(v) for v in np.geomspace(1e-4, 1.0, 9))
LASSO_VAL_FRACTION = 0.2       # share of trajectories held out to choose the penalty


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


def _lasso_fitter(spectra: StageSpectra, grid: tuple, seed: int):
    """Lasso with the penalty chosen per stage on held-out trajectories.

    Lasso reads its stage as every method does, through Sigma_hat and the
    moment (``Stage.gram``, ``Stage.moment``).  One ``lasso_path`` on those of
    the fit split gives the whole grid, the penalty with the lowest target
    RMSE on the validation trajectories wins (the first on a tie), and one
    more path, on all trajectories', gives the stage's theta at that
    penalty.  The split depends on ``seed`` only.
    """
    if not grid:
        raise ValueError("lasso requires a nonempty penalty grid")
    n = len(spectra.dataset)
    n_val = lasso_holdout(n)
    if n - n_val < 1:
        raise DataError(f"lasso's validation split of {n} trajectories leaves no "
                        "training rows")
    val_idx, fit_idx = partition(n, n_val, seed)

    def fit(t, stage, targets, phi):
        path = lasso_path(stage.gram(fit_idx), stage.moment(targets, fit_idx), grid)
        rmse = [float(np.sqrt(np.mean((stage.predict(theta, val_idx) - targets[val_idx]) ** 2)))
                for theta in path]
        k = int(np.argmin(rmse))
        theta = lasso_path(stage.gram(), stage.moment(targets), [grid[k]])[0]
        return theta, grid[k], k, None

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
    squares, or lasso's exact path over ``lasso_grid``.  Baselines take no
    ``cfg``.
    ``spectra`` are the dataset's ``stage_spectra``, feature mask included;
    None builds them unmasked.  A masked stage is fit in its kept
    coordinates, and its theta is written into the d features with exact
    zeros everywhere else.
    Returns (ModelBundle, StageFitReports for t = 1..T, empty for a
    baseline); identical arguments produce an identical bundle, which
    records lasso's grid.
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
    grid = tuple(float(g) for g in lasso_grid) if method == LASSO else None
    if method == LS:
        fit = _fit_least_squares
    elif method == LASSO:
        fit = _lasso_fitter(spectra, grid, seed)
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
                         feature_mask=spectra.mask, lasso_grid=grid)
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
MODEL_VERSION = 3


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
        "lasso_grid": None if bundle.lasso_grid is None else list(bundle.lasso_grid),
    }
    return json.dumps(payload) + "\n"


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
    "lasso_grid": {**LASSO_GRID_NODE, "null": True},
}, required=("version", "horizon", "feature_dim", "filter", "stages", "config", "seed",
             "lasso_grid"))
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
    config, grid = payload["config"], payload["lasso_grid"]
    if config is not None and payload["filter"] in BASELINE_METHODS:
        raise DataError(f"{path}: field 'config' must be null for filter "
                        f"{payload['filter']!r}, which takes no adaptive configuration")
    if (grid is None) == (payload["filter"] == LASSO):
        want = "a penalty grid" if grid is None else "null"
        raise DataError(f"{path}: field 'lasso_grid' must be {want} for filter "
                        f"{payload['filter']!r}")
    with file_values(path):  # one stage record per stage; the mask's length and 0/1 entries
        return ModelBundle(
            horizon=payload["horizon"], feature_dim=payload["feature_dim"],
            filter_kind=payload["filter"], stages=tuple(stages),
            config=None if config is None else AdaptiveConfig(**config),
            seed=payload["seed"], feature_mask=payload.get("feature_mask"),
            lasso_grid=None if grid is None else tuple(float(g) for g in grid))
