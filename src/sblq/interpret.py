"""Interpretability reports: contribution proportions, clipped-weight flags,
and top-k feature-subset reward curves."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .learner import ModelBundle


# Share of the pooled weights in each tail that ``clipped_weights`` flags
CLIP_SHARE = 0.05


@dataclass(frozen=True)
class ContributionReport:
    """Per-feature importance shares."""

    labels: tuple            # one label per feature
    proportions: np.ndarray  # nonnegative, sums to 1
    ranking: np.ndarray      # feature indices by descending proportion

    def __post_init__(self):
        self.proportions.setflags(write=False)
        self.ranking.setflags(write=False)


def contribution_proportions(model: ModelBundle) -> ContributionReport:
    """Share of the time-averaged absolute coefficient mass per feature.

    Features are scale-comparable because inputs are unit-normalized, so no
    extra per-feature weighting is applied.
    """
    importance = np.mean(np.abs(model.theta_matrix()), axis=0)
    total = importance.sum()
    if total == 0.0:
        raise ValueError("all coefficients are zero; proportions undefined")
    proportions = importance / total
    ranking = np.argsort(-proportions, kind="stable")
    return ContributionReport(labels=tuple(f"f{j}" for j in range(model.feature_dim)),
                              proportions=proportions, ranking=ranking)


def clipped_weights(values) -> np.ndarray:
    """Flag the pooled weight ``values`` in the extreme tails, in their shape.

    A value is flagged when it lies strictly above the (1 - CLIP_SHARE)
    quantile or strictly below the CLIP_SHARE quantile of all of them, with
    quantiles linearly interpolated on the sorted pool.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty weight collection")
    lo = np.quantile(values, CLIP_SHARE)
    hi = np.quantile(values, 1.0 - CLIP_SHARE)
    return (values > hi) | (values < lo)


def topk_feature_rewards(report: ContributionReport,
                         trainer: Callable[[np.ndarray], ModelBundle],
                         evaluate: Callable[[ModelBundle], float],
                         ks: Sequence[int]) -> dict:
    """Reward as a function of how many top-ranked features are kept.

    For each k the columns outside the top-k features are zero-masked and
    the model is retrained via ``trainer(mask)``; the resulting curve maps k
    to ``evaluate(model)`` in input order.
    """
    d = len(report.labels)
    curve = {}
    for k in ks:
        if not 1 <= k <= d:
            raise ValueError(f"k = {k} outside 1..{d}")
        mask = np.zeros(d)
        mask[report.ranking[:k]] = 1.0
        curve[int(k)] = float(evaluate(trainer(mask)))
    return curve
