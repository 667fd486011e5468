"""Ranking and classification metrics with exact, oracle-verifiable semantics.

All four metrics depend only on the ordering of scores, so they are
invariant under strictly monotone score transformations. Ties in the
ranking metrics resolve pessimistically: a positive ranks below every
negative it ties with. FLP decodes each pass's candidate table in one call,
so a negative ties its positive exactly when their decoder inputs are
bit-equal, whatever the pass layout.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .errors import ContractError


def _columns(scores, *integer_columns) -> list[np.ndarray]:
    """Scores as float64 and each further column as int64, checked to be equal in length."""
    columns = [np.asarray(scores, dtype=np.float64).ravel()]
    columns += [np.asarray(c, dtype=np.int64).ravel() for c in integer_columns]
    if len({c.size for c in columns}) > 1:
        raise ContractError(f"metric inputs differ in length: {[c.size for c in columns]}")
    return columns


def average_precision(scores, labels) -> float | None:
    """Mean of precision-at-rank over the positives' ranks (rank-sum form).

    Scores sort descending; ties keep input order. Returns ``None`` with a
    warning when there is no positive to rank.
    """
    scores, labels = _columns(scores, labels)
    positives = int(labels.sum())
    if positives == 0:
        warnings.warn("average_precision undefined: no positive records")
        return None
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    cumulative = np.cumsum(sorted_labels)
    ranks = np.arange(1, len(labels) + 1)
    precision_at_hits = cumulative[sorted_labels == 1] / ranks[sorted_labels == 1]
    return float(precision_at_hits.sum() / positives)


def _positive_ranks(scores, labels, groups) -> np.ndarray:
    """Pessimistic 1-based rank of each group's single positive, in group-id
    order. ``groups`` holds each candidate's group id; sizes may differ."""
    scores, labels, groups = _columns(scores, labels, groups)
    ids, member = np.unique(groups, return_inverse=True)
    positive = labels == 1
    if ids.size == 0 or np.any(np.bincount(member[positive], minlength=ids.size) != 1):
        raise ContractError("ranking needs at least one group, each with exactly one positive")
    positive_score = np.empty(ids.size)
    positive_score[member[positive]] = scores[positive]
    target = positive_score[member]  # each candidate's own group's positive
    beaten = (scores > target) | ((scores == target) & (labels == 0))
    return 1.0 + np.bincount(member, weights=beaten, minlength=ids.size)


def mrr(scores, labels, groups) -> float:
    """Mean over groups of 1 / rank(positive)."""
    return float(np.mean(1.0 / _positive_ranks(scores, labels, groups)))


def recall_at_k(scores, labels, groups, k: int = 10) -> float:
    """Fraction of groups whose positive ranks within the top k."""
    return float(np.mean(_positive_ranks(scores, labels, groups) <= k))


def auc(scores, labels) -> float | None:
    """Probability a random positive outscores a random negative, ties at 1/2.

    Exact rank-statistic evaluation; single-class input returns ``None``
    with a warning.
    """
    scores, labels = _columns(scores, labels)
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        warnings.warn("auc undefined: need at least one positive and one negative")
        return None
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    wins = below.sum() + 0.5 * tied.sum()
    return float(wins / (pos.size * neg.size))


def write_metrics_report(path, rows) -> None:
    """Flat report: one ``metric,horizon,split,value,seed`` line per entry."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "horizon", "split", "value", "seed"])
        for metric, horizon, split, value, seed in rows:
            writer.writerow([metric, horizon, split,
                             "" if value is None else f"{value:.10f}", seed])
