"""Ranking and classification metrics with exact, oracle-verifiable semantics.

All four metrics depend only on the ordering of scores, so they are
invariant under strictly monotone score transformations. Ties in the
ranking metrics resolve pessimistically: a positive ranks below every
negative it ties with.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class EvalRecord:
    """One scored candidate edge; group_id ties a positive to its negatives."""

    score: float
    label: int
    group_id: int = 0


def average_precision(records) -> float | None:
    """Mean of precision-at-rank over the positives' ranks (rank-sum form).

    Scores sort descending; ties keep input order. Returns ``None`` with a
    warning when there is no positive to rank.
    """
    records = list(records)
    labels = np.asarray([r.label for r in records], dtype=np.int64)
    scores = np.asarray([r.score for r in records], dtype=np.float64)
    positives = int(labels.sum())
    if positives == 0:
        warnings.warn("average_precision undefined: no positive records")
        return None
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    cumulative = np.cumsum(sorted_labels)
    ranks = np.arange(1, len(records) + 1)
    precision_at_hits = cumulative[sorted_labels == 1] / ranks[sorted_labels == 1]
    return float(precision_at_hits.sum() / positives)


def _positive_rank(group) -> int:
    """Pessimistic rank of the group's single positive (1-based)."""
    group = list(group)
    pos = [r for r in group if r.label == 1]
    if len(pos) != 1:
        raise ContractError(f"ranking group must contain exactly one positive, got {len(pos)}")
    pos_score = pos[0].score
    above = sum(1 for r in group if r.score > pos_score)
    tied_negatives = sum(1 for r in group if r.label == 0 and r.score == pos_score)
    return above + tied_negatives + 1


def mrr(groups) -> float:
    """Mean over groups of 1 / rank(positive)."""
    ranks = [_positive_rank(g) for g in groups]
    if not ranks:
        raise ContractError("mrr needs at least one group")
    return float(np.mean([1.0 / r for r in ranks]))


def recall_at_k(groups, k: int = 10) -> float:
    """Fraction of groups whose positive ranks within the top k."""
    ranks = [_positive_rank(g) for g in groups]
    if not ranks:
        raise ContractError("recall_at_k needs at least one group")
    return float(np.mean([1.0 if r <= k else 0.0 for r in ranks]))


def auc(records) -> float | None:
    """Probability a random positive outscores a random negative, ties at 1/2.

    Exact rank-statistic evaluation; single-class input returns ``None``
    with a warning.
    """
    records = list(records)
    pos = np.sort(np.asarray([r.score for r in records if r.label == 1], dtype=np.float64))
    neg = np.sort(np.asarray([r.score for r in records if r.label == 0], dtype=np.float64))
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
