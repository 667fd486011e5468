"""Metric semantics pinned by brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dygwin.errors import ContractError
from dygwin.metrics import EvalRecord, auc, average_precision, mrr, recall_at_k


# Oracles: independent O(n^2) / direct-definition implementations.

def oracle_average_precision(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / rank
    positives = sum(labels)
    return total / positives if positives else None


def oracle_rank(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    assert len(pos) == 1
    s = pos[0]
    rank = 1
    for other, y in zip(scores, labels):
        if other > s:
            rank += 1
        elif other == s and y == 0:
            rank += 1
    return rank


def oracle_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def records(scores, labels, group=0):
    return [EvalRecord(float(s), int(y), group) for s, y in zip(scores, labels)]


class TestAveragePrecision:
    def test_hand_example(self):
        value = average_precision(records([0.9, 0.8, 0.7], [1, 0, 1]))
        assert abs(value - (1 + 2 / 3) / 2) < 1e-12

    def test_perfect_ranking(self):
        assert average_precision(records([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0

    def test_all_positive_degenerate(self):
        assert average_precision(records([0.1, 0.9, 0.5], [1, 1, 1])) == 1.0

    def test_no_positives_absent_with_warning(self):
        with pytest.warns(UserWarning):
            assert average_precision(records([0.4, 0.2], [0, 0])) is None

    def test_ties_broken_by_input_order(self):
        value = average_precision(records([0.5, 0.5, 0.5], [0, 1, 0]))
        assert abs(value - 0.5) < 1e-12


class TestRankingGroups:
    def test_positive_above_all(self):
        group = records([1.0] + [0.0] * 500, [1] + [0] * 500)
        assert mrr([group]) == 1.0

    def test_rank_three(self):
        group = records([0.5, 0.9, 0.8], [1, 0, 0])
        assert abs(mrr([group]) - 1 / 3) < 1e-12

    def test_tied_with_two_negatives_pessimistic(self):
        group = records([0.9, 0.9, 0.9, 0.1], [1, 0, 0, 0])
        assert abs(mrr([group]) - 1 / 3) < 1e-12

    def test_malformed_group_rejected(self):
        with pytest.raises(ContractError):
            mrr([records([0.5, 0.4], [1, 1])])
        with pytest.raises(ContractError):
            mrr([records([0.5], [0])])

    def test_recall_boundaries(self):
        rank10 = records([1.0] * 9 + [0.5] + [0.0] * 5, [0] * 9 + [1] + [0] * 5)
        rank11 = records([1.0] * 10 + [0.5] + [0.0] * 4, [0] * 10 + [1] + [0] * 4)
        assert recall_at_k([rank10], 10) == 1.0
        assert recall_at_k([rank11], 10) == 0.0

    def test_recall_perfect(self):
        groups = [records([1.0, 0.1], [1, 0]) for _ in range(7)]
        assert recall_at_k(groups, 10) == 1.0

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(0)
        groups = []
        for _ in range(30):
            scores = rng.random(20)
            labels = np.zeros(20, dtype=int)
            labels[rng.integers(0, 20)] = 1
            groups.append(records(scores, labels))
        values = [recall_at_k(groups, k) for k in range(1, 21)]
        assert values == sorted(values)


class TestAuc:
    def test_enumerated_pairs(self):
        value = auc(records([0.9, 0.4, 0.5, 0.3], [1, 1, 0, 0]))
        assert value == 0.75

    def test_all_ties_half(self):
        assert auc(records([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0])) == 0.5

    def test_perfect_separation(self):
        assert auc(records([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0

    def test_single_class_absent_with_warning(self):
        with pytest.warns(UserWarning):
            assert auc(records([0.9, 0.8], [1, 1])) is None


class TestOracleEquivalence:
    def test_ap_and_auc_match_oracles(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            scores = np.round(rng.random(n), 2)  # coarse values force ties
            labels = (rng.random(n) < 0.4).astype(int)
            recs = records(scores, labels)
            assert average_precision(recs) == oracle_average_precision(scores, labels) \
                or abs(average_precision(recs) - oracle_average_precision(scores, labels)) < 1e-12
            assert auc(recs) == oracle_auc(scores.tolist(), labels.tolist())

    def test_ranking_metrics_match_oracles(self):
        rng = np.random.default_rng(8)
        groups, ranks = [], []
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            scores = np.round(rng.random(n), 1)
            labels = np.zeros(n, dtype=int)
            labels[rng.integers(0, n)] = 1
            groups.append(records(scores, labels))
            ranks.append(oracle_rank(scores.tolist(), labels.tolist()))
        assert abs(mrr(groups) - np.mean([1 / r for r in ranks])) < 1e-12
        for k in (1, 5, 10):
            assert recall_at_k(groups, k) == np.mean([r <= k for r in ranks])


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_monotone_transform_invariance(data):
    n = data.draw(st.integers(3, 25))
    # dyadic grid keeps the affine transform exactly tie-preserving
    scores = np.asarray(data.draw(st.lists(st.integers(-40, 40), min_size=n,
                                           max_size=n))) / 8.0
    labels = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.sum() == 0 or labels.sum() == n:
        return
    transformed = 3.0 * scores + 1.0  # strictly monotone, tie-preserving
    assert average_precision(records(scores, labels)) == \
        pytest.approx(average_precision(records(transformed, labels)), abs=1e-12)
    assert auc(records(scores, labels)) == \
        pytest.approx(auc(records(transformed, labels)), abs=1e-12)
