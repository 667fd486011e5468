import numpy as np
import pytest

import workloads
from dygwin.data import EdgeArray
from dygwin.features import WindowFeatureCache
from probes import CALL_SPAN, ORACLE_SPAN, Probe, brute_counts, layer_metrics
from tracer import Span, Tracer


def _edges(u, v, t):
    n = len(u)
    return EdgeArray(u, v, t, np.zeros((n, 0)), np.arange(n), np.zeros(n), np.zeros(n, bool))


def test_brute_counts_by_hand():
    # Parallel 0-1 edges, and two edges sharing t=3: both count at t=3.
    edges = _edges([0, 0, 1, 0, 2], [1, 1, 2, 2, 0], [1.0, 2.0, 2.0, 3.0, 3.0])
    assert brute_counts(edges, 3) == (4, 3, 1)
    assert brute_counts(edges, 0) == (1, 1, 0)
    assert brute_counts(edges, 2) == (3, 1, 0)


def test_brute_counts_match_program_on_a_window():
    graph = workloads.uci_shaped(600, seed=4)
    edges = graph.window(0, 600)
    cache = WindowFeatureCache(edges)
    positions = np.arange(0, 600, 7)
    got = cache.counts_matrix(positions)
    expected = np.asarray([brute_counts(edges, int(p)) for p in positions], dtype=np.float64)
    np.testing.assert_array_equal(got, expected)


def test_oracle_flags_wrong_counts(monkeypatch):
    monkeypatch.setattr(workloads, "WINDOW", 300)
    original = WindowFeatureCache.counts_matrix
    monkeypatch.setattr(WindowFeatureCache, "counts_matrix",
                        lambda cache, positions: original(cache, positions) + [1.0, 0.0, 0.0])
    broken = WindowFeatureCache.counts_matrix
    probe = Probe(Tracer(), seed=0)
    call = workloads.flp_eval_k1(0)
    with probe.installed():
        call.run(lambda: None)
    assert probe.oracle_rows > 0
    assert probe.oracle_mismatches == probe.oracle_rows
    assert WindowFeatureCache.counts_matrix is broken  # the wrapper is gone on exit


def test_trace_metrics_leave_out_the_oracle_and_the_call_span():
    probe = Probe(Tracer(), seed=0)
    probe.tracer.spans = [Span(CALL_SPAN, 0.0, 10.0, -1, -1),
                          Span("encoder.encode", 1.0, 5.0, 0, 0),
                          Span(ORACLE_SPAN, 2.0, 3.0, 1, 0)]
    m = layer_metrics(probe, untraced_walls=[8.0], epoch_seconds=[])
    assert m["trace.overhead_ratio"][0] == pytest.approx(1.0 - 8.0 / 9.0)
    assert m["trace.blocking_coverage"][0] == pytest.approx(3.0 / 8.0)
    assert m["trace.unattributed_share"][0] == pytest.approx(6.0 / 9.0)
    probe.tracer.spans = probe.tracer.spans[:1]  # no layer probed: nothing covered
    assert layer_metrics(probe, [8.0], [])["trace.blocking_coverage"][0] == 0.0
