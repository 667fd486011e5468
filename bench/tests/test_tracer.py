import pytest

from tracer import Span, Tracer, self_time_by_name, self_times, total_time_by_name


def test_self_time_subtracts_direct_children_only():
    spans = [Span("call", 0.0, 10.0, -1, -1),
             Span("encode", 1.0, 5.0, 0, 0),
             Span("counts", 2.0, 3.0, 1, 0),
             Span("encode", 6.0, 9.0, 0, 1),
             Span("counts", 6.5, 7.0, 3, 1)]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 2.5, 0.5])
    assert self_time_by_name(spans) == pytest.approx({"call": 3.0, "encode": 5.5,
                                                      "counts": 1.5})
    assert total_time_by_name(spans) == pytest.approx({"call": 10.0, "encode": 7.0,
                                                       "counts": 1.5})
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_records_parents_and_windows():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("call"):
        tracer.window = 0
        with tracer.span("encode"):
            with tracer.span("counts"):
                pass
        with tracer.span("backward"):
            pass
    assert [(s.name, s.parent, s.window) for s in tracer.spans] == [
        ("call", -1, -1), ("encode", 0, 0), ("counts", 1, 0), ("backward", 0, 0)]
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 1.0]

