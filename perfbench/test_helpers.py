"""Tests of the benchmark's own helpers:  python3 -m pytest perfbench"""

import pytest

from helpers import (
    Ledger,
    Span,
    Tracer,
    failure_ratio,
    percentile,
    samples_beyond,
    self_time,
    tail_percentile,
)


# -- percentile rule ---------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [
    (9, None),       # fewer than 10 beyond even the median
    (20, 50.0),      # 10 beyond p50
    (39, 50.0),      # p75 leaves only 9 beyond
    (40, 75.0),
    (99, 75.0),      # p90 leaves only 9 beyond
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_tail_percentile_is_the_highest_qualifying():
    for n in range(1, 3000, 7):
        p = tail_percentile(n)
        higher = [q for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0) if p is None or q > p]
        assert all(samples_beyond(n, q) < 10 for q in higher)


# -- span self time ----------------------------------------------------


def span(span_id, parent, start, end, name="s"):
    return Span(span_id, parent, 0, name, start, end)


def test_self_time_without_children_is_duration():
    root = span(0, None, 1.0, 3.5)
    assert self_time(root, [root]) == pytest.approx(2.5)


def test_self_time_subtracts_direct_children_only():
    root = span(0, None, 0.0, 10.0)
    child_a = span(1, 0, 1.0, 3.0)
    child_b = span(2, 0, 5.0, 9.0)
    grandchild = span(3, 1, 1.5, 2.0)
    spans = [root, child_a, child_b, grandchild]
    assert self_time(root, spans) == pytest.approx(4.0)
    assert self_time(child_a, spans) == pytest.approx(1.5)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    root = span(0, None, 0.0, 10.0)
    spans = [root, span(1, 0, 2.0, 6.0), span(2, 0, 4.0, 7.0), span(3, 0, 9.0, 12.0)]
    # covered: [2, 7] and [9, 10]
    assert self_time(root, spans) == pytest.approx(4.0)


def test_tracer_nests_spans_and_shares_the_request_id():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("step"):
        with tracer.span("forward"):
            pass
        with tracer.span("backward"):
            pass
    with tracer.span("step"):
        pass
    by_id = {s.span_id: s for s in tracer.spans}
    assert sorted(by_id) == [0, 1, 2, 3]
    first, forward, backward, second = (by_id[i] for i in range(4))
    assert (forward.parent_id, backward.parent_id) == (0, 0)
    assert first.parent_id is None and second.parent_id is None
    assert {first.trace_id, forward.trace_id, backward.trace_id} == {0}
    assert second.trace_id == 3
    assert tracer.durations("step") == [5.0, 1.0]
    assert self_time(first, tracer.spans) == pytest.approx(3.0)


def test_tracer_closes_a_span_when_the_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert [s.name for s in tracer.spans] == ["boom"]
    with tracer.span("next"):
        pass
    assert tracer.spans[-1].parent_id is None


def test_tracer_writes_one_json_line_per_span(tmp_path):
    import json

    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["a", "b"]
    assert rows[1]["parent_id"] == rows[0]["span_id"]
    assert rows[0]["self"] <= rows[0]["end"] - rows[0]["start"]


# -- failure ratio -----------------------------------------------------


def test_failure_ratio():
    assert failure_ratio(0, 5) == 0.0
    assert failure_ratio(1, 4) == 0.25
    assert failure_ratio(3, 3) == 1.0
    with pytest.raises(ValueError):
        failure_ratio(0, 0)
    with pytest.raises(ValueError):
        failure_ratio(4, 3)
    with pytest.raises(ValueError):
        failure_ratio(-1, 3)


def test_ledger_counts_attempts_and_failures():
    ledger = Ledger()
    assert ledger.check(True, "fine") is True
    assert ledger.check(False, "broken") is False
    ledger.check(1 == 1, "also fine")
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert ledger.errors == ["broken"]
    assert ledger.ratio == pytest.approx(1 / 3)
