"""Self-time arithmetic, span nesting and wrapper installation."""

import pytest

from layerbench.tracer import Target, Tracer, clip, install, make_wrapper, self_times, union_length


def row(name, start, end, parent=None):
    return [name, start, end, parent, None, 0, {}]


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (2.5, 2.7)]) == 3.0
    assert union_length([(1, 4), (0, 2)]) == 4.0


def test_clip_keeps_only_window_parts():
    assert clip([(0, 10)], [(2, 3), (5, 7)]) == [(2, 3), (5, 7)]
    assert clip([(0, 1)], [(2, 3)]) == []


def test_self_time_subtracts_children():
    spans = [
        row("parent", 0.0, 10.0),
        row("child", 1.0, 3.0, parent=0),
        row("child", 4.0, 8.0, parent=0),
        row("grandchild", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        row("parent", 0.0, 10.0),
        row("a", 2.0, 6.0, parent=0),
        row("b", 4.0, 8.0, parent=0),  # overlaps a (another thread)
        row("c", 9.0, 12.0, parent=0),  # outlives the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_and_names_traces_late():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.set_trace("job-1")
    tracer.close(inner)
    tracer.close(outer)
    spans = tracer.export()["spans"]
    assert [s[0] for s in spans] == ["outer", "inner"]
    assert spans[1][3] == 0 and spans[0][3] is None
    assert {s[4] for s in spans} == {"job-1"}
    with tracer.scope("sa:1"):
        tracer.close(tracer.open("root"))
    assert tracer.export()["spans"][2][4] == "sa:1"


def test_wrapper_records_one_span_per_same_layer_reentry():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = make_wrapper(tracer, Target("m", "inner", "io.parse"), inner)

    def outer():
        return wrapped_inner() + 1

    wrapped_outer = make_wrapper(tracer, Target("m", "outer", "io.parse"), outer)
    assert wrapped_outer() == 2
    assert [s[0] for s in tracer.export()["spans"]] == ["io.parse"]


def test_install_wraps_import_time_bindings_and_uninstalls():
    import repro.evaluation
    import repro.sta.analysis
    from repro.transforms.base import Transform

    original = repro.sta.analysis.analyze_timing
    original_run = Transform.run
    installation = install(Tracer())
    try:
        assert repro.evaluation.analyze_timing is repro.sta.analysis.analyze_timing
        assert repro.evaluation.analyze_timing is not original
        assert Transform.run is not original_run
    finally:
        installation.uninstall()
    assert repro.evaluation.analyze_timing is original
    assert Transform.run is original_run


def test_traced_evaluation_books_mapping_under_the_evaluator():
    from repro.api import SynthesisSession
    from repro.designs.registry import build_design

    from layerbench.layers import aggregate, combine

    tracer = Tracer()
    installation = install(tracer)
    try:
        session = SynthesisSession()
        aig = build_design("EX68", use_cache=False)
        session.evaluate(aig)
        session.evaluate(aig)
    finally:
        installation.uninstall()
    doc = tracer.export()
    rows, counters = combine([doc])
    calls, seconds = aggregate(rows, [(float("-inf"), float("inf"))])
    assert calls["api.evaluate"] == 2
    assert calls["mapping.map"] == calls["sta.analyze"] == 1
    assert counters["api.hits"] == 1 and counters["api.misses"] == 1
    by_name = {row[0]: row for row in rows}
    assert rows[by_name["mapping.map"][3]][0] == "api.evaluate"
