"""Fig. 2 benchmark — per-iteration runtime, baseline vs ground-truth flow.

Paper reference: the ground-truth flow is up to ~20x slower per iteration,
with the gap growing with design size.  In this pure-Python stack the
transformation step is relatively more expensive than in ABC, so the absolute
ratio is smaller; the shape (ground truth strictly slower, overhead grows
with design size) is asserted here.
"""

from conftest import run_once

from repro.experiments.fig2_runtime import run_fig2_runtime


def test_fig2_runtime_comparison(benchmark, bench_config, save_result):
    result = run_once(benchmark, lambda: run_fig2_runtime(bench_config))

    save_result("fig2_runtime", result.format_table())

    assert len(result.rows) == len(bench_config.all_designs())
    for row in result.rows:
        assert row.ground_truth_seconds > row.baseline_seconds
    assert result.max_slowdown > 1.0

    # The mapping+STA overhead should grow with design size: the largest
    # design's absolute overhead must exceed the smallest design's.
    ordered = sorted(result.rows, key=lambda r: r.num_ands)
    overhead_small = ordered[0].ground_truth_seconds - ordered[0].baseline_seconds
    overhead_large = ordered[-1].ground_truth_seconds - ordered[-1].baseline_seconds
    assert overhead_large > overhead_small
