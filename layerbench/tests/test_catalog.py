"""BENCHMARK.json names and the metrics the benchmark computes agree."""

import json
import re
from pathlib import Path

from layerbench.layers import BYPASSED, EXERCISED, coverage_failures, per_layer_metrics

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def all_metrics():
    return SPEC["end_to_end"] + SPEC["per_layer"]


def test_names_match_the_metric_name_pattern():
    names = [m["name"] for m in all_metrics()] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)


def test_units_and_bounds_are_well_formed():
    assert all(UNIT.match(m["unit"]) for m in all_metrics())
    assert all(m["better"] in ("higher", "lower") for m in all_metrics())
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_per_layer_metric_is_computed():
    names = [m["name"] for m in SPEC["per_layer"]]
    values = per_layer_metrics(names, [], [(0.0, 1.0)], 0.0)
    assert list(values) == names


def test_coverage_table_names_every_workload():
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(EXERCISED) == set(BYPASSED) == workloads


def test_coverage_flags_missing_and_bypassed_calls():
    calls = {"transforms.rw": 3, "opt.sa": 1, "aig.enumerate_cuts": 2, "features.extract": 5, "ml.predict": 5}
    assert coverage_failures("sa_ml", calls, sa_runs=1) == []
    problems = coverage_failures("sa_ml", {**calls, "mapping.map": 3}, sa_runs=1)
    assert problems and "mapping.map" in problems[0]
    problems = coverage_failures("sa_ground_truth", {"ml.predict": 1}, sa_runs=1)
    assert any("transforms" in p for p in problems) and any("ml" in p for p in problems)
