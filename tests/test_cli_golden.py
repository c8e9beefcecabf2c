"""Golden-file regression tests for CLI output.

PR 1 verified byte-identical CLI behavior against the legacy wiring by
hand; these tests pin the current output of ``repro optimize`` and
``repro flow`` on fixed seeds into ``tests/golden/`` so any future refactor
can prove byte-identical behavior mechanically.  Only the wall-clock
``runtime`` line is normalized — everything else must match exactly.

To regenerate after an *intentional* behavior change::

    PYTHONPATH=src python -m repro optimize EX00 --script compress2 \
        > tests/golden/optimize_ex00_compress2.txt
    PYTHONPATH=src python -m repro flow EX00 --flow baseline \
        --iterations 6 --seed 7 | sed -E \
        's/^(runtime            : ).*/\\1<RUNTIME>/' \
        > tests/golden/flow_ex00_baseline_seed7.txt
    # likewise for flow_ex68_baseline_seed11.txt (EX68, seed 11)
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_RUNTIME_RE = re.compile(r"^(runtime            : ).*$", flags=re.MULTILINE)


def _normalize(text: str) -> str:
    return _RUNTIME_RE.sub(r"\1<RUNTIME>", text)


def _run_cli(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_optimize_output_matches_golden(capsys):
    out = _run_cli(capsys, ["optimize", "EX00", "--script", "compress2"])
    assert out == _golden("optimize_ex00_compress2.txt")


@pytest.mark.parametrize(
    "design, seed, golden",
    [
        ("EX00", 7, "flow_ex00_baseline_seed7.txt"),
        ("EX68", 11, "flow_ex68_baseline_seed11.txt"),
    ],
)
def test_flow_output_matches_golden(capsys, design, seed, golden):
    out = _run_cli(
        capsys,
        [
            "flow",
            design,
            "--flow",
            "baseline",
            "--iterations",
            "6",
            "--seed",
            str(seed),
        ],
    )
    assert _normalize(out) == _golden(golden)


def test_flow_with_incremental_evaluator_matches_golden_numbers(capsys):
    """`--evaluator incremental` is an alias of the cached evaluator, so its
    output is the golden output, line for line."""
    out = _run_cli(
        capsys,
        [
            "flow",
            "EX68",
            "--flow",
            "baseline",
            "--iterations",
            "6",
            "--seed",
            "11",
            "--evaluator",
            "incremental",
        ],
    )
    assert _normalize(out) == _golden("flow_ex68_baseline_seed11.txt")
