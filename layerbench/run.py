"""Layered benchmark of the AIG optimizer: one workload per run, or all four.

Run from the repository root::

    python3 layerbench/run.py --workload sa_ground_truth --seed 1 --seconds 15 --trace 0
    python3 layerbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` runs the same work untraced and then traced and prints the per-layer
metrics.  The last line of standard output is one JSON object; the exit
code is nonzero when any correctness verdict fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from layerbench.tracer import now  # noqa: E402  (the set-up clock starts before heavy imports)

STARTED = now()
WORKLOADS = ("sa_ground_truth", "sa_ml", "label_train", "service_jobs")


def load_catalog() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_one(args: argparse.Namespace) -> int:
    import repro  # noqa: F401  (fails fast, before any output, without the program)

    from layerbench.common import Context, check_digest, run_record_path

    if args.workload == "service_jobs":
        from layerbench.service import run
    elif args.workload == "label_train":
        from layerbench.label import run
    else:
        from layerbench.sa import run

    catalog = load_catalog()
    work = ROOT / ".layerbench-work"
    reference = None
    if args.trace:
        # The traced run times the same work as an untraced run of the same
        # seed, made first in a fresh process so both start equally cold.
        untraced = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        if untraced.returncode != 0:
            print(untraced.stdout[-4000:], untraced.stderr[-4000:], file=sys.stderr)
            return 1
        reference = json.loads(run_record_path(work, args.workload, args.seed).read_text(encoding="utf-8"))
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work, STARTED, reference)
    names = {kind: list(units) for kind, units in catalog.items()}
    outcome = run(ctx, names)
    check_digest(ctx, outcome)

    failed = len(outcome.problems)
    attempted = max(outcome.attempted, 1)
    if args.trace:
        kind, values = "per_layer", outcome.per_layer
    else:
        kind, values = "end_to_end", dict(outcome.end_to_end, ok_ratio=1.0 - failed / attempted)
    units = catalog[kind]
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"{args.workload} did not measure {missing}")
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    print(f"verdicts: {attempted - failed}/{attempted} passed")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; every end-to-end metric and verdict printed."""
    summary = {}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(completed.stderr, file=sys.stderr)
            status = 1
        summary[workload] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
