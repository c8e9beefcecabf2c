"""Launch ``repro serve`` with the benchmark's wrappers installed in its process.

    python3 layerbench/serve_traced.py TRACE_OUT [repro serve arguments...]

Behaves exactly like ``python -m repro serve`` and, when stopped with
SIGINT or SIGTERM, writes the server's spans and counters to TRACE_OUT.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from layerbench.tracer import Tracer, install, write_trace  # noqa: E402


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def main() -> int:
    trace_out, serve_args = sys.argv[1], sys.argv[2:]
    from repro.cli import main as repro_main

    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        write_trace(tracer, trace_out)


if __name__ == "__main__":
    sys.exit(main())
