"""Static timing analysis with a linear load-dependent delay model."""

from repro.sta.analysis import (
    TimingArc,
    TimingReport,
    analyze_timing,
    compute_net_loads,
)
from repro.sta.report import format_cell_usage, format_timing_report

__all__ = [
    "TimingArc",
    "TimingReport",
    "analyze_timing",
    "compute_net_loads",
    "format_cell_usage",
    "format_timing_report",
]
