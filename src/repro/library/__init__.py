"""Standard-cell library: cell model, genlib-lite parser, built-in sky130-lite."""

from repro.library.cell import Cell, PinTiming
from repro.library.expr import parse_expression
from repro.library.genlib import parse_genlib
from repro.library.library import CellLibrary, Match, cell_variants
from repro.library.sky130_lite import (
    DEFAULT_PO_LOAD_FF,
    SKY130_LITE_GENLIB,
    load_sky130_lite,
)

__all__ = [
    "Cell",
    "CellLibrary",
    "DEFAULT_PO_LOAD_FF",
    "Match",
    "PinTiming",
    "SKY130_LITE_GENLIB",
    "cell_variants",
    "load_sky130_lite",
    "parse_expression",
    "parse_genlib",
]
