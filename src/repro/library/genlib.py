"""Parser for the genlib-lite standard-cell description format.

The format is a line-oriented simplification of Berkeley genlib with explicit
per-pin timing::

    # comment
    GATE <name> <area_um2> <output>=<expression>;
      PIN <pin_name> <cap_fF> <intrinsic_ps> <resistance_ps_per_fF>
      PIN ...

Pins must be declared in truth-table variable order (pin 0 first).  All pins
referenced by the expression must be declared, and vice versa.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ParseError
from repro.library.cell import Cell, PinTiming
from repro.library.expr import parse_expression


def parse_genlib(text: str) -> List[Cell]:
    """Parse genlib-lite *text* into a list of cells."""
    cells: List[Cell] = []
    current_gate: Tuple[str, float, str, str] = None  # name, area, output, expr
    current_pins: List[PinTiming] = []

    def finish_gate() -> None:
        nonlocal current_gate, current_pins
        if current_gate is None:
            return
        name, area, output_name, expression = current_gate
        pin_names = [pin.name for pin in current_pins]
        function = parse_expression(expression, pin_names)
        cells.append(
            Cell(
                name=name,
                function=function,
                num_inputs=len(current_pins),
                area_um2=area,
                pins=tuple(current_pins),
                output_name=output_name,
            )
        )
        current_gate = None
        current_pins = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split()[0].upper()
        if keyword == "GATE":
            finish_gate()
            current_gate = _parse_gate_line(line, line_number)
        elif keyword == "PIN":
            if current_gate is None:
                raise ParseError(f"line {line_number}: PIN before any GATE")
            current_pins.append(_parse_pin_line(line, line_number))
        else:
            raise ParseError(f"line {line_number}: unknown keyword {keyword!r}")
    finish_gate()
    if not cells:
        raise ParseError("genlib file declares no gates")
    return cells


def _parse_gate_line(line: str, line_number: int) -> Tuple[str, float, str, str]:
    body = line[len("GATE"):].strip()
    if not body.endswith(";"):
        raise ParseError(f"line {line_number}: GATE line must end with ';'")
    body = body[:-1].strip()
    parts = body.split(None, 2)
    if len(parts) != 3:
        raise ParseError(
            f"line {line_number}: expected 'GATE name area out=expr;', got {line!r}"
        )
    name, area_text, function_text = parts
    try:
        area = float(area_text)
    except ValueError as exc:
        raise ParseError(f"line {line_number}: bad area {area_text!r}") from exc
    if "=" not in function_text:
        raise ParseError(f"line {line_number}: function must be 'out=expr'")
    output_name, _, expression = function_text.partition("=")
    return name, area, output_name.strip(), expression.strip()


def _parse_pin_line(line: str, line_number: int) -> PinTiming:
    parts = line.split()
    if len(parts) != 5:
        raise ParseError(
            f"line {line_number}: expected 'PIN name cap intrinsic resistance', got {line!r}"
        )
    _, pin_name, cap_text, intrinsic_text, resistance_text = parts
    try:
        capacitance = float(cap_text)
        intrinsic = float(intrinsic_text)
        resistance = float(resistance_text)
    except ValueError as exc:
        raise ParseError(f"line {line_number}: bad numeric pin field") from exc
    if capacitance < 0 or intrinsic < 0 or resistance < 0:
        raise ParseError(f"line {line_number}: pin values must be non-negative")
    return PinTiming(
        name=pin_name,
        capacitance_ff=capacitance,
        intrinsic_ps=intrinsic,
        resistance_ps_per_ff=resistance,
    )
