"""Standard-cell data model.

A cell is a single-output combinational gate with:

* a Boolean function, stored as a truth table over its input pins
  (pin 0 is truth-table variable 0),
* an area in square micrometres,
* per-pin timing data for a linear delay model:
  ``delay(pin -> out) = intrinsic + resistance * output_load``,
  with input capacitances contributing to the load of the driving cell.

This is deliberately simpler than Liberty NLDM tables, but it keeps the two
effects the paper identifies as the sources of proxy/ground-truth
miscorrelation: multi-input cells shorten mapped paths relative to AIG depth,
and load-dependent delay makes high-fanout nets slow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.aig.truth import support, table_mask
from repro.errors import LibraryError


@dataclass(frozen=True)
class PinTiming:
    """Timing and electrical data of one input pin."""

    name: str
    capacitance_ff: float
    intrinsic_ps: float
    resistance_ps_per_ff: float

    def delay_ps(self, load_ff: float) -> float:
        """Pin-to-output delay for a given output load."""
        return self.intrinsic_ps + self.resistance_ps_per_ff * load_ff


@dataclass(frozen=True)
class Cell:
    """A combinational standard cell."""

    name: str
    function: int
    num_inputs: int
    area_um2: float
    pins: Tuple[PinTiming, ...]
    output_name: str = "Y"

    def __post_init__(self) -> None:
        if self.num_inputs < 0:
            raise LibraryError(f"cell {self.name}: negative input count")
        if len(self.pins) != self.num_inputs:
            raise LibraryError(
                f"cell {self.name}: {self.num_inputs} inputs but {len(self.pins)} pins"
            )
        if self.area_um2 <= 0:
            raise LibraryError(f"cell {self.name}: area must be positive")
        mask = table_mask(self.num_inputs)
        if self.function & ~mask:
            raise LibraryError(
                f"cell {self.name}: truth table wider than {self.num_inputs} inputs"
            )

    @property
    def input_names(self) -> List[str]:
        """Input pin names in pin order."""
        return [pin.name for pin in self.pins]

    def worst_delay_ps(self, load_ff: float) -> float:
        """Slowest pin-to-output delay at the given load."""
        if not self.pins:
            return 0.0
        return max(pin.delay_ps(load_ff) for pin in self.pins)

    def is_inverter(self) -> bool:
        """True for a single-input inverting cell."""
        return self.num_inputs == 1 and self.function == 0b01

    def is_buffer(self) -> bool:
        """True for a single-input non-inverting cell."""
        return self.num_inputs == 1 and self.function == 0b10

    def depends_on_all_inputs(self) -> bool:
        """True when the function's support covers every declared pin."""
        return len(support(self.function, self.num_inputs)) == self.num_inputs

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({', '.join(self.input_names)})"
