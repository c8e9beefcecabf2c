"""Technology-mapped gate-level netlist.

The mapper produces a :class:`MappedNetlist`: a flat list of standard-cell
instances connected by integer-numbered nets.  Gates are stored in
topological order (every gate's inputs are primary inputs, constants, or
outputs of earlier gates), which lets the STA engine run in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.library.cell import Cell


@dataclass(frozen=True)
class MappedGate:
    """One standard-cell instance."""

    cell: Cell
    inputs: Tuple[int, ...]
    output: int

    def __post_init__(self) -> None:
        if len(self.inputs) != self.cell.num_inputs:
            raise MappingError(
                f"gate {self.cell.name}: expected {self.cell.num_inputs} inputs, "
                f"got {len(self.inputs)}"
            )


class MappedNetlist:
    """A gate-level netlist produced by technology mapping."""

    def __init__(self, name: str, pi_names: Sequence[str], po_names: Sequence[str]) -> None:
        self.name = name
        self.pi_names: List[str] = list(pi_names)
        self.po_names: List[str] = list(po_names)
        self._next_net = 0
        self.pi_nets: List[int] = [self.new_net() for _ in self.pi_names]
        self.po_nets: List[Optional[int]] = [None] * len(self.po_names)
        self.gates: List[MappedGate] = []
        #: nets tied to a constant value (net id -> 0 or 1).
        self.constant_nets: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def new_net(self) -> int:
        """Allocate a fresh net id."""
        net = self._next_net
        self._next_net += 1
        return net

    def add_constant_net(self, value: int) -> int:
        """Create (or reuse) a net tied to constant *value*."""
        if value not in (0, 1):
            raise MappingError(f"constant value must be 0 or 1, got {value}")
        for net, existing in self.constant_nets.items():
            if existing == value:
                return net
        net = self.new_net()
        self.constant_nets[net] = value
        return net

    def add_gate(self, cell: Cell, inputs: Sequence[int], output: Optional[int] = None) -> int:
        """Instantiate *cell*; returns the output net (newly created if omitted)."""
        out = output if output is not None else self.new_net()
        for net in inputs:
            if not 0 <= net < self._next_net:
                raise MappingError(f"gate {cell.name} references undefined net {net}")
        if out >= self._next_net:
            raise MappingError(f"output net {out} was never allocated")
        self.gates.append(MappedGate(cell=cell, inputs=tuple(inputs), output=out))
        return out

    def set_po_net(self, index: int, net: int) -> None:
        """Connect primary output *index* to *net*."""
        if not 0 <= index < len(self.po_names):
            raise MappingError(f"PO index {index} out of range")
        if not 0 <= net < self._next_net:
            raise MappingError(f"PO {index} references undefined net {net}")
        self.po_nets[index] = net

    # ------------------------------------------------------------------ #
    @property
    def num_nets(self) -> int:
        """Total number of allocated nets."""
        return self._next_net

    @property
    def num_gates(self) -> int:
        """Number of standard-cell instances."""
        return len(self.gates)

    def area_um2(self) -> float:
        """Total cell area."""
        return sum(gate.cell.area_um2 for gate in self.gates)

    def cell_histogram(self) -> Dict[str, int]:
        """Instance count per cell type."""
        histogram: Dict[str, int] = {}
        for gate in self.gates:
            histogram[gate.cell.name] = histogram.get(gate.cell.name, 0) + 1
        return histogram

    def net_fanout_counts(self) -> Dict[int, int]:
        """Fanout (consumer pin count + PO connections) per net."""
        counts: Dict[int, int] = {net: 0 for net in range(self._next_net)}
        for gate in self.gates:
            for net in gate.inputs:
                counts[net] += 1
        for net in self.po_nets:
            if net is not None:
                counts[net] += 1
        return counts

    def validate(self) -> None:
        """Check structural sanity; raises :class:`MappingError` on problems."""
        defined = set(self.pi_nets) | set(self.constant_nets)
        for gate in self.gates:
            for net in gate.inputs:
                if net not in defined:
                    raise MappingError(
                        f"gate {gate.cell.name} consumes net {net} before it is driven"
                    )
            if gate.output in defined:
                raise MappingError(f"net {gate.output} is driven more than once")
            defined.add(gate.output)
        for index, net in enumerate(self.po_nets):
            if net is None:
                raise MappingError(f"primary output {self.po_names[index]!r} is unconnected")
            if net not in defined:
                raise MappingError(
                    f"primary output {self.po_names[index]!r} connected to undriven net {net}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MappedNetlist(name={self.name!r}, gates={self.num_gates}, "
            f"area={self.area_um2():.2f}um2)"
        )
