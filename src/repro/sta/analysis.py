"""Static timing analysis on mapped netlists.

The delay model is the linear load model of the cell library: the delay of a
timing arc (input pin -> output) is ``intrinsic + resistance * load``, where
the load of a net is the sum of the input-pin capacitances it drives plus a
fixed primary-output load.  Arrival times are propagated in one topological
pass, required times in one reverse pass, giving per-net slacks and the
critical path.

This is the "STA" step of the paper's ground-truth flow; together with
technology mapping it produces the post-mapping maximum delay that the ML
model learns to predict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TimingError
from repro.mapping.netlist import MappedNetlist


@dataclass(frozen=True)
class TimingArc:
    """One resolved gate arc on the critical path (for reporting)."""

    gate_cell: str
    input_net: int
    output_net: int
    pin_name: str
    delay_ps: float
    arrival_ps: float


@dataclass
class TimingReport:
    """Result of a full STA run."""

    max_delay_ps: float
    po_arrival_ps: Dict[str, float]
    net_arrival_ps: Dict[int, float]
    net_required_ps: Dict[int, float]
    net_load_ff: Dict[int, float]
    critical_path: List[TimingArc] = field(default_factory=list)
    clock_period_ps: Optional[float] = None

    @property
    def worst_slack_ps(self) -> float:
        """Worst slack over all nets (0 when the clock equals the max delay)."""
        if not self.net_arrival_ps:
            return 0.0
        return min(
            self.net_required_ps[net] - self.net_arrival_ps[net]
            for net in self.net_arrival_ps
        )

    def critical_po(self) -> Optional[str]:
        """Name of the primary output with the largest arrival time."""
        if not self.po_arrival_ps:
            return None
        return max(self.po_arrival_ps, key=self.po_arrival_ps.get)


def compute_net_loads(netlist: MappedNetlist, po_load_ff: float) -> Dict[int, float]:
    """Capacitive load of every net (input pin caps + PO load)."""
    loads: Dict[int, float] = {net: 0.0 for net in range(netlist.num_nets)}
    for gate in netlist.gates:
        for net, pin in zip(gate.inputs, gate.cell.pins):
            loads[net] += pin.capacitance_ff
    for net in netlist.po_nets:
        if net is not None:
            loads[net] += po_load_ff
    return loads


class _ArcTables:
    """Flattened timing-arc arrays of one netlist (one arc per gate input).

    Arc order is gate order × pin order — exactly the iteration order of the
    scalar reference implementation — so any order-sensitive float
    accumulation over arcs reproduces the reference bit for bit.  Max/min
    reductions are order-insensitive, so the level-wave passes below are
    exact regardless of grouping.
    """

    __slots__ = (
        "arc_in",
        "arc_out",
        "arc_delay",
        "gate_arc_range",
        "level_groups",
        "driver_of_net",
    )

    def __init__(self, netlist: MappedNetlist, loads: np.ndarray) -> None:
        gates = netlist.gates
        num_nets = netlist.num_nets
        arc_in: List[int] = []
        arc_out: List[int] = []
        arc_intr: List[float] = []
        arc_res: List[float] = []
        self.gate_arc_range: List[Tuple[int, int]] = []
        # Cells are library singletons; cache their pin parameter tuples so
        # the flattening loop does one dict hit per gate instead of one
        # attribute walk per pin.
        pin_cache: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}
        # Net logic levels double as the topological-order check: a gate
        # consuming a net with no level yet is exactly the condition under
        # which the scalar pass raised, in the same gate order.
        net_level = [-1] * num_nets
        for net in netlist.pi_nets:
            net_level[net] = 0
        for net in netlist.constant_nets:
            net_level[net] = 0
        gate_level: List[int] = []
        self.driver_of_net: Dict[int, int] = {}
        for gate_index, gate in enumerate(gates):
            cell = gate.cell
            cached = pin_cache.get(cell.name)
            if cached is None:
                cached = (
                    tuple(pin.intrinsic_ps for pin in cell.pins),
                    tuple(pin.resistance_ps_per_ff for pin in cell.pins),
                )
                pin_cache[cell.name] = cached
            intrs, ress = cached
            start = len(arc_in)
            level = 0
            for net, intr, res in zip(gate.inputs, intrs, ress):
                in_level = net_level[net]
                if in_level < 0:
                    raise TimingError(
                        f"gate {cell.name} consumes net {net} with unknown arrival "
                        "(netlist not topologically ordered?)"
                    )
                if in_level > level:
                    level = in_level
                arc_in.append(net)
                arc_out.append(gate.output)
                arc_intr.append(intr)
                arc_res.append(res)
            self.gate_arc_range.append((start, len(arc_in)))
            net_level[gate.output] = level + 1
            gate_level.append(level + 1)
            self.driver_of_net[gate.output] = gate_index
        self.arc_in = np.asarray(arc_in, dtype=np.int64)
        self.arc_out = np.asarray(arc_out, dtype=np.int64)
        self.arc_delay = (
            np.asarray(arc_intr, dtype=np.float64)
            + np.asarray(arc_res, dtype=np.float64) * loads[self.arc_out]
        )
        # Arcs grouped by gate level, ascending; each group only consumes
        # arrivals settled by strictly lower groups.
        self.level_groups: List[np.ndarray] = []
        if gates:
            arc_level = np.repeat(
                np.asarray(gate_level, dtype=np.int64),
                [end - start for start, end in self.gate_arc_range],
            )
            order = np.argsort(arc_level, kind="stable")
            ordered_levels = arc_level[order]
            boundaries = np.nonzero(np.diff(ordered_levels))[0] + 1
            self.level_groups = np.split(order, boundaries)


def analyze_timing(
    netlist: MappedNetlist,
    po_load_ff: float = 5.0,
    clock_period_ps: Optional[float] = None,
    with_critical_path: bool = True,
) -> TimingReport:
    """Run STA on *netlist* and return a :class:`TimingReport`.

    Arrival and required times are propagated level by level with vectorised
    max/min waves over the flattened arc arrays; the results are bit-identical
    to the per-gate scalar recurrence because max and min are order-insensitive
    and every arc delay is computed with the same two float64 operations.
    """
    loads_dict = compute_net_loads(netlist, po_load_ff)
    num_nets = netlist.num_nets
    loads = np.fromiter(loads_dict.values(), dtype=np.float64, count=num_nets)
    arcs = _ArcTables(netlist, loads)

    neg_inf = float("-inf")
    arrival_arr = np.full(num_nets, neg_inf)
    # The known-net key order of the scalar implementation: PIs, constants,
    # then gate outputs in gate order (report dicts preserve it).
    known_nets: List[int] = []
    for net in netlist.pi_nets:
        arrival_arr[net] = 0.0
        known_nets.append(net)
    for net in netlist.constant_nets:
        arrival_arr[net] = 0.0
        known_nets.append(net)
    for gate in netlist.gates:
        known_nets.append(gate.output)

    arc_in = arcs.arc_in
    arc_out = arcs.arc_out
    arc_delay = arcs.arc_delay
    for group in arcs.level_groups:
        np.maximum.at(arrival_arr, arc_out[group], arrival_arr[arc_in[group]] + arc_delay[group])

    po_arrival: Dict[str, float] = {}
    for name, net in zip(netlist.po_names, netlist.po_nets):
        if net is None:
            raise TimingError(f"primary output {name!r} is unconnected")
        po_arrival[name] = float(arrival_arr[net])
    max_delay = max(po_arrival.values()) if po_arrival else 0.0
    period = clock_period_ps if clock_period_ps is not None else max_delay

    required_arr = np.full(num_nets, float("inf"))
    for net in netlist.po_nets:
        if net is not None and period < required_arr[net]:
            required_arr[net] = period
    for group in reversed(arcs.level_groups):
        np.minimum.at(required_arr, arc_in[group], required_arr[arc_out[group]] - arc_delay[group])

    arrival = {net: float(arrival_arr[net]) for net in known_nets}
    required = {
        net: (period if required_arr[net] == float("inf") else float(required_arr[net]))
        for net in known_nets
    }

    critical_path: List[TimingArc] = []
    if with_critical_path and po_arrival:
        critical_path = _walk_critical_path(netlist, arcs, arrival_arr, po_arrival)

    return TimingReport(
        max_delay_ps=max_delay,
        po_arrival_ps=po_arrival,
        net_arrival_ps=arrival,
        net_required_ps=required,
        net_load_ff=loads_dict,
        critical_path=critical_path,
        clock_period_ps=period,
    )


def _walk_critical_path(
    netlist: MappedNetlist,
    arcs: _ArcTables,
    arrival_arr: np.ndarray,
    po_arrival: Dict[str, float],
) -> List[TimingArc]:
    """Back-walk the worst PO cone, re-deriving each gate's worst input.

    Reproduces the scalar pass's record exactly: input arrivals are final
    when a gate is (re)examined, and the first strictly-greater candidate in
    pin order wins, which is the scalar tie-break.
    """
    critical_name = max(po_arrival, key=po_arrival.get)
    index = netlist.po_names.index(critical_name)
    net = netlist.po_nets[index]
    path: List[TimingArc] = []
    driver_of_net = arcs.driver_of_net
    arc_in = arcs.arc_in
    arc_delay = arcs.arc_delay
    while net in driver_of_net:
        gate = netlist.gates[driver_of_net[net]]
        start, end = arcs.gate_arc_range[driver_of_net[net]]
        best_arrival = 0.0
        best: Optional[Tuple[int, str, float]] = None
        for arc_index in range(start, end):
            in_net = int(arc_in[arc_index])
            delay = float(arc_delay[arc_index])
            candidate = float(arrival_arr[in_net]) + delay
            if best is None or candidate > best_arrival:
                best_arrival = candidate
                pin = gate.cell.pins[arc_index - start]
                best = (in_net, pin.name, delay)
        if best is None:
            break
        input_net, pin_name, delay = best
        path.append(
            TimingArc(
                gate_cell=gate.cell.name,
                input_net=input_net,
                output_net=net,
                pin_name=pin_name,
                delay_ps=delay,
                arrival_ps=float(arrival_arr[net]),
            )
        )
        net = input_net
    path.reverse()
    return path
