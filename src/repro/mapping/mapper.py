"""Cut-based technology mapping.

The mapper covers the AIG with standard cells using the classic dynamic
programming formulation:

1. enumerate k-feasible cuts for every AND node;
2. for every cut, compute its exact function, reduce it to its support, and
   look up matching cells (with pin bindings and required inverters) in the
   library's Boolean match index;
3. keep, per node, the choice minimising estimated arrival time (delay mode)
   or estimated area flow (area mode);
4. trace back from the primary outputs, instantiating the chosen cells and
   sharing inverters per signal.

Every AND node always has at least one match because its trivial two-leaf
cut is an AND-family function present in any reasonable library, so mapping
never fails on a valid AIG.  The paper's ground-truth flow runs this mapper
plus STA inside the optimization loop; the ML flow replaces it with model
inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.aig.cuts import Cut, enumerate_cuts
from repro.aig.graph import Aig
from repro.aig.literals import is_complemented, literal_var
from repro.aig.simulate import cone_truth_table
from repro.errors import MappingError
from repro.library.library import CellLibrary, Match
from repro.mapping.matcher import classify_single_input, reduce_to_support
from repro.mapping.netlist import MappedNetlist


@dataclass(frozen=True)
class ConstantChoice:
    """Node is functionally constant."""

    value: int


@dataclass(frozen=True)
class AliasChoice:
    """Node equals a leaf signal, possibly inverted (no cell needed)."""

    leaf: int
    negated: bool


@dataclass(frozen=True)
class CellChoice:
    """Node implemented by a library cell over the given cut leaves."""

    match: Match
    leaves: Tuple[int, ...]


NodeChoice = Union[ConstantChoice, AliasChoice, CellChoice]


@dataclass
class MappingOptions:
    """Knobs of the technology mapper."""

    cut_size: int = 4
    max_cuts_per_node: int = 10
    mode: str = "delay"
    estimated_load_ff: float = 3.0
    max_matches_per_cut: int = 4

    def __post_init__(self) -> None:
        if self.mode not in ("delay", "area"):
            raise MappingError(f"mapping mode must be 'delay' or 'area', got {self.mode!r}")
        if self.cut_size < 2:
            raise MappingError("cut_size must be at least 2")


class TechnologyMapper:
    """Maps AIGs onto a :class:`~repro.library.library.CellLibrary`."""

    def __init__(self, library: CellLibrary, options: Optional[MappingOptions] = None) -> None:
        self.library = library
        self.options = options or MappingOptions()
        if library.max_match_inputs < 2:
            raise MappingError("library cannot match two-input functions")
        self._inv_cell = library.inverter
        self._inv_delay = self._inv_cell.worst_delay_ps(self.options.estimated_load_ff)
        #: Filled by every _select_choices call; the cold-map benchmark and
        #: CI smoke gate read it to detect silent scalar fallbacks.
        self.last_dp_stats = None

    # ------------------------------------------------------------------ #
    def map(self, aig: Aig) -> MappedNetlist:
        """Map *aig* and return the gate-level netlist."""
        choices, _arrival = self._select_choices(aig)
        return self._build_netlist(aig, choices)

    # ------------------------------------------------------------------ #
    # Phase 1: dynamic programming over cuts
    # ------------------------------------------------------------------ #
    @property
    def cut_size(self) -> int:
        """Effective cut size (bounded by what the library can match)."""
        return min(self.options.cut_size, self.library.max_match_inputs)

    def enumerate_all_cuts(self, aig: Aig) -> Dict[int, List[Cut]]:
        """Cut lists for every variable, as used by the mapping DP.

        Trivial cuts must stay in the per-node lists so that every node's
        structural fanin-pair cut is produced by the merge step; the
        fanin-pair cut is what guarantees a match (AND-family cell) exists.
        """
        return enumerate_cuts(
            aig,
            k=self.cut_size,
            max_cuts_per_node=self.options.max_cuts_per_node,
            include_trivial=True,
        )

    def _select_choices(
        self, aig: Aig
    ) -> Tuple[Dict[int, NodeChoice], List[Optional[float]]]:
        # Looked up on the module at call time, so patching
        # ``dp_arrays.try_full_dp`` to return None forces the scalar DP.
        from repro.mapping import dp_arrays

        result = dp_arrays.try_full_dp(self, aig)
        if result is not None:
            self.last_dp_stats = result.stats
            return result.choices, result.arrival
        self.last_dp_stats = dp_arrays.DpStats(
            used_vectorized=False, reason="unsupported"
        )
        cuts = self.enumerate_all_cuts(aig)
        fanout = aig.fanout_counts()
        # Dense per-variable DP state (variable order is topological, so a
        # node's leaves are always filled in before the node is reached; a
        # None entry means "no arrival yet" — the dict-era membership test).
        arrival: List[Optional[float]] = [None] * aig.size
        area_flow: List[Optional[float]] = [None] * aig.size
        arrival[0] = 0.0
        area_flow[0] = 0.0
        choices: Dict[int, NodeChoice] = {}
        for var in aig.pi_vars:
            arrival[var] = 0.0
            area_flow[var] = 0.0

        for var in aig.arrays().and_vars.tolist():
            node_cuts = cuts.get(var) or []
            choice, cand_arrival, cand_area = self._choose_for_node(
                aig, var, node_cuts, arrival, area_flow, fanout
            )
            choices[var] = choice
            arrival[var], area_flow[var] = cand_arrival, cand_area
        return choices, arrival

    def _choose_for_node(
        self,
        aig: Aig,
        var: int,
        node_cuts: Sequence[Cut],
        arrival: Sequence[Optional[float]],
        area_flow: Sequence[Optional[float]],
        fanout: Sequence[int],
    ) -> Tuple[NodeChoice, float, float]:
        """Best (choice, arrival, area-flow) for one AND node over its cuts.

        The scalar reference: the vectorized DP in
        :mod:`repro.mapping.dp_arrays` falls back to it per node and must
        make identical decisions.
        """
        opts = self.options
        best_key: Optional[Tuple[float, float]] = None
        best_choice: Optional[NodeChoice] = None
        best_metrics: Optional[Tuple[float, float]] = None
        for cut in node_cuts:
            candidate = self._evaluate_cut(aig, var, cut, arrival, area_flow, fanout)
            if candidate is None:
                continue
            choice, cand_arrival, cand_area = candidate
            key = (
                (cand_arrival, cand_area)
                if opts.mode == "delay"
                else (cand_area, cand_arrival)
            )
            if best_key is None or key < best_key:
                best_key = key
                best_choice = choice
                best_metrics = (cand_arrival, cand_area)
        if best_choice is None:
            # Fall back to the structural fanin-pair cut, which always
            # matches an AND-family cell in any sane library.
            f0, f1 = aig.fanins(var)
            fallback_cut = Cut(var, tuple(sorted({literal_var(f0), literal_var(f1)})))
            candidate = self._evaluate_cut(aig, var, fallback_cut, arrival, area_flow, fanout)
            if candidate is None:
                raise MappingError(
                    f"no match found for node {var}; the library is missing basic cells"
                )
            best_choice, cand_arrival, cand_area = candidate
            best_metrics = (cand_arrival, cand_area)
        return best_choice, best_metrics[0], best_metrics[1]

    def _evaluate_cut(
        self,
        aig: Aig,
        var: int,
        cut: Cut,
        arrival: Sequence[Optional[float]],
        area_flow: Sequence[Optional[float]],
        fanout: Sequence[int],
    ) -> Optional[Tuple[NodeChoice, float, float]]:
        opts = self.options
        if cut.leaves == (var,):
            return None
        if any(arrival[leaf] is None for leaf in cut.leaves):
            return None
        table = cone_truth_table(aig, var * 2, cut.leaves)
        reduced, sup = reduce_to_support(table, cut.size)
        if not sup:
            return ConstantChoice(value=reduced), 0.0, 0.0
        sup_leaves = tuple(cut.leaves[i] for i in sup)
        if len(sup) == 1:
            negated = classify_single_input(reduced)
            leaf = sup_leaves[0]
            cand_arrival = arrival[leaf] + (self._inv_delay if negated else 0.0)
            cand_area = area_flow[leaf] / max(fanout[leaf], 1) + (
                self._inv_cell.area_um2 if negated else 0.0
            )
            return AliasChoice(leaf=leaf, negated=negated), cand_arrival, cand_area
        if len(sup) > self.library.max_match_inputs:
            return None
        matches = self.library.matches(reduced, len(sup))
        if not matches:
            return None
        best: Optional[Tuple[Tuple[float, float], NodeChoice, float, float]] = None
        for match in matches[: opts.max_matches_per_cut]:
            cand_arrival = 0.0
            inverter_area = 0.0
            for pin_index, pin in enumerate(match.cell.pins):
                leaf = sup_leaves[match.pin_to_leaf[pin_index]]
                t = arrival[leaf]
                if match.pin_negated[pin_index]:
                    t += self._inv_delay
                    inverter_area += self._inv_cell.area_um2
                t += pin.delay_ps(opts.estimated_load_ff)
                cand_arrival = max(cand_arrival, t)
            if match.output_negated:
                cand_arrival += self._inv_delay
                inverter_area += self._inv_cell.area_um2
            leaf_flow = sum(
                area_flow[leaf] / max(fanout[leaf], 1) for leaf in sup_leaves
            )
            cand_area = match.cell.area_um2 + inverter_area + leaf_flow
            key = (
                (cand_arrival, cand_area)
                if opts.mode == "delay"
                else (cand_area, cand_arrival)
            )
            if best is None or key < best[0]:
                best = (key, CellChoice(match=match, leaves=sup_leaves), cand_arrival, cand_area)
        if best is None:
            return None
        return best[1], best[2], best[3]

    # ------------------------------------------------------------------ #
    # Phase 2: netlist construction
    # ------------------------------------------------------------------ #
    def _build_netlist(self, aig: Aig, choices: Dict[int, NodeChoice]) -> MappedNetlist:
        """Instantiate the chosen cells into a fresh netlist.

        The emission order is fully determined by *choices* (needed nodes in
        variable order, shared inverters created at first demand), and nets
        are allocated in emission order, so two emissions from identical
        choices produce identical netlists.
        """
        netlist = MappedNetlist(aig.name, aig.pi_names, aig.po_names)
        net_of: Dict[int, int] = {}
        for var, net in zip(aig.pi_vars, netlist.pi_nets):
            net_of[var] = net
        inverted_net: Dict[int, int] = {}

        needed = self._collect_needed(aig, choices)

        def get_positive_net(var: int) -> int:
            if var not in net_of:
                raise MappingError(f"internal error: net for node {var} not built yet")
            return net_of[var]

        def get_negative_net(var: int) -> int:
            if var in inverted_net:
                return inverted_net[var]
            source = get_positive_net(var)
            out = netlist.add_gate(self._inv_cell, [source])
            inverted_net[var] = out
            return out

        def get_net(var: int, negated: bool) -> int:
            return get_negative_net(var) if negated else get_positive_net(var)

        for var in sorted(needed):
            choice = choices[var]
            if isinstance(choice, ConstantChoice):
                net_of[var] = netlist.add_constant_net(choice.value)
            elif isinstance(choice, AliasChoice):
                net_of[var] = get_net(choice.leaf, choice.negated)
            else:
                match = choice.match
                pin_nets: List[int] = []
                for pin_index in range(match.cell.num_inputs):
                    leaf = choice.leaves[match.pin_to_leaf[pin_index]]
                    pin_nets.append(get_net(leaf, match.pin_negated[pin_index]))
                out = netlist.add_gate(match.cell, pin_nets)
                if match.output_negated:
                    out = netlist.add_gate(self._inv_cell, [out])
                net_of[var] = out

        for index, lit in enumerate(aig.po_literals()):
            var = literal_var(lit)
            negated = is_complemented(lit)
            if var == 0:
                net = netlist.add_constant_net(1 if negated else 0)
            else:
                net = get_net(var, negated)
            netlist.set_po_net(index, net)
        netlist.validate()
        return netlist

    @staticmethod
    def _collect_needed(aig: Aig, choices: Dict[int, NodeChoice]) -> set:
        """Variables whose mapped implementation must be materialised."""
        needed: set = set()
        stack = [literal_var(lit) for lit in aig.po_literals()]
        while stack:
            var = stack.pop()
            if var in needed or var == 0 or aig.is_pi(var):
                continue
            needed.add(var)
            choice = choices[var]
            if isinstance(choice, AliasChoice):
                stack.append(choice.leaf)
            elif isinstance(choice, CellChoice):
                stack.extend(choice.leaves)
        return needed


def map_aig(
    aig: Aig,
    library: CellLibrary,
    options: Optional[MappingOptions] = None,
) -> MappedNetlist:
    """Convenience wrapper: map *aig* with default (or given) options."""
    return TechnologyMapper(library, options).map(aig)
