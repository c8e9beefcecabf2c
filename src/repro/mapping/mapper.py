"""Cut-based technology mapping.

The mapper covers the AIG with standard cells using the classic dynamic
programming formulation:

1. enumerate k-feasible cuts for every AND node;
2. for every cut, compute its exact function, reduce it to its support, and
   look up matching cells (with pin bindings and required inverters) in the
   library's Boolean match index — a constant or single-input function
   needs no cell;
3. keep, per node, the choice minimising estimated arrival time (delay mode)
   or estimated area flow (area mode);
4. trace back from the primary outputs, instantiating the chosen cells and
   sharing inverters per signal.

Steps 1-3 are one array-batched DP over every node of every graph
(:mod:`repro.mapping.dp_arrays`); this module holds the options, the node
choices it returns, and step 4.  A node none of whose cuts matches takes
its structural fanin-pair cut, an AND-family function present in any
reasonable library, so mapping never fails on a valid AIG.  The paper's
ground-truth flow runs this mapper plus STA inside the optimization loop;
the ML flow replaces it with model inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.aig.graph import Aig
from repro.aig.literals import is_complemented, literal_var
from repro.errors import MappingError
from repro.library.library import CellLibrary, Match
from repro.mapping import dp_arrays
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

    # ------------------------------------------------------------------ #
    def map(self, aig: Aig) -> MappedNetlist:
        """Map *aig* and return the gate-level netlist."""
        # Looked up on the module at call time, so a wrapper installed there
        # (a profiler's, say) sees every DP run.
        choices = dp_arrays.try_full_dp(self, aig).choices
        return self._build_netlist(aig, choices)

    @property
    def cut_size(self) -> int:
        """Effective cut size (bounded by what the library can match)."""
        return min(self.options.cut_size, self.library.max_match_inputs)

    # ------------------------------------------------------------------ #
    # Netlist construction
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
