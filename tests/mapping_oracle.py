"""The scalar mapping DP, kept as the oracle of the array-batched one.

:func:`repro.mapping.dp_arrays.try_full_dp` chooses every node's cut and
realisation with per-wave array reductions.  This module is the per-node
Python chooser it replaced: enumerate each node's cuts with
:func:`~repro.aig.cuts.enumerate_cuts`, evaluate every (cut, match) pair
with plain float arithmetic, keep the first strictly better key, and fall
back to the structural fanin-pair cut when no listed cut matches.
``test_dp_arrays.py`` and ``test_arraycore.py`` map the same graphs both
ways and compare the netlists gate for gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.cuts import Cut, enumerate_cuts
from repro.aig.graph import Aig
from repro.aig.literals import literal_var
from repro.aig.simulate import cone_truth_table
from repro.errors import MappingError
from repro.library.library import CellLibrary
from repro.mapping.mapper import (
    AliasChoice,
    CellChoice,
    ConstantChoice,
    MappingOptions,
    NodeChoice,
    TechnologyMapper,
)
from repro.mapping.matcher import classify_single_input, reduce_to_support
from repro.mapping.netlist import MappedNetlist


class ScalarMapper(TechnologyMapper):
    """A :class:`TechnologyMapper` whose choices come from the scalar DP."""

    def __init__(self, library: CellLibrary, options: Optional[MappingOptions] = None) -> None:
        super().__init__(library, options)
        self._inv_delay = self._inv_cell.worst_delay_ps(self.options.estimated_load_ff)
        #: AND nodes that took their fanin-pair cut in the last map().
        self.fanin_pair_nodes: List[int] = []

    def map(self, aig: Aig) -> MappedNetlist:
        return self._build_netlist(aig, self.select_choices(aig))

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

    def select_choices(self, aig: Aig) -> Dict[int, NodeChoice]:
        cuts = self.enumerate_all_cuts(aig)
        fanout = aig.fanout_counts()
        # Dense per-variable DP state (variable order is topological, so a
        # node's leaves are always filled in before the node is reached; a
        # None entry means "no arrival yet").
        arrival: List[Optional[float]] = [None] * aig.size
        area_flow: List[Optional[float]] = [None] * aig.size
        arrival[0] = 0.0
        area_flow[0] = 0.0
        choices: Dict[int, NodeChoice] = {}
        for var in aig.pi_vars:
            arrival[var] = 0.0
            area_flow[var] = 0.0
        self.fanin_pair_nodes = []

        for var in aig.arrays().and_vars.tolist():
            node_cuts = cuts.get(var) or []
            choice, cand_arrival, cand_area = self._choose_for_node(
                aig, var, node_cuts, arrival, area_flow, fanout
            )
            choices[var] = choice
            arrival[var], area_flow[var] = cand_arrival, cand_area
        return choices

    def _choose_for_node(
        self,
        aig: Aig,
        var: int,
        node_cuts: Sequence[Cut],
        arrival: Sequence[Optional[float]],
        area_flow: Sequence[Optional[float]],
        fanout: Sequence[int],
    ) -> Tuple[NodeChoice, float, float]:
        """Best (choice, arrival, area-flow) for one AND node over its cuts."""
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
            self.fanin_pair_nodes.append(var)
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
