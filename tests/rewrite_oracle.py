"""The scalar rewriting pass, kept as the oracle of the row-based one.

:class:`repro.transforms.rewrite.Rewrite` reads every cut's leaves, truth
table and volume from the memoised cut rows and prices it with the
count-only ISOP recursion.  This module is the per-cut formulation it
replaced: enumerate the oracle's ``Cut`` lists, walk each cut's cone twice
(:func:`~repro.aig.simulate.cone_truth_table` for its function,
:func:`~cut_oracle.cut_volume` for its node count), and price the
function with the list ISOP of both polarities.  ``test_rewrite_rows.py``
rewrites the same graphs both ways and compares them node for node.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.aig.graph import Aig, rebuild_map
from repro.aig.literals import is_complemented, literal_var, negate_if
from repro.aig.simulate import cone_truth_table
from repro.aig.truth import isop, table_mask
from repro.transforms.resynth import sop_cost, synthesize_truth

from cut_oracle import cut_volume, enumerate_cut_lists


def list_isop_cost(table: int, num_vars: int) -> int:
    """The cheaper polarity's ``sop_cost``, from both ISOP cube lists."""
    mask = table_mask(num_vars)
    table &= mask
    return min(
        sop_cost(isop(table, 0, num_vars)),
        sop_cost(isop((~table) & mask, 0, num_vars)),
    )


def oracle_rewrite(
    aig: Aig, cut_size: int = 4, max_cuts_per_node: int = 8, zero_cost: bool = False
) -> Aig:
    """What ``Rewrite(cut_size, max_cuts_per_node, zero_cost).apply(aig)`` returns."""
    cuts = enumerate_cut_lists(
        aig, k=cut_size, max_cuts_per_node=max_cuts_per_node, include_trivial=True
    )
    new = Aig(aig.name)
    mapping = rebuild_map(aig, new)
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        default_lit = new.add_and(
            negate_if(mapping[literal_var(f0)], is_complemented(f0)),
            negate_if(mapping[literal_var(f1)], is_complemented(f1)),
        )
        best = _try_rewrite(aig, new, mapping, var, cuts.get(var, ()), zero_cost)
        mapping[var] = best if best is not None else default_lit
    for lit, name in zip(aig.po_literals(), aig.po_names):
        new.add_po(negate_if(mapping[literal_var(lit)], is_complemented(lit)), name)
    result = new.cleanup()
    if not zero_cost and result.num_ands > aig.num_ands:
        return aig.cleanup()
    return result


def _try_rewrite(
    aig: Aig, new: Aig, mapping: Dict[int, int], var: int, node_cuts, zero_cost: bool
) -> Optional[int]:
    best_lit: Optional[int] = None
    best_gain = 0 if not zero_cost else -1
    for cut in node_cuts:
        if cut.size < 2 or cut.leaves == (var,):
            continue
        if any(leaf not in mapping for leaf in cut.leaves):
            continue
        table = cone_truth_table(aig, var * 2, cut.leaves)
        gain = cut_volume(aig, cut) - list_isop_cost(table, cut.size)
        if gain > best_gain:
            leaf_literals = [mapping[leaf] for leaf in cut.leaves]
            best_lit = synthesize_truth(new, table, cut.size, leaf_literals)
            best_gain = gain
    return best_lit
