"""Functional reduction / resubstitution.

Two simplifications are performed, both justified by exact functional
signatures:

* nodes whose global function is constant are replaced by that constant;
* nodes computing the same global function (possibly complemented) are
  merged into the first of them in topological order.

When the design has at most ``exact_pi_limit`` primary inputs (the
benchmark designs of the paper have 14-18), exhaustive simulation gives
*exact* global functions, so the merge is provably safe.  Wider designs have
no exact functions to merge on, so the pass returns ``aig.cleanup()``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.aig.graph import Aig, rebuild_map
from repro.aig.literals import (
    CONST0,
    CONST1,
    is_complemented,
    literal_var,
    negate,
    negate_if,
)
from repro.aig.simulate import exhaustive_pi_patterns, simulate
from repro.transforms.base import Transform


class Resubstitute(Transform):
    """Merge functionally equivalent nodes and propagate constant functions."""

    name = "rs"

    def __init__(self, exact_pi_limit: int = 16) -> None:
        self.exact_pi_limit = exact_pi_limit

    def apply(self, aig: Aig) -> Aig:
        if aig.num_pis > self.exact_pi_limit:
            return aig.cleanup()
        num_patterns = 1 << aig.num_pis
        values = simulate(aig, exhaustive_pi_patterns(aig.num_pis), num_patterns)
        mask = (1 << num_patterns) - 1

        new = Aig(aig.name)
        mapping = rebuild_map(aig, new)
        # Global function -> new literal of the first node computing it.
        signature_of_lit: Dict[int, int] = {}

        for var in aig.and_vars():
            f0, f1 = aig.fanins(var)
            signature = values[var] & mask
            replacement: Optional[int] = None
            if signature == 0:
                replacement = CONST0
            elif signature == mask:
                replacement = CONST1
            elif signature in signature_of_lit:
                replacement = signature_of_lit[signature]
            elif (~signature & mask) in signature_of_lit:
                replacement = negate(signature_of_lit[~signature & mask])
            if replacement is None:
                replacement = new.add_and(
                    negate_if(mapping[literal_var(f0)], is_complemented(f0)),
                    negate_if(mapping[literal_var(f1)], is_complemented(f1)),
                )
                if signature not in signature_of_lit:
                    signature_of_lit[signature] = replacement
            mapping[var] = replacement

        for lit, name in zip(aig.po_literals(), aig.po_names):
            new.add_po(negate_if(mapping[literal_var(lit)], is_complemented(lit)), name)
        return new.cleanup()
