"""Cut-based rewriting (the ABC ``rewrite`` command, simplified).

For every AND node the transform takes the node's k-feasible cuts, with
their exact functions and cone volumes, from the memoised cut rows of
:mod:`repro.aig.cut_arrays`, prices each function's resynthesis, and
rebuilds the cone from the cut leaves when that saves nodes.  The
resynthesised implementation replaces the original cone when its estimated
cost is no worse; because the new graph is built with structural hashing,
logic shared with already-rebuilt parts of the network is reused for free,
which is where most of the node savings come from.
"""

from __future__ import annotations

from repro.aig.cut_arrays import enumerate_cuts
from repro.aig.graph import Aig, rebuild_map
from repro.aig.literals import is_complemented, literal_var, negate_if
from repro.transforms.base import Transform
from repro.transforms.resynth import resynth_cost, synthesize_truth


class Rewrite(Transform):
    """Resynthesise small cones from their cut functions to save nodes."""

    name = "rw"

    def __init__(
        self,
        cut_size: int = 4,
        max_cuts_per_node: int = 8,
        zero_cost: bool = False,
    ) -> None:
        #: Leaves per cut, 2 to 4 (the range the cut rows hold).
        self.cut_size = cut_size
        self.max_cuts_per_node = max_cuts_per_node
        #: When true, replacements with equal estimated cost are also taken,
        #: which perturbs the structure without increasing node count
        #: (useful as a diversification move inside simulated annealing).
        self.zero_cost = zero_cost

    def apply(self, aig: Aig) -> Aig:
        rows = enumerate_cuts(aig, self.cut_size, self.max_cuts_per_node)
        start = rows.start.tolist()
        count = rows.count.tolist()
        sizes = rows.sizes.tolist()
        tables = rows.tables.tolist()
        volumes = rows.volumes.tolist()
        floor = -1 if self.zero_cost else 0
        new = Aig(aig.name)
        mapping = rebuild_map(aig, new)

        for var in aig.and_vars():
            f0, f1 = aig.fanins(var)
            default_lit = new.add_and(
                negate_if(mapping[literal_var(f0)], is_complemented(f0)),
                negate_if(mapping[literal_var(f1)], is_complemented(f1)),
            )
            # Every cut that beats the best gain so far is synthesised, in
            # row order; the last one built replaces the node.
            best_lit = None
            best_gain = floor
            first = start[var]
            for row in range(first, first + count[var]):
                size = sizes[row]
                if size < 2:
                    continue
                gain = volumes[row] - resynth_cost(tables[row], size)
                if gain > best_gain:
                    leaves = rows.leaves[row, :size].tolist()
                    leaf_literals = [mapping[leaf] for leaf in leaves]
                    best_lit = synthesize_truth(new, tables[row], size, leaf_literals)
                    best_gain = gain
            mapping[var] = best_lit if best_lit is not None else default_lit

        for lit, name in zip(aig.po_literals(), aig.po_names):
            new.add_po(negate_if(mapping[literal_var(lit)], is_complemented(lit)), name)
        result = new.cleanup()
        # The per-cone gain estimate ignores sharing outside the cut, so the
        # rebuilt graph can occasionally end up larger; in strict (non
        # zero-cost) mode fall back to the original structure in that case.
        if not self.zero_cost and result.num_ands > aig.num_ands:
            return aig.cleanup()
        return result
