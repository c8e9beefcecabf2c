"""K-feasible cut enumeration over Python ``Cut`` lists, kept as an oracle.

A *cut* of node ``n`` is a set of nodes (leaves) such that every path from a
primary input to ``n`` passes through a leaf.  A cut is *k-feasible* when it
has at most ``k`` leaves.

This module holds the reference formulation: the cut set of an AND node is
the pairwise union of its fanins' cut sets, filtered to k leaves, pruned of
dominated cuts, and truncated to a per-node limit to bound runtime.  The
production cut rows of rewriting and mapping come from the level-wave
batches of :mod:`repro.aig.cut_arrays`, which must reproduce these lists
cut for cut; ``test_cuts.py``, ``test_dp_arrays.py``,
``test_rewrite_rows.py``, ``mapping_oracle.py`` and ``rewrite_oracle.py``
compare against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig
from repro.aig.literals import literal_var
from repro.errors import AigError


@dataclass(frozen=True)
class Cut:
    """An immutable cut: the root variable plus a sorted tuple of leaf variables."""

    root: int
    leaves: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self.leaves)


def _merge_leaves(la: Tuple[int, ...], lb: Tuple[int, ...], k: int) -> Optional[Tuple[int, ...]]:
    """Sorted-unique union of two sorted leaf tuples; None past *k* leaves."""
    if la == lb:
        return la if len(la) <= k else None
    union = set(la)
    union.update(lb)
    if len(union) > k:
        return None
    return tuple(sorted(union))


def _prune_dominated(cuts: List[Cut]) -> List[Cut]:
    """Remove cuts dominated by another (smaller) cut in the list."""
    kept: List[Cut] = []
    kept_sets: List[set] = []
    # Smaller cuts first so dominating cuts are encountered before dominated ones.
    for cut in sorted(cuts, key=lambda c: (c.size, c.leaves)):
        leaf_set = set(cut.leaves)
        if any(existing <= leaf_set for existing in kept_sets):
            continue
        kept.append(cut)
        kept_sets.append(leaf_set)
    return kept


def merge_node_cuts(
    var: int,
    cuts0: Sequence[Cut],
    cuts1: Sequence[Cut],
    k: int,
    max_cuts_per_node: int,
    include_trivial: bool = True,
) -> List[Cut]:
    """Cut list of AND node *var* from its two fanins' cut lists.

    This is the per-node step of :func:`enumerate_cut_lists`.
    """
    merged: List[Cut] = []
    seen_leaves = set()
    for cut0 in cuts0:
        leaves0 = cut0.leaves
        for cut1 in cuts1:
            leaves = _merge_leaves(leaves0, cut1.leaves, k)
            # Duplicate leaf sets are produced by many fanin-cut pairs; the
            # first instance subsumes the rest (pruning would drop them as
            # dominated-by-equal anyway).
            if leaves is None or leaves in seen_leaves:
                continue
            seen_leaves.add(leaves)
            merged.append(Cut(root=var, leaves=leaves))
    merged = _prune_dominated(merged)
    # Prefer smaller cuts; deterministic ordering keeps runs reproducible.
    merged.sort(key=lambda c: (c.size, c.leaves))
    merged = merged[:max_cuts_per_node]
    trivial = Cut(var, (var,))
    node_cuts = merged + [trivial] if include_trivial else merged
    if not node_cuts:
        node_cuts = [trivial]
    return node_cuts


def enumerate_cut_lists(
    aig: Aig,
    k: int = 4,
    max_cuts_per_node: int = 12,
    include_trivial: bool = True,
) -> Dict[int, List[Cut]]:
    """Enumerate k-feasible cuts for every variable of *aig*.

    Parameters
    ----------
    k:
        Maximum number of leaves per cut (4 by default, matching the 4-input
        cut rewriting and cell matching used elsewhere in the library).
    max_cuts_per_node:
        Per-node cap on the number of stored cuts; standard priority-cut
        style truncation keeps enumeration near-linear in practice.
    include_trivial:
        Whether the trivial cut ``{node}`` is kept in each node's list (the
        cut rows hold it as the last row of every node).

    Returns
    -------
    dict
        Maps each variable id to its list of cuts.  PIs and the constant node
        only carry their trivial cut.
    """
    if k < 2:
        raise AigError(f"cut size k must be at least 2, got {k}")
    arrays = aig.arrays()
    cuts: Dict[int, List[Cut]] = {0: [Cut(0, (0,))]}
    for var in aig.pi_vars:
        cuts[var] = [Cut(var, (var,))]
    f0v, f1v = arrays.fanin_var_lists()
    for var in arrays.and_vars.tolist():
        cuts[var] = merge_node_cuts(
            var, cuts[f0v[var]], cuts[f1v[var]], k, max_cuts_per_node, include_trivial
        )
    return cuts


def cut_volume(aig: Aig, cut: Cut) -> int:
    """Number of AND nodes strictly inside the cut (root included, leaves excluded)."""
    inside = set()
    stack = [cut.root]
    leaves = set(cut.leaves)
    while stack:
        var = stack.pop()
        if var in inside or var in leaves and var != cut.root:
            continue
        if not aig.is_and(var):
            continue
        inside.add(var)
        f0, f1 = aig.fanins(var)
        for fanin in (literal_var(f0), literal_var(f1)):
            if fanin not in leaves:
                stack.append(fanin)
    return len(inside)
