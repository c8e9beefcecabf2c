"""Structural analysis of AIGs: levels, depths per output, path counts.

These routines underpin both the proxy metrics used by the baseline
optimization flow (AIG depth and node count) and the richer graph-level
features of Table II in the paper (per-output depths, fanout-weighted depths,
path counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.aig.graph import Aig
from repro.aig.literals import literal_var
from repro.errors import AigError


@dataclass(frozen=True)
class DepthReport:
    """Per-output depth summary of an AIG."""

    po_depths: Tuple[int, ...]
    max_depth: int

    def top(self, n: int) -> List[int]:
        """The *n* largest PO depths, padded with zeros if needed."""
        ordered = sorted(self.po_depths, reverse=True)
        ordered += [0] * max(0, n - len(ordered))
        return ordered[:n]


def node_levels(aig: Aig) -> List[int]:
    """Unweighted level of every variable (PIs at level 0)."""
    return aig.levels()


def weighted_node_levels(aig: Aig, weights: Sequence[float]) -> List[float]:
    """Longest weighted path from any PI to each variable.

    The weight of a node is added when the path passes *through* that node
    (PIs included, consistent with the paper's Fig. 4 which counts the PI
    node and excludes the PO marker).
    """
    arrays = aig.arrays()
    w = np.asarray(weights, dtype=np.float64)
    level = np.zeros(aig.size, dtype=np.float64)
    pi_vars = arrays.pi_vars
    if pi_vars.size:
        level[pi_vars] = w[pi_vars]
    f0v = arrays.fanin0_var
    f1v = arrays.fanin1_var
    # Level waves: each group depends only on strictly lower levels, and
    # max-then-add is the same two float64 operations the scalar recurrence
    # performed, so results are bit-identical.
    for group in arrays.and_level_groups():
        level[group] = np.maximum(level[f0v[group]], level[f1v[group]]) + w[group]
    return level.tolist()


def po_depths(aig: Aig) -> DepthReport:
    """Depth (node count from PI, excluding the PO marker) of every output."""
    level = aig.levels()
    depths = []
    for lit in aig.po_literals():
        var = literal_var(lit)
        # Count nodes on the path including the PI endpoint: a direct
        # PI-to-PO connection has depth 1, matching Fig. 4(a) in the paper.
        depths.append(level[var] + 1 if var != 0 else 0)
    max_depth = max(depths) if depths else 0
    return DepthReport(po_depths=tuple(depths), max_depth=max_depth)


def weighted_po_depths(aig: Aig, weights: Sequence[float]) -> List[float]:
    """Largest weighted path value reaching each primary output."""
    level = weighted_node_levels(aig, weights)
    return [level[literal_var(lit)] for lit in aig.po_literals()]


def critical_path_nodes(aig: Aig) -> List[int]:
    """Variables lying on at least one maximum-depth (critical) path.

    A node is critical when its level plus the longest path from it to any
    PO equals the graph depth.  This is the node set the paper's
    ``long_path_fanout_*`` features aggregate over.
    """
    arrays = aig.arrays()
    level = arrays.levels()
    size = aig.size
    # Longest path from each node to a PO (counted in nodes below it),
    # propagated in reverse level waves: a node's to_po is final before any
    # of its fanins are updated, because all its consumers sit at strictly
    # higher levels and were processed in earlier (higher) waves.
    to_po = np.full(size, -1, dtype=np.int64)
    for lit in aig.po_literals():
        var = literal_var(lit)
        if to_po[var] < 0:
            to_po[var] = 0
    f0v = arrays.fanin0_var
    f1v = arrays.fanin1_var
    for group in reversed(arrays.and_level_groups()):
        active = group[to_po[group] >= 0]
        if active.size == 0:
            continue
        contribution = to_po[active] + 1
        np.maximum.at(to_po, f0v[active], contribution)
        np.maximum.at(to_po, f1v[active], contribution)
    depth = aig.depth()
    on_path = (to_po >= 0) & (level + to_po == depth)
    on_path[0] = False
    return np.nonzero(on_path)[0].tolist()


def count_paths_per_po(aig: Aig, cap: int = 10**12) -> List[int]:
    """Number of distinct PI-to-PO paths reaching each primary output.

    Counts are capped at *cap* to keep feature values bounded on very deep
    graphs (path counts grow exponentially with reconvergence).
    """
    # Vectorized level waves stay exact in int64 as long as intermediate
    # sums cannot overflow: per-node values are clamped to cap, so a sum of
    # two is at most 2*cap.  Larger caps fall back to the arbitrary-
    # precision scalar loop.
    arrays = aig.arrays()
    if 0 < cap <= 2**62:
        paths_arr = np.zeros(aig.size, dtype=np.int64)
        if arrays.pi_vars.size:
            paths_arr[arrays.pi_vars] = 1
        paths_arr[0] = 1  # constant node contributes a single trivial path
        f0v = arrays.fanin0_var
        f1v = arrays.fanin1_var
        for group in arrays.and_level_groups():
            paths_arr[group] = np.minimum(
                paths_arr[f0v[group]] + paths_arr[f1v[group]], cap
            )
        paths = paths_arr.tolist()
    else:
        paths = [0] * aig.size
        for var in aig.pi_vars:
            paths[var] = 1
        paths[0] = 1
        f0v, f1v = arrays.fanin_var_lists()
        for var in arrays.and_vars.tolist():
            total = paths[f0v[var]] + paths[f1v[var]]
            paths[var] = total if total < cap else cap
    return [min(paths[literal_var(lit)], cap) for lit in aig.po_literals()]


def transitive_fanout(
    aig: Aig, roots: Iterable[int], include_roots: bool = True
) -> Set[int]:
    """Variables reachable from *roots* (variable ids) via fanout edges.

    When only the root nodes were perturbed, every node whose mapping choice
    or arrival time can differ lies in the transitive fanout of the roots
    (consumers see changed structure, arrival times, or fanout-dependent
    area flow).

    An out-of-range root raises :class:`AigError` rather than being dropped,
    so a caller's stale node id cannot silently shrink the reached set.
    """
    size = aig.size
    root_list = list(roots)
    for var in root_list:
        if not 0 <= var < size:
            raise AigError(
                f"transitive_fanout root {var} out of range (size {size})"
            )
    # The cached CSR adjacency makes this proportional to the cone touched,
    # not to the whole graph (the old list-of-lists build was O(n) per call).
    offsets, consumers = aig.arrays().fanout_csr_lists()
    reached: Set[int] = set(root_list) if include_roots else set()
    stack = root_list
    visited: Set[int] = set(root_list)
    while stack:
        var = stack.pop()
        for consumer in consumers[offsets[var] : offsets[var + 1]]:
            if consumer in visited:
                continue
            visited.add(consumer)
            reached.add(consumer)
            stack.append(consumer)
    return reached


def po_cone_sizes(aig: Aig) -> List[int]:
    """Number of AND nodes in the transitive fanin cone of each output."""
    sizes = []
    for lit in aig.po_literals():
        seen = set()
        stack = [literal_var(lit)]
        while stack:
            var = stack.pop()
            if var in seen or not aig.is_and(var):
                continue
            seen.add(var)
            f0, f1 = aig.fanins(var)
            stack.append(literal_var(f0))
            stack.append(literal_var(f1))
        sizes.append(len(seen))
    return sizes


def fanout_histogram(aig: Aig) -> Dict[int, int]:
    """Histogram mapping fanout count -> number of nodes with that fanout."""
    histogram: Dict[int, int] = {}
    fanouts = aig.fanout_counts()
    for var in range(1, aig.size):
        count = fanouts[var]
        histogram[count] = histogram.get(count, 0) + 1
    return histogram


def structural_summary(aig: Aig) -> Dict[str, float]:
    """A compact dictionary of structural statistics used in reports."""
    fanouts = [f for var, f in enumerate(aig.fanout_counts()) if var != 0]
    depth_report = po_depths(aig)
    return {
        "num_pis": float(aig.num_pis),
        "num_pos": float(aig.num_pos),
        "num_ands": float(aig.num_ands),
        "depth": float(aig.depth()),
        "max_po_depth": float(depth_report.max_depth),
        "mean_fanout": (sum(fanouts) / len(fanouts)) if fanouts else 0.0,
        "max_fanout": float(max(fanouts)) if fanouts else 0.0,
    }
