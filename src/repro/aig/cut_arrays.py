"""Array-form k-feasible cut enumeration with on-the-fly cut functions.

Rewriting and technology mapping both start from every node's k-feasible
cuts with their truth tables.  This module produces them as flat numpy rows,
one level wave of AND nodes at a time, for graphs of any size.  A node's
cuts are the bounded priority-cut set of its fanins' cuts: every pairwise
union with at most ``k`` leaves, deduplicated, without the sets that have a
strict subset among them, sorted by ``(size, leaves)``, truncated to
``max_cuts_per_node`` and followed by the trivial cut.  Each row carries its
truth table and its volume (the AND nodes inside its cone):

* **signatures**: every row keeps a 64-bit leaf signature (bit
  ``leaf & 63``).  A fanin cut pair whose signature OR has more than ``k``
  bits has more than ``k`` leaves, so most infeasible pairs are dropped
  before the merge;
* **merging** crosses the remaining fanin cut pairs of the whole wave at
  once (sorted-unique union of the padded leaf rows, feasibility by count);
* **dedup / sort**: one stable sort on ``(node, size, leaves)``, held in
  two int64 words, puts equal leaf sets next to each other (the first one
  is the lowest producing pair) and leaves the survivors in final order;
* **prune**: a strict subset has fewer leaves, so each row with fewer than
  ``k`` leaves is paired only with the later, larger rows of its node, and
  the leaf test runs on the pairs whose signatures allow a subset;
* **truth tables** are composed from the producing fanin cuts' tables by
  variable expansion instead of walking the cone.  Composition is only
  valid when no merged leaf lies strictly *inside* a producing cone (the
  cone walk would stop at such a leaf and treat it as a free variable), so
  those rare *hazard* rows fall back to
  :func:`~repro.aig.simulate.cone_truth_table`;
* **interiors** are sorted member lists (the AND nodes of each row's cone),
  the union of the producing rows' lists plus the node, built for the whole
  wave by one sort.  A row whose leaf is among its producing members is a
  hazard row and takes the members of a cone walk instead.  A row's volume
  is its member count.

Two entry points return the same rows, memoised on the graph's
:class:`~repro.aig.arrays.AigArrays` snapshot (``dp_cache``):
:func:`build_cut_arrays` for the mapper and :func:`enumerate_cuts` for
rewriting.  They are separate functions so a profiler that wraps one sees
only its own caller's enumeration.  ``tests/cut_oracle.py`` holds the
per-node ``Cut``-list formulation these rows reproduce, and
``tests/test_dp_arrays.py`` and ``tests/test_rewrite_rows.py`` check
leaves, tables and volumes against it and against the cone walks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.aig.graph import Aig
from repro.aig.simulate import cone_truth_table
from repro.errors import AigError

#: Leaf-column padding, and the bound on variable ids: every id is below
#: it.  Pads sort after every leaf, and two 30-bit leaf fields fit one
#: int64 word of the ``(size, leaves)`` sort key.
SENTINEL = 2**30 - 1

#: Full truth-table masks indexed by support size 0..4.
_FULL_MASK = np.asarray([(1 << (1 << s)) - 1 for s in range(5)], dtype=np.int64)


def _build_perm_lut() -> np.ndarray:
    """``_PERM[s, code]`` = 16-entry minterm permutation for a fanin cut.

    ``code`` packs the fanin cut's four leaf positions within the merged
    cut (2 bits each); entry ``x`` is the fanin-local minterm composed from
    merged minterm ``x``, with columns ``j >= s`` (pads) contributing 0 —
    the same value the inline broadcast chain used to compute per row.
    """
    codes = np.arange(256, dtype=np.int64)
    pos = (codes[:, None] >> (2 * np.arange(4, dtype=np.int64)[None, :])) & 3
    x = np.arange(16, dtype=np.int64)
    bits = ((x[None, None, :] >> pos[:, :, None]) & 1) << np.arange(
        4, dtype=np.int64
    )[None, :, None]
    lut = np.zeros((5, 256, 16), dtype=np.int64)
    for s in range(1, 5):
        lut[s] = bits[:, :s, :].sum(axis=1)
    return lut


_PERM = _build_perm_lut()
_CODE_MULT = np.asarray([1, 4, 16, 64], dtype=np.int64)


class CutArrays:
    """Flattened cut sets of one graph snapshot.

    Row layout: one row per cut; rows of a variable are contiguous
    (``start[var] .. start[var] + count[var]``), non-trivial cuts first in
    ``(size, leaves)`` order, trivial cut last — the per-node order of the
    ``Cut``-list oracle in ``tests/cut_oracle.py``.  ``leaves`` columns past
    a row's size hold :data:`SENTINEL`.  The constant node and the PIs come
    first, then the AND nodes wave by wave, in ``and_level_groups()``
    order.  ``volumes[row]`` counts the AND nodes in the row's cone, root
    included and leaves excluded; trivial rows read 0.
    """

    __slots__ = (
        "size",
        "leaves",
        "sizes",
        "tables",
        "volumes",
        "start",
        "count",
        "num_rows",
        "hazard_fallbacks",
        "wave_row_ranges",
    )

    def __init__(
        self,
        size: int,
        leaves: np.ndarray,
        sizes: np.ndarray,
        tables: np.ndarray,
        volumes: np.ndarray,
        start: np.ndarray,
        count: np.ndarray,
        num_rows: int,
        hazard_fallbacks: int,
        wave_row_ranges: List[Tuple[int, int]],
    ) -> None:
        self.size = size
        self.leaves = leaves
        self.sizes = sizes
        self.tables = tables
        self.volumes = volumes
        self.start = start
        self.count = count
        self.num_rows = num_rows
        self.hazard_fallbacks = hazard_fallbacks
        #: Per level wave (same order as ``and_level_groups()``), the
        #: ``[begin, end)`` row range holding that wave's cut rows.
        self.wave_row_ranges = wave_row_ranges

    # ------------------------------------------------------------------ #
    def node_rows(self, var: int) -> range:
        """Row index range of *var*'s cut list."""
        begin = int(self.start[var])
        return range(begin, begin + int(self.count[var]))


#: ``np.bitwise_count`` where NumPy provides it (2.0 and later).
_BITWISE_COUNT = getattr(np, "bitwise_count", None)


@lru_cache(maxsize=None)
def _popcount16() -> np.ndarray:
    """Set-bit count of every 16-bit value, for NumPy without ``bitwise_count``."""
    values = np.arange(1 << 16, dtype=np.uint32)
    counts = np.zeros(1 << 16, dtype=np.uint8)
    for bit in range(16):
        counts += ((values >> bit) & 1).astype(np.uint8)
    return counts


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a C-contiguous 2-D ``uint64`` array, as int64."""
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(words).sum(axis=1, dtype=np.int64)
    return _popcount16()[words.view(np.uint16)].sum(axis=1, dtype=np.int64)


def _segmented_arange(counts: np.ndarray, total: int) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the Python loop."""
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    return np.repeat(starts, counts) + _segmented_arange(counts, int(counts.sum()))


def _interior_walk(aig: Aig, root: int, leaves: Tuple[int, ...]) -> List[int]:
    """AND nodes the cone walk of *root* over *leaves* assigns values to."""
    leaf_set = set(leaves)
    seen: set = set()
    stack = [root]
    f0v, f1v = aig.arrays().fanin_var_lists()
    while stack:
        var = stack.pop()
        if var in seen or var in leaf_set or not aig.is_and(var):
            continue
        seen.add(var)
        stack.append(f0v[var])
        stack.append(f1v[var])
    return sorted(seen)


def build_cut_arrays(aig: Aig, k: int, max_cuts_per_node: int) -> CutArrays:
    """The mapper's cut rows (with tables) for *aig*, memoised on the snapshot.

    Matches the ``Cut``-list oracle with trivial cuts included, cut for cut.
    """
    return _memoised_rows(aig, k, max_cuts_per_node)


def enumerate_cuts(aig: Aig, k: int, max_cuts_per_node: int) -> CutArrays:
    """Rewriting's cut rows: the same memoised rows as :func:`build_cut_arrays`."""
    return _memoised_rows(aig, k, max_cuts_per_node)


def _memoised_rows(aig: Aig, k: int, max_cuts_per_node: int) -> CutArrays:
    if not 2 <= k <= 4:
        raise AigError(f"array cut enumeration supports 2 <= k <= 4, got {k}")
    arrays = aig.arrays()
    cache_key = ("cuts", k, max_cuts_per_node)
    cached = arrays.dp_cache.get(cache_key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    result = _rows_from_waves(aig, k, max_cuts_per_node)
    # repro-lint: ignore[C2] -- _memoised_rows is the owner populating
    # dp_cache (first write of this key).
    arrays.dp_cache[cache_key] = result
    return result


def _rows_from_waves(aig: Aig, k: int, max_cuts_per_node: int) -> CutArrays:
    """The rows of :func:`build_cut_arrays`, merged a level wave at a time."""
    arrays = aig.arrays()
    size = arrays.size
    capacity = 1 + len(arrays.pi_vars) + aig.num_ands * (max_cuts_per_node + 1)
    leaves_buf = np.full((capacity, 4), SENTINEL, dtype=np.int64)
    sizes_buf = np.zeros(capacity, dtype=np.int64)
    tables_buf = np.zeros(capacity, dtype=np.int64)
    sig_buf = np.zeros(capacity, dtype=np.uint64)
    # Row r's interior is members[member_start[r] : + member_count[r]].
    member_start = np.zeros(capacity, dtype=np.int64)
    member_count = np.zeros(capacity, dtype=np.int64)
    members = np.empty(capacity, dtype=np.int64)
    members_used = 0
    start = np.zeros(size, dtype=np.int64)
    count = np.zeros(size, dtype=np.int64)
    one_u64 = np.uint64(1)

    # Base rows: the constant node and every PI carry just their trivial
    # cut.  Constant node included because the scalar cone walk overrides a
    # leaf's value even when the leaf is the constant, so its "table" is
    # the identity, like a PI's.
    base_vars = np.concatenate(([0], arrays.pi_vars)).astype(np.int64)
    cursor = len(base_vars)
    leaves_buf[:cursor, 0] = base_vars
    sizes_buf[:cursor] = 1
    tables_buf[:cursor] = 0b10
    sig_buf[:cursor] = one_u64 << (base_vars & 63).astype(np.uint64)
    start[base_vars] = np.arange(cursor)
    count[base_vars] = 1

    fanin0_var = arrays.fanin0_var
    fanin1_var = arrays.fanin1_var
    fanin0_comp = arrays.fanin0_comp
    fanin1_comp = arrays.fanin1_comp
    hazard_fallbacks = 0
    wave_row_ranges: List[Tuple[int, int]] = []
    xrow = np.arange(16, dtype=np.int64)[None, :]

    for nodes in arrays.and_level_groups():
        wave_begin = cursor
        num_nodes = len(nodes)
        f0 = fanin0_var[nodes]
        f1 = fanin1_var[nodes]
        n1 = count[f1]
        ppn = count[f0] * n1
        num_pairs = int(ppn.sum())
        grp = np.repeat(np.arange(num_nodes), ppn)
        local = _segmented_arange(ppn, num_pairs)
        n1_rep = np.repeat(n1, ppn)
        pair_i = local // n1_rep
        row0 = np.repeat(start[f0], ppn) + pair_i
        row1 = np.repeat(start[f1], ppn) + (local - pair_i * n1_rep)

        # ---- signature filter: over k signature bits is over k leaves -- #
        sig = sig_buf[row0] | sig_buf[row1]
        within = np.nonzero(_popcount_rows(sig[:, None]) <= k)[0]
        grp, row0, row1, sig = grp[within], row0[within], row1[within], sig[within]

        # ---- merge: sorted-unique union of the two padded leaf rows ---- #
        cat = np.concatenate((leaves_buf[row0], leaves_buf[row1]), axis=1)
        cat.sort(axis=1)
        valid = np.empty(cat.shape, dtype=bool)
        valid[:, 0] = cat[:, 0] != SENTINEL
        valid[:, 1:] = (cat[:, 1:] != cat[:, :-1]) & (cat[:, 1:] != SENTINEL)
        merged_size = valid.sum(axis=1)
        feasible = np.nonzero(merged_size <= k)[0]
        cat, valid, merged_size = cat[feasible], valid[feasible], merged_size[feasible]
        grp, row0, row1, sig = grp[feasible], row0[feasible], row1[feasible], sig[feasible]
        merged = np.full((len(feasible), 4), SENTINEL, dtype=np.int64)
        col = valid.cumsum(axis=1) - 1
        rows_nz, cols_nz = np.nonzero(valid)
        merged[rows_nz, col[rows_nz, cols_nz]] = cat[rows_nz, cols_nz]

        # ---- one stable sort on (node, size, leaves) ---- #
        # Equal leaf sets land adjacent, and stability makes the first row
        # of each run the lowest producing (i, j) pair, the one the scalar
        # dedup keeps.  After dedup and prune the order is final.
        hi = (merged_size << 60) | (merged[:, 0] << 30) | merged[:, 1]
        lo = (merged[:, 2] << 30) | merged[:, 3]
        order = np.lexsort((lo, hi, grp))
        s_grp, s_hi, s_lo = grp[order], hi[order], lo[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (s_grp[1:] != s_grp[:-1]) | (s_hi[1:] != s_hi[:-1]) | (
            s_lo[1:] != s_lo[:-1]
        )
        uniq = order[first]
        u_grp = s_grp[first]
        u_leaves = merged[uniq]
        u_size = merged_size[uniq]
        u_sig = sig[uniq]

        # ---- prune: drop sets with a strict subset among the node's sets #
        # A strict subset is strictly smaller, and each node's rows ascend
        # by size, so row a (size < k) is paired with the rows of its node
        # from the first one larger than it to the end of the node's block.
        size_key = u_grp * 8 + u_size
        grp_end = np.cumsum(np.bincount(u_grp, minlength=num_nodes))
        dominators = np.nonzero(u_size < k)[0]
        larger = np.searchsorted(size_key, size_key[dominators], side="right")
        pair_m = grp_end[u_grp[dominators]] - larger
        idx_a = np.repeat(dominators, pair_m)
        idx_b = _segments(larger, pair_m)
        maybe = np.nonzero((u_sig[idx_a] & ~u_sig[idx_b]) == 0)[0]
        idx_a, idx_b = idx_a[maybe], idx_b[maybe]
        la = u_leaves[idx_a]
        a_in_b = (la[:, :, None] == u_leaves[idx_b][:, None, :]).any(axis=2) | (
            la == SENTINEL
        )
        dominated = np.zeros(len(uniq), dtype=bool)
        dominated[idx_b[a_in_b.all(axis=1)]] = True

        # ---- truncation (order is already final) ---- #
        keep = np.nonzero(~dominated)[0]
        rank = _segmented_arange(
            np.bincount(u_grp[keep], minlength=num_nodes), len(keep)
        )
        keep = keep[rank < max_cuts_per_node]
        k_grp = u_grp[keep]
        k_node = nodes[k_grp]
        k_leaves = u_leaves[keep]
        k_size = u_size[keep]
        k_rows = uniq[keep]
        k_row0 = row0[k_rows]
        k_row1 = row1[k_rows]
        num_kept = len(keep)

        # ---- interiors: both producing member lists plus the node ---- #
        # Keys row * size + member sort by row, then member; member ids
        # and leaves are below size, so a key names one (row, variable).
        # The three parts are each sorted already, which the stable sort
        # (a merge sort) only has to merge.
        c0 = member_count[k_row0]
        c1 = member_count[k_row1]
        row_base = np.arange(num_kept, dtype=np.int64) * size
        keys = np.concatenate(
            (
                np.repeat(row_base, c0) + members[_segments(member_start[k_row0], c0)],
                np.repeat(row_base, c1) + members[_segments(member_start[k_row1], c1)],
                row_base + k_node,
            )
        )
        keys.sort(kind="stable")
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        leaf_keys = row_base[:, None] + k_leaves
        found = np.minimum(np.searchsorted(keys, leaf_keys), len(keys) - 1)
        hazard = ((keys[found] == leaf_keys) & (k_leaves != SENTINEL)).any(axis=1)

        # ---- tables: expand both producing tables onto the merged leaves #
        t0 = tables_buf[k_row0]
        t1 = tables_buf[k_row1]
        s0 = sizes_buf[k_row0]
        s1 = sizes_buf[k_row1]
        t0 = np.where(fanin0_comp[k_node], t0 ^ _FULL_MASK[s0], t0)
        t1 = np.where(fanin1_comp[k_node], t1 ^ _FULL_MASK[s1], t1)
        pos0 = (leaves_buf[k_row0][:, :, None] == k_leaves[:, None, :]).argmax(
            axis=2
        )
        pos1 = (leaves_buf[k_row1][:, :, None] == k_leaves[:, None, :]).argmax(
            axis=2
        )
        comp0 = _PERM[s0, pos0 @ _CODE_MULT]
        comp1 = _PERM[s1, pos1 @ _CODE_MULT]
        bits = ((t0[:, None] >> comp0) & 1) & ((t1[:, None] >> comp1) & 1)
        bits &= xrow < (np.int64(1) << k_size)[:, None]
        k_tables = (bits << xrow).sum(axis=1)

        # ---- hazard fallback: cone walks for table and members ---- #
        hazard_rows = np.nonzero(hazard)[0]
        if len(hazard_rows):
            hazard_fallbacks += len(hazard_rows)
            walked = []
            for local_row in hazard_rows.tolist():
                var = int(k_node[local_row])
                cut_leaves = tuple(k_leaves[local_row, : k_size[local_row]].tolist())
                k_tables[local_row] = cone_truth_table(
                    aig, var * 2, cut_leaves, memo=False
                )
                interior = _interior_walk(aig, var, cut_leaves)
                walked.append(row_base[local_row] + np.asarray(interior, dtype=np.int64))
            keys = np.sort(
                np.concatenate([keys[~hazard[keys // size]]] + walked)
            )

        # ---- write the wave block: kept rows + one trivial row per node #
        kept_per_node = np.bincount(k_grp, minlength=num_nodes)
        kept_starts = np.cumsum(kept_per_node) - kept_per_node
        dest_kept = cursor + np.arange(num_kept) + k_grp
        dest_trivial = cursor + kept_starts + kept_per_node + np.arange(num_nodes)
        leaves_buf[dest_kept] = k_leaves
        sizes_buf[dest_kept] = k_size
        tables_buf[dest_kept] = k_tables
        sig_buf[dest_kept] = u_sig[keep]
        owner = keys // size
        k_count = np.bincount(owner, minlength=num_kept)
        member_start[dest_kept] = members_used + np.cumsum(k_count) - k_count
        member_count[dest_kept] = k_count
        members_end = members_used + len(keys)
        if members_end > len(members):
            members = np.resize(members, 2 * members_end)
        members[members_used:members_end] = keys - owner * size
        members_used = members_end
        leaves_buf[dest_trivial, 0] = nodes
        sizes_buf[dest_trivial] = 1
        tables_buf[dest_trivial] = 0b10
        sig_buf[dest_trivial] = one_u64 << (nodes & 63).astype(np.uint64)
        start[nodes] = cursor + kept_starts + np.arange(num_nodes)
        count[nodes] = kept_per_node + 1
        cursor += num_kept + num_nodes
        wave_row_ranges.append((wave_begin, cursor))

    return CutArrays(
        size=size,
        leaves=leaves_buf[:cursor],
        sizes=sizes_buf[:cursor],
        tables=tables_buf[:cursor],
        volumes=member_count[:cursor],
        start=start,
        count=count,
        num_rows=cursor,
        hazard_fallbacks=hazard_fallbacks,
        wave_row_ranges=wave_row_ranges,
    )
