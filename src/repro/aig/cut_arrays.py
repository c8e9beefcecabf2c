"""Array-form k-feasible cut enumeration with on-the-fly cut functions.

Rewriting and technology mapping both start from every node's k-feasible
cuts with their truth tables.  This module produces them as flat numpy rows
— **exactly the cut sets** of the reference
:func:`~repro.aig.cuts.enumerate_cut_lists` (same leaves, same per-node
order), each with its truth table and its volume (the AND nodes inside its
cone) — in per-level-wave batches:

* **merging** crosses all fanin cut pairs of a whole level wave at once
  (sorted-union of padded leaf rows, feasibility by unique count);
* **dedup / prune / sort** exploit that the scalar pipeline's output is
  *canonical*: a merged leaf set is kept iff no other distinct merged leaf
  set of the node is a strict subset of it, and the survivors are sorted by
  ``(size, leaves)`` and truncated — insertion order never matters, so one
  stable sort on a packed ``(size, leaves)`` key plus a batched subset test
  reproduces the scalar result bit for bit.  Because a strict subset is
  strictly smaller, only the leading ``size < k`` rows of each node's
  sorted candidate block can dominate anything, which keeps the pairwise
  subset test to ``dominators x candidates`` instead of ``candidates²``;
* **truth tables** are composed from the producing fanin cuts' tables by
  variable expansion instead of walking the cone.  Composition is only
  valid when no merged leaf lies strictly *inside* a producing cone (the
  scalar walk would stop at such a leaf and treat it as a free variable);
  every cut therefore carries an interior bitmask, suspicious merges are
  detected exactly, and those rare cuts fall back to the scalar
  :func:`~repro.aig.simulate.cone_truth_table` walk;
* **volumes** are the popcounts of those interior bitmasks, i.e. the
  :func:`~repro.aig.cuts.cut_volume` of every non-trivial cut, taken once
  before the masks are dropped.

Graphs over :data:`MAX_VECTOR_GRAPH_SIZE` variables fill the same rows from
:func:`~repro.aig.cuts.enumerate_cut_lists` with one cone walk per cut for
its table and one for its volume, keeping neither the lists nor the walks'
tables: their variable ids overflow the packed 13-bit sort key, and the
interior bitmasks would cost ``O(rows x variables)`` bits.

Two entry points return the same rows, memoised on the graph's
:class:`~repro.aig.arrays.AigArrays` snapshot (``dp_cache``):
:func:`build_cut_arrays` for the mapper and :func:`enumerate_cuts` for
rewriting.  They are separate functions so a profiler that wraps one sees
only its own caller's enumeration.  ``tests/test_dp_arrays.py`` and
``tests/test_rewrite_rows.py`` hold the differential suites asserting cut
sets, tables and volumes against the scalar walks.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.aig.cuts import cut_volume, enumerate_cut_lists
from repro.aig.graph import Aig
from repro.aig.simulate import cone_truth_table
from repro.errors import AigError

#: Leaf-column padding.  Chosen as ``2**13 - 1`` so a whole ``(size,
#: leaves)`` sort key packs into one int64 (13 bits per leaf, pads sort
#: last); the wave batches therefore require every variable id to stay
#: below it (see :data:`MAX_VECTOR_GRAPH_SIZE`).  Columns past a row's
#: size hold it on larger graphs too, where it can also be a real id.
SENTINEL = 8191

#: Largest graph (variable count) the wave batches serve.  Bounded by the
#: 13-bit leaf packing above — and interior bitmasks cost
#: ``O(cuts * size / 8)`` bytes — so larger graphs take their rows from
#: the scalar cut lists.
MAX_VECTOR_GRAPH_SIZE = SENTINEL

#: Full truth-table masks indexed by support size 0..4.
_FULL_MASK = np.asarray([(1 << (1 << s)) - 1 for s in range(5)], dtype=np.int64)

#: Bit positions of the packed (size, l0, l1, l2, l3) sort key.
_PACK_SHIFTS = np.asarray([39, 26, 13, 0], dtype=np.int64)
_PACK_SIZE_SHIFT = 52

def _build_subset_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed-key generators for every proper nonempty subset of 4 slots.

    For leaf-slot mask ``m`` (1..14), a cut's subset key is
    ``leaves @ W[:, m] + B[m]``: each selected slot lands at its rank's
    13-bit field, the unselected tail is SENTINEL-padded, and the popcount
    becomes the size field — i.e. exactly the packed ``(size, leaves)`` key
    the subset would have *if it were a candidate cut*.  Looking the key up
    in the node's sorted candidate keys is therefore an exact strict-subset
    test (guarded by ``popcount < size``; keys containing SENTINEL in a
    leading slot can never match a real cut because variable ids stay below
    SENTINEL).
    """
    masks = [m for m in range(1, 15)]
    weight = np.zeros((4, 14), dtype=np.int64)
    base = np.zeros(14, dtype=np.int64)
    popcnt = np.zeros(14, dtype=np.int64)
    for col, mask in enumerate(masks):
        rank = 0
        for slot in range(4):
            if (mask >> slot) & 1:
                weight[slot, col] = np.int64(1) << int(_PACK_SHIFTS[rank])
                rank += 1
        popcnt[col] = rank
        base[col] = rank << _PACK_SIZE_SHIFT
        for pad_rank in range(rank, 4):
            base[col] += SENTINEL << int(_PACK_SHIFTS[pad_rank])
    return weight, base, popcnt


_SUB_W, _SUB_B, _SUB_PC = _build_subset_tables()

#: Largest per-wave node count the subset-lookup prune can serve: the
#: compound (group, packed-key) search key holds the group index above the
#: 55-bit packed key, leaving 9 bits.  Wider waves use the pairwise prune.
_MAX_LOOKUP_WAVE = 512


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
    ``(size, leaves)`` order, trivial cut last — the exact per-node order of
    :func:`~repro.aig.cuts.merge_node_cuts`.  The constant node and the PIs
    come first, then the AND nodes wave by wave, in
    ``and_level_groups()`` order.  ``volumes[row]`` counts the AND nodes in
    the row's cone, root included and leaves excluded; trivial rows read 0.
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

    Matches ``enumerate_cut_lists(aig, k, max_cuts_per_node,
    include_trivial=True)`` cut for cut.
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
    if arrays.size > MAX_VECTOR_GRAPH_SIZE:
        result = _rows_from_cut_lists(aig, k, max_cuts_per_node)
    else:
        result = _rows_from_waves(aig, k, max_cuts_per_node)
    # repro-lint: ignore[C2] -- _memoised_rows is the owner populating
    # dp_cache (first write of this key).
    arrays.dp_cache[cache_key] = result
    return result


def _rows_from_cut_lists(aig: Aig, k: int, max_cuts_per_node: int) -> CutArrays:
    """The rows of :func:`build_cut_arrays`, copied from the scalar cut lists.

    Tables come from unmemoised cone walks and the lists are dropped once
    copied, so the rows are the only cut data the graph keeps.
    """
    arrays = aig.arrays()
    cuts = enumerate_cut_lists(aig, k, max_cuts_per_node, include_trivial=True)
    pad = (SENTINEL,) * 4
    leaves = array("q")
    sizes = array("q")
    tables = array("q")
    volumes = array("q")
    start = np.zeros(arrays.size, dtype=np.int64)
    count = np.zeros(arrays.size, dtype=np.int64)

    def emit(var: int) -> None:
        start[var] = len(sizes)
        count[var] = len(cuts[var])
        for cut in cuts.pop(var):
            leaves.extend(cut.leaves + pad[cut.size :])
            sizes.append(cut.size)
            if cut.leaves == (var,):
                tables.append(0b10)
                volumes.append(0)
            else:
                tables.append(cone_truth_table(aig, var * 2, cut.leaves, memo=False))
                volumes.append(cut_volume(aig, cut))

    for var in [0] + arrays.pi_vars.tolist():
        emit(var)
    wave_row_ranges: List[Tuple[int, int]] = []
    for nodes in arrays.and_level_groups():
        begin = len(sizes)
        for var in nodes.tolist():
            emit(var)
        wave_row_ranges.append((begin, len(sizes)))
    return CutArrays(
        size=arrays.size,
        leaves=np.frombuffer(leaves, dtype=np.int64).reshape(-1, 4),
        sizes=np.frombuffer(sizes, dtype=np.int64),
        tables=np.frombuffer(tables, dtype=np.int64),
        volumes=np.frombuffer(volumes, dtype=np.int64),
        start=start,
        count=count,
        num_rows=len(sizes),
        hazard_fallbacks=0,
        wave_row_ranges=wave_row_ranges,
    )


def _rows_from_waves(aig: Aig, k: int, max_cuts_per_node: int) -> CutArrays:
    """The rows of :func:`build_cut_arrays`, merged a level wave at a time."""
    arrays = aig.arrays()
    size = arrays.size
    num_words = (size + 63) >> 6 if size else 1
    capacity = 1 + len(arrays.pi_vars) + aig.num_ands * (max_cuts_per_node + 1)
    leaves_buf = np.full((capacity, 4), SENTINEL, dtype=np.int64)
    sizes_buf = np.zeros(capacity, dtype=np.int64)
    tables_buf = np.zeros(capacity, dtype=np.int64)
    interior_buf = np.zeros((capacity, num_words), dtype=np.uint64)
    start = np.zeros(size, dtype=np.int64)
    count = np.zeros(size, dtype=np.int64)

    # Base rows: the constant node and every PI carry just their trivial
    # cut.  Constant node included because the scalar cone walk overrides a
    # leaf's value even when the leaf is the constant, so its "table" is
    # the identity, like a PI's.
    cursor = 0
    base_vars = [0] + arrays.pi_vars.tolist() if size else []
    for var in base_vars:
        leaves_buf[cursor, 0] = var
        sizes_buf[cursor] = 1
        tables_buf[cursor] = 0b10
        start[var] = cursor
        count[var] = 1
        cursor += 1

    fanin0_var = arrays.fanin0_var
    fanin1_var = arrays.fanin1_var
    fanin0_comp = arrays.fanin0_comp
    fanin1_comp = arrays.fanin1_comp
    hazard_fallbacks = 0
    wave_row_ranges: List[Tuple[int, int]] = []
    xv = np.arange(16, dtype=np.int64)
    xrow = xv[None, :]
    one_u64 = np.uint64(1)

    for nodes in arrays.and_level_groups():
        wave_begin = cursor
        num_nodes = len(nodes)
        f0 = fanin0_var[nodes]
        f1 = fanin1_var[nodes]
        n1 = count[f1]
        ppn = count[f0] * n1
        num_pairs = int(ppn.sum())
        node_of = np.repeat(nodes, ppn)
        local = _segmented_arange(ppn, num_pairs)
        n1_rep = np.repeat(n1, ppn)
        pair_i = local // n1_rep
        row0 = np.repeat(start[f0], ppn) + pair_i
        row1 = np.repeat(start[f1], ppn) + (local - pair_i * n1_rep)

        # ---- merge: sorted-unique union of the two padded leaf rows ---- #
        cat = np.concatenate((leaves_buf[row0], leaves_buf[row1]), axis=1)
        cat.sort(axis=1)
        valid = np.empty(cat.shape, dtype=bool)
        valid[:, 0] = cat[:, 0] != SENTINEL
        valid[:, 1:] = (cat[:, 1:] != cat[:, :-1]) & (cat[:, 1:] != SENTINEL)
        merged_size = valid.sum(axis=1)
        feasible = np.nonzero(merged_size <= k)[0]
        cat = cat[feasible]
        valid = valid[feasible]
        merged_size = merged_size[feasible]
        node_of = node_of[feasible]
        row0 = row0[feasible]
        row1 = row1[feasible]
        num_cand = len(feasible)
        merged = np.full((num_cand, 4), SENTINEL, dtype=np.int64)
        col = valid.cumsum(axis=1) - 1
        rows_nz, cols_nz = np.nonzero(valid)
        merged[rows_nz, col[rows_nz, cols_nz]] = cat[rows_nz, cols_nz]

        # ---- one stable sort on the packed (size, leaves) key ---- #
        # Equal leaf sets land adjacent (equal leaves => equal size), and
        # the surviving order after dedup + prune is already the scalar
        # pipeline's final (size, leaves) order.  Stability makes the
        # first row of each duplicate run the lowest (i, j) producing
        # pair — the instance the scalar dedup keeps.
        packed = (merged_size << _PACK_SIZE_SHIFT) | (
            (merged << _PACK_SHIFTS[None, :]).sum(axis=1)
        )
        order = np.lexsort((packed, node_of))
        s_node = node_of[order]
        s_packed = packed[order]
        first = np.empty(num_cand, dtype=bool)
        if num_cand:
            first[0] = True
            first[1:] = (s_node[1:] != s_node[:-1]) | (
                s_packed[1:] != s_packed[:-1]
            )
        uniq = order[first]
        u_node = s_node[first]
        u_leaves = merged[uniq]
        u_size = merged_size[uniq]
        num_uniq = len(uniq)
        grp = np.searchsorted(nodes, u_node)

        # ---- prune: drop sets with a strict subset among the node's sets #
        if num_nodes <= _MAX_LOOKUP_WAVE:
            # Generate every proper subset's packed key (one matmul) and
            # look it up among the node's candidate keys: found + smaller
            # popcount == a strict subset exists.  The compound search key
            # prefixes the wave-local group index, under which the deduped
            # rows are already globally sorted.
            u_packed = s_packed[first]
            ckey = (grp.astype(np.uint64) << np.uint64(55)) | u_packed.astype(
                np.uint64
            )
            sub_keys = u_leaves @ _SUB_W + _SUB_B[None, :]
            csub = (grp.astype(np.uint64)[:, None] << np.uint64(55)) | (
                sub_keys.astype(np.uint64)
            )
            pos = np.searchsorted(ckey, csub.ravel())
            np.minimum(pos, num_uniq - 1, out=pos)
            found = (ckey[pos] == csub.ravel()).reshape(num_uniq, 14)
            dominated = (found & (_SUB_PC[None, :] < u_size[:, None])).any(
                axis=1
            )
        else:
            # A strict subset is strictly smaller, so only rows with
            # size < k can dominate — and sorted-by-size order puts them
            # first in each node's block.  Pair dominators x group rows.
            m_per = np.bincount(grp, minlength=num_nodes)
            grp_start = np.cumsum(m_per) - m_per
            dominators = np.nonzero(u_size < k)[0]
            dom_grp = grp[dominators]
            pair_m = m_per[dom_grp]
            num_dpairs = int(pair_m.sum())
            dominated = np.zeros(num_uniq, dtype=bool)
            if num_dpairs:
                idx_a = np.repeat(dominators, pair_m)
                idx_b = np.repeat(
                    grp_start[dom_grp], pair_m
                ) + _segmented_arange(pair_m, num_dpairs)
                la = u_leaves[idx_a]
                lb = u_leaves[idx_b]
                a_in_b = ((la[:, :, None] == lb[:, None, :]).any(axis=2)) | (
                    la == SENTINEL
                )
                strict = (u_size[idx_a] < u_size[idx_b]) & a_in_b.all(axis=1)
                dominated[idx_b[strict]] = True

        # ---- truncation (order is already final) ---- #
        keep = np.nonzero(~dominated)[0]
        k_grp = grp[keep]
        surv_per_node = np.bincount(k_grp, minlength=num_nodes)
        rank = _segmented_arange(surv_per_node, len(keep))
        trunc = rank < max_cuts_per_node
        keep = keep[trunc]
        k_grp = k_grp[trunc]
        k_node = u_node[keep]
        k_leaves = u_leaves[keep]
        k_size = u_size[keep]
        k_rows = uniq[keep]
        k_row0 = row0[k_rows]
        k_row1 = row1[k_rows]
        num_kept = len(keep)

        # ---- interiors + hazard detection ---- #
        combined = interior_buf[k_row0] | interior_buf[k_row1]
        # SENTINEL's word index is out of range; clamp it (the bit read from
        # the clamped word is discarded by the != SENTINEL mask below).
        word_idx = np.minimum(k_leaves >> 6, num_words - 1)
        bit_idx = (k_leaves & 63).astype(np.uint64)
        leaf_words = combined[np.arange(num_kept)[:, None], word_idx]
        leaf_bits = (leaf_words >> bit_idx) & one_u64
        hazard = (
            leaf_bits.astype(bool) & (k_leaves != SENTINEL)
        ).any(axis=1)

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

        # ---- write the wave block: kept rows + one trivial row per node #
        kept_per_node = np.bincount(k_grp, minlength=num_nodes)
        kept_starts = np.cumsum(kept_per_node) - kept_per_node
        dest_kept = cursor + np.arange(num_kept) + k_grp
        dest_trivial = cursor + kept_starts + kept_per_node + np.arange(num_nodes)
        leaves_buf[dest_kept] = k_leaves
        sizes_buf[dest_kept] = k_size
        tables_buf[dest_kept] = k_tables
        interior_buf[dest_kept] = combined
        node_word = (k_node >> 6).astype(np.int64)
        interior_buf[dest_kept, node_word] |= one_u64 << (
            k_node & 63
        ).astype(np.uint64)
        leaves_buf[dest_trivial, 0] = nodes
        sizes_buf[dest_trivial] = 1
        tables_buf[dest_trivial] = 0b10
        start[nodes] = cursor + kept_starts + np.arange(num_nodes)
        count[nodes] = kept_per_node + 1
        cursor += num_kept + num_nodes
        wave_row_ranges.append((wave_begin, cursor))

        # ---- hazard fallback: scalar cone walk for suspicious merges ---- #
        hazard_rows = np.nonzero(hazard)[0]
        if len(hazard_rows):
            hazard_fallbacks += len(hazard_rows)
            for local_row in hazard_rows.tolist():
                dest = int(dest_kept[local_row])
                var = int(k_node[local_row])
                cut_leaves = tuple(
                    int(leaf)
                    for leaf in k_leaves[local_row].tolist()
                    if leaf != SENTINEL
                )
                tables_buf[dest] = cone_truth_table(aig, var * 2, cut_leaves)
                row_interior = np.zeros(num_words, dtype=np.uint64)
                for member in _interior_walk(aig, var, cut_leaves):
                    row_interior[member >> 6] |= one_u64 << np.uint64(
                        member & 63
                    )
                interior_buf[dest] = row_interior

    return CutArrays(
        size=size,
        leaves=leaves_buf[:cursor],
        sizes=sizes_buf[:cursor],
        tables=tables_buf[:cursor],
        volumes=_popcount_rows(interior_buf[:cursor]),
        start=start,
        count=count,
        num_rows=cursor,
        hazard_fallbacks=hazard_fallbacks,
        wave_row_ranges=wave_row_ranges,
    )
