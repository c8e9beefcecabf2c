"""The technology mapper's cut-selection DP, as batched array reductions.

:meth:`TechnologyMapper.map <repro.mapping.mapper.TechnologyMapper.map>`
chooses, for every AND node, the cut and realisation with the least
estimated arrival (delay mode) or area flow (area mode).  This module is
that DP, for every node of every graph:

* a module-level **reduction LUT** maps every 4-variable truth table to its
  support mask and support-reduced table in one gather (smaller cuts are
  padded by replication, which adds only non-support variables);
* per library, a **flattened match table** (:class:`MatchTables`) lays the
  Boolean match index out as contiguous arrays: per match row the pin→leaf
  permutation, pin inverter delays, pin delays at the estimated load, and
  the exact scalar-accumulated area base (cell area plus inverter areas in
  scalar addition order).  Four pseudo rows lead it: the constants 0 and 1
  (no pin) and the single-input alias, plain and negated (one pin, plus
  the inverter's delay and area when negated), so constant and alias cuts
  are scored by the same gather as cell matches;
* per graph snapshot, a **candidate layout** (:class:`CandidateLayout`)
  expands every matchable cut of every node into candidate rows (term leaf
  ids, delay addends, flow leaf ids) — cached on ``AigArrays.dp_cache``
  because it is independent of fanout counts and mapping mode.  A node none
  of whose cuts matches takes its structural fanin-pair cut, which matches
  an AND-family cell in any sane library; when that fails too, the layout
  raises :class:`~repro.errors.MappingError`;
* the **wave DP** walks level waves; per wave one gather + reduction chain
  scores all candidates and a stable lexsort picks, per node, the first
  strictly better candidate over (cut order, match order), which is exactly
  the lexicographic minimum of ``(key0, key1, candidate position)``.

Float exactness: the per-candidate arithmetic is the plain scalar
evaluation, operation for operation — ``t = arrival[leaf]; t +=
inv_delay?; t += pin_delay`` becomes two separate array adds, leaf flows
accumulate in support order with ``+0.0`` pads (exact: flows are never
``-0.0``), and column sums are written as sequential binary adds, never
``ndarray.sum`` (pairwise association would differ).  That scalar chooser
is kept in ``tests/mapping_oracle.py``, and ``tests/test_dp_arrays.py``
asserts bit-equal netlists against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.aig.cut_arrays import SENTINEL, CutArrays, build_cut_arrays
from repro.aig.graph import Aig
from repro.aig.simulate import cone_truth_table
from repro.errors import MappingError
from repro.library.library import CellLibrary

_NEG_INF = float("-inf")

#: Replication multipliers padding an s-variable table to 4 variables
#: (index = s).  Replication repeats the function over the added variables,
#: so the added variables are non-support and reduction is unchanged.
_PAD_MULT = np.asarray([0, 0x5555, 0x1111, 0x0101, 1], dtype=np.int64)

# Lazily built module LUTs over all 65536 4-variable tables (library
# independent).  _REDUCED[t] is the support-reduced table, _SUPMASK[t] the
# support-variable bitmask; _SUPPOS/_SUPCNT decode a 4-bit support mask
# into ascending variable positions / popcount.
_LUTS: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None


def _build_luts() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    tables = np.arange(65536, dtype=np.int64)
    supmask = np.zeros(65536, dtype=np.int64)
    for var in range(4):
        stride = 1 << var
        # Minterm positions where this variable is 0, as a 16-bit mask.
        var_mask = 0
        for minterm in range(16):
            if not (minterm >> var) & 1:
                var_mask |= 1 << minterm
        depends = (((tables >> stride) ^ tables) & var_mask) != 0
        supmask |= depends.astype(np.int64) << var
    reduced = np.zeros(65536, dtype=np.int64)
    suppos = np.zeros((16, 4), dtype=np.int64)
    supcnt = np.zeros(16, dtype=np.int64)
    for mask in range(16):
        positions = [v for v in range(4) if (mask >> v) & 1]
        supcnt[mask] = len(positions)
        for j, pos in enumerate(positions):
            suppos[mask, j] = pos
        rows = np.nonzero(supmask == mask)[0]
        sub = tables[rows]
        out = np.zeros(len(rows), dtype=np.int64)
        for minterm in range(1 << len(positions)):
            original = 0
            for j, pos in enumerate(positions):
                if (minterm >> j) & 1:
                    original |= 1 << pos
            out |= ((sub >> original) & 1) << minterm
        reduced[rows] = out
    return reduced, supmask, suppos, supcnt


def _luts() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    global _LUTS
    if _LUTS is None:
        # Benign race: the build is deterministic and idempotent, so
        # concurrent first calls just do redundant work (same idiom as
        # CellLibrary.fingerprint's lazy attribute).
        _LUTS = _build_luts()
    return _LUTS


#: Match rows of the pseudo classes that lead every :class:`MatchTables`:
#: constant 0, constant 1, the alias, and the negated alias.
_ALIAS, _ALIAS_NEG, _PSEUDO_ROWS = 2, 3, 4


class MatchTables:
    """A library's Boolean match index, flattened for array evaluation.

    One row per (function class, match) pair, clamped to the first
    ``max_matches`` matches per class — the same prefix of the
    (num_inverters, area)-sorted match list the scalar chooser visits.  Rows
    0-3 are the pseudo classes (one row each, no :class:`Match`): a
    zero-support table is a constant with no pin, and a one-support table
    an alias whose one pin adds the inverter's delay and area if negated.
    """

    __slots__ = (
        "classid",
        "match_start",
        "match_count",
        "pin_to_leaf",
        "pin_inv_add",
        "pin_delay",
        "out_add",
        "area_base",
        "matches",
        "inv_delay",
        "inv_area",
    )

    def __init__(self, library: CellLibrary, load_ff: float, max_matches: int) -> None:
        inv_cell = library.inverter
        self.inv_delay = inv_cell.worst_delay_ps(load_ff)
        self.inv_area = inv_cell.area_um2
        self.classid = np.full((5, 65536), -1, dtype=np.int32)
        # Pseudo classes, indexed by (support size, reduced table).
        self.classid[0, 0], self.classid[0, 1] = 0, 1
        self.classid[1, 0b10], self.classid[1, 0b01] = _ALIAS, _ALIAS_NEG
        starts: List[int] = list(range(_PSEUDO_ROWS))
        counts: List[int] = [1] * _PSEUDO_ROWS
        p2l: List[List[int]] = [[0, 0, 0, 0]] * _PSEUDO_ROWS
        inv_add: List[List[float]] = [[0.0] * 4] * 3 + [[self.inv_delay, 0.0, 0.0, 0.0]]
        pdelay: List[List[float]] = [[0.0] * 4] * _PSEUDO_ROWS
        out_add: List[float] = [0.0] * _PSEUDO_ROWS
        base: List[float] = [0.0] * 3 + [self.inv_area]
        self.matches: List = [None] * _PSEUDO_ROWS
        for num_vars, table, matches in library.match_index_items():
            if not 2 <= num_vars <= 4:
                continue
            cid = len(starts)
            self.classid[num_vars, table] = cid
            clamped = matches[:max_matches]
            starts.append(len(self.matches))
            counts.append(len(clamped))
            for match in clamped:
                self.matches.append(match)
                row_p2l = [0, 0, 0, 0]
                row_inv = [0.0, 0.0, 0.0, 0.0]
                row_del = [0.0, 0.0, 0.0, 0.0]
                inverter_area = 0.0
                for pin_index, pin in enumerate(match.cell.pins):
                    row_p2l[pin_index] = match.pin_to_leaf[pin_index]
                    if match.pin_negated[pin_index]:
                        row_inv[pin_index] = self.inv_delay
                        inverter_area += self.inv_area
                    row_del[pin_index] = pin.delay_ps(load_ff)
                if match.output_negated:
                    out_add.append(self.inv_delay)
                    inverter_area += self.inv_area
                else:
                    out_add.append(0.0)
                # Exact scalar association: (cell.area + inverter_area),
                # the left operand of the later "+ leaf_flow".
                base.append(match.cell.area_um2 + inverter_area)
                p2l.append(row_p2l)
                inv_add.append(row_inv)
                pdelay.append(row_del)
        self.match_start = np.asarray(starts, dtype=np.int64)
        self.match_count = np.asarray(counts, dtype=np.int64)
        self.pin_to_leaf = np.asarray(p2l, dtype=np.int64).reshape(-1, 4)
        self.pin_inv_add = np.asarray(inv_add, dtype=np.float64).reshape(-1, 4)
        self.pin_delay = np.asarray(pdelay, dtype=np.float64).reshape(-1, 4)
        self.out_add = np.asarray(out_add, dtype=np.float64)
        self.area_base = np.asarray(base, dtype=np.float64)


def match_tables(library: CellLibrary, load_ff: float, max_matches: int) -> MatchTables:
    """The (cached) flattened match tables of *library* at *load_ff*."""
    cache: Optional[Dict] = getattr(library, "_dp_match_tables", None)
    if cache is None:
        cache = {}
        # Lazy-attribute idiom (see CellLibrary.fingerprint): libraries are
        # immutable, so a racing duplicate build is redundant, not wrong.
        library._dp_match_tables = cache  # type: ignore[attr-defined]
    key = (load_ff, max_matches)
    tables = cache.get(key)
    if tables is None:
        tables = MatchTables(library, load_ff, max_matches)
        cache[key] = tables
    return tables


class CandidateLayout:
    """Per-snapshot expansion of matchable cuts into DP candidate rows.

    Everything here depends only on the frozen graph prefix, the library
    content, the estimated load, and the match clamp — not on fanout counts
    or mapping mode — so it is cached on ``AigArrays.dp_cache`` alongside
    the :class:`CutArrays` it is derived from.
    """

    __slots__ = (
        "cut_arrays",
        "cand_cut",
        "cand_node",
        "cand_match",
        "term_leaf",
        "term_add0",
        "term_add1",
        "term_active",
        "out_add",
        "area_base",
        "flow_leaf",
        "flow_active",
        "wave_bounds",
    )

    def __init__(self, aig: Aig, ca: CutArrays, mt: MatchTables) -> None:
        arrays = aig.arrays()
        start = ca.start
        count = ca.count
        and_vars = arrays.and_vars

        # Non-trivial AND cut rows, ascending (trivial = last row per node).
        nontrivial = np.zeros(ca.num_rows, dtype=bool)
        if len(and_vars):
            a_start = start[and_vars]
            a_count = count[and_vars]
            spans = a_count - 1
            total = int(spans.sum())
            starts_rep = np.repeat(a_start, spans)
            offs = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(spans) - spans, spans
            )
            nontrivial[starts_rep + offs] = True
        rows = np.nonzero(nontrivial)[0]
        # Per-row owning variable, via rows sorted by block start.
        order_vars = np.argsort(start, kind="stable")
        node_of_row = np.repeat(order_vars, count[order_vars])

        cid, supmask = _classify(mt, ca.tables[rows], ca.sizes[rows])
        usable = cid >= 0
        sel_rows = rows[usable]
        sel_node = node_of_row[sel_rows]
        sel_cid = cid[usable]
        sel_mask = supmask[usable]
        sel_leaves = ca.leaves[sel_rows]

        # A node none of whose cuts matches takes its fanin-pair cut, as a
        # candidate of its trivial row (the last of its block).
        covered = np.zeros(arrays.size, dtype=bool)
        covered[sel_node] = True
        bare = and_vars[~covered[and_vars]]
        if len(bare):
            pair_leaves, pair_tables, pair_sizes = _fanin_pair_cuts(aig, bare)
            pair_cid, pair_mask = _classify(mt, pair_tables, pair_sizes)
            if (pair_cid < 0).any():
                var = int(bare[np.argmax(pair_cid < 0)])
                raise MappingError(
                    f"no match found for node {var}; the library is missing basic cells"
                )
            sel_rows = np.concatenate((sel_rows, start[bare] + count[bare] - 1))
            merged = np.argsort(sel_rows, kind="stable")
            sel_rows = sel_rows[merged]
            sel_node = np.concatenate((sel_node, bare))[merged]
            sel_cid = np.concatenate((sel_cid, pair_cid))[merged]
            sel_mask = np.concatenate((sel_mask, pair_mask))[merged]
            sel_leaves = np.concatenate((sel_leaves, pair_leaves))[merged]

        # Support-ordered leaf columns per selected cut.
        _reduced, _supmask, suppos_lut, supcnt_lut = _luts()
        num_sel = len(sel_rows)
        sup_leaf = sel_leaves[
            np.arange(num_sel)[:, None], suppos_lut[sel_mask]
        ]
        sel_cnt = supcnt_lut[sel_mask]

        # Expand matches: one candidate row per (cut, match) pair, in the
        # scalar visit order (cut rows ascending, match prefix order).
        mc = mt.match_count[sel_cid]
        num_cand = int(mc.sum())
        cut_of = np.repeat(np.arange(num_sel, dtype=np.int64), mc)
        local = np.arange(num_cand, dtype=np.int64) - np.repeat(
            np.cumsum(mc) - mc, mc
        )
        mrow = np.repeat(mt.match_start[sel_cid], mc) + local
        self.cand_cut = sel_rows[cut_of]
        self.cand_node = sel_node[cut_of]
        self.cand_match = mrow

        p2l = mt.pin_to_leaf[mrow]
        sup_of_cand = sup_leaf[cut_of]
        self.term_leaf = sup_of_cand[np.arange(num_cand)[:, None], p2l]
        self.term_add0 = mt.pin_inv_add[mrow]
        self.term_add1 = mt.pin_delay[mrow]
        # Active pin columns: every pin of the cell or pseudo class
        # (num_inputs == support size of its class by construction).
        self.term_active = (
            np.arange(4, dtype=np.int64)[None, :] < sel_cnt[cut_of][:, None]
        )
        self.out_add = mt.out_add[mrow]
        self.area_base = mt.area_base[mrow]
        self.flow_leaf = sup_of_cand
        self.flow_active = self.term_active

        # Candidate index bounds per level wave (rows of a wave are written
        # contiguously, and cand_cut ascends).
        edges: List[int] = []
        for begin, end in ca.wave_row_ranges:
            edges.append(begin)
            edges.append(end)
        bounds = np.searchsorted(self.cand_cut, np.asarray(edges, dtype=np.int64))
        self.wave_bounds = bounds.reshape(-1, 2)
        self.cut_arrays = ca


def _classify(
    mt: MatchTables, tables: np.ndarray, sizes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(match class or -1, support mask) of each cut's table."""
    reduced_lut, supmask_lut, _suppos, supcnt_lut = _luts()
    padded = tables * _PAD_MULT[sizes]
    supmask = supmask_lut[padded]
    return mt.classid[supcnt_lut[supmask], reduced_lut[padded]], supmask


def _fanin_pair_cuts(
    aig: Aig, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(padded leaves, tables, sizes) of each node's fanin-pair cut."""
    f0v, f1v = aig.arrays().fanin_var_lists()
    leaves: List[Tuple[int, ...]] = []
    tables: List[int] = []
    sizes: List[int] = []
    for var in nodes.tolist():
        pair = tuple(sorted({f0v[var], f1v[var]}))
        leaves.append(pair + (SENTINEL,) * (4 - len(pair)))
        tables.append(cone_truth_table(aig, var * 2, pair))
        sizes.append(len(pair))
    return (
        np.asarray(leaves, dtype=np.int64),
        np.asarray(tables, dtype=np.int64),
        np.asarray(sizes, dtype=np.int64),
    )


def candidate_layout(
    aig: Aig, k: int, max_cuts: int, library: CellLibrary, load_ff: float, max_matches: int
) -> CandidateLayout:
    """Build (or fetch) the cached candidate layout for this configuration."""
    arrays = aig.arrays()
    key = ("dp_layout", k, max_cuts, library.fingerprint(), load_ff, max_matches)
    cached = arrays.dp_cache.get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    ca = build_cut_arrays(aig, k, max_cuts)
    mt = match_tables(library, load_ff, max_matches)
    layout = CandidateLayout(aig, ca, mt)
    # repro-lint: ignore[C2] -- candidate_layout owns this dp_cache key
    # (first write), mirroring enumerate_cuts' cut_cache ownership.
    arrays.dp_cache[key] = layout
    return layout


@dataclass
class DpStats:
    """Work counters of one DP run."""

    total_ands: int = 0
    vector_nodes: int = 0
    hazard_fallbacks: int = 0


@dataclass
class DpResult:
    """The chosen implementation of every AND node, and the work counters."""

    choices: Dict[int, object]
    stats: DpStats


def try_full_dp(mapper, aig: Aig) -> DpResult:
    """Choose the cut and realisation of every AND node of *aig*.

    The choices (same Match objects) are the scalar chooser's: per node,
    the first candidate with the least key over (cut order, match order),
    the fanin-pair cut when no listed cut matches.
    """
    opts = mapper.options
    layout = candidate_layout(
        aig,
        mapper.cut_size,
        opts.max_cuts_per_node,
        mapper.library,
        opts.estimated_load_ff,
        opts.max_matches_per_cut,
    )
    mt = match_tables(
        mapper.library, opts.estimated_load_ff, opts.max_matches_per_cut
    )
    arrays = aig.arrays()
    size = arrays.size
    fan_clip = np.maximum(np.asarray(aig.fanout_counts(), dtype=np.int64), 1)

    arrival = np.zeros(size, dtype=np.float64)
    area_flow = np.zeros(size, dtype=np.float64)
    flow_div = np.zeros(size, dtype=np.float64)
    delay_mode = opts.mode == "delay"

    term_leaf = layout.term_leaf
    term_add0 = layout.term_add0
    term_add1 = layout.term_add1
    term_active = layout.term_active
    out_add = layout.out_add
    area_base = layout.area_base
    flow_leaf = layout.flow_leaf
    flow_active = layout.flow_active
    cand_node = layout.cand_node
    winner_cands: List[np.ndarray] = []
    winner_nodes: List[np.ndarray] = []

    # Every node of a wave has a candidate, so every wave has a winner per
    # node, in ascending variable order.
    for lo, hi in layout.wave_bounds.tolist():
        sl = slice(lo, hi)
        t = arrival[term_leaf[sl]] + term_add0[sl]
        t += term_add1[sl]
        t = np.where(term_active[sl], t, _NEG_INF)
        cand_arr = t.max(axis=1)
        np.maximum(cand_arr, 0.0, out=cand_arr)
        cand_arr += out_add[sl]
        f = np.where(flow_active[sl], flow_div[flow_leaf[sl]], 0.0)
        flow = f[:, 0] + f[:, 1]
        flow += f[:, 2]
        flow += f[:, 3]
        cand_area = area_base[sl] + flow
        w_node = cand_node[sl]
        if delay_mode:
            order = np.lexsort((cand_area, cand_arr, w_node))
        else:
            order = np.lexsort((cand_arr, cand_area, w_node))
        ordered_nodes = w_node[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = ordered_nodes[1:] != ordered_nodes[:-1]
        win = order[first]
        nodes = ordered_nodes[first]
        arrival[nodes] = cand_arr[win]
        area_flow[nodes] = cand_area[win]
        flow_div[nodes] = area_flow[nodes] / fan_clip[nodes]
        winner_cands.append(win + lo)
        winner_nodes.append(nodes)

    chosen = _winner_choices(layout, mt, winner_cands, winner_nodes)
    and_list = arrays.and_vars.tolist()
    stats = DpStats(
        total_ands=len(and_list),
        vector_nodes=len(chosen),
        hazard_fallbacks=layout.cut_arrays.hazard_fallbacks,
    )
    return DpResult(choices={var: chosen[var] for var in and_list}, stats=stats)


def _winner_choices(
    layout: CandidateLayout,
    mt: MatchTables,
    winner_cands: List[np.ndarray],
    winner_nodes: List[np.ndarray],
) -> Dict[int, object]:
    """The node choice of every winning candidate, keyed by node."""
    from repro.mapping.mapper import AliasChoice, CellChoice, ConstantChoice

    if not winner_cands:
        return {}
    wins = np.concatenate(winner_cands)
    nodes = np.concatenate(winner_nodes)
    # layout.flow_leaf rows are the support leaves of the candidate's cut,
    # and its active flow columns count them.
    leaves_rows = layout.flow_leaf[wins].tolist()
    cnt_rows = layout.flow_active[wins].sum(axis=1).tolist()
    match_rows = layout.cand_match[wins].tolist()
    chosen: Dict[int, object] = {}
    for var, leaves, cnt, mrow in zip(
        nodes.tolist(), leaves_rows, cnt_rows, match_rows
    ):
        if mrow >= _PSEUDO_ROWS:
            chosen[var] = CellChoice(
                match=mt.matches[mrow], leaves=tuple(leaves[:cnt])
            )
        elif mrow >= _ALIAS:
            chosen[var] = AliasChoice(leaf=leaves[0], negated=mrow == _ALIAS_NEG)
        else:
            chosen[var] = ConstantChoice(value=mrow)
    return chosen
