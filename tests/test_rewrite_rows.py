"""Differential suite: row-based rewriting == the scalar per-cut oracle.

:class:`~repro.transforms.rewrite.Rewrite` takes each cut's leaves, table
and volume from the memoised cut rows and prices it with the count-only
ISOP recursion behind :func:`~repro.transforms.resynth.resynth_cost`.  The
oracle in ``rewrite_oracle.py`` walks every cut's cone for its table and its
volume and prices it from the ISOP cube lists.  Both must rebuild the same
graph, node for node, and each ingredient is checked on its own as well:
the rows' volumes against the oracle's :func:`~cut_oracle.cut_volume`, and the
count-only cost against the list ISOP.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.aig import cut_arrays
from repro.aig.graph import Aig
from repro.aig.random_graphs import random_aig
from repro.designs.registry import build_design, design_names
from repro.transforms import rewrite as rewrite_module
from repro.transforms.refactor import Refactor
from repro.transforms.resynth import resynth_cost
from repro.transforms.rewrite import Rewrite

from cut_oracle import Cut, cut_volume
from rewrite_oracle import list_isop_cost, oracle_rewrite

SPECS = design_names()


def _signature(aig: Aig):
    return aig.exact_key(), aig.po_literals(), aig.num_ands


def _assert_rewrites_match(aig: Aig, max_cuts_per_node: int = 8) -> None:
    for zero_cost in (False, True):
        rows = Rewrite(max_cuts_per_node=max_cuts_per_node, zero_cost=zero_cost).apply(aig)
        oracle = oracle_rewrite(aig, max_cuts_per_node=max_cuts_per_node, zero_cost=zero_cost)
        assert _signature(rows) == _signature(oracle), f"zero_cost={zero_cost}"


def _random_case(seed: int) -> Aig:
    rng = random.Random(9300 + seed)
    return random_aig(
        num_pis=rng.randint(4, 12),
        num_pos=rng.randint(1, 6),
        num_ands=rng.randint(30, 300),
        rng=random.Random(600 + seed),
        name=f"rw{seed}",
    )


def _reconvergent_aig(seed: int) -> Aig:
    """Few inputs, heavy fanin reuse: merges whose leaf sits inside a
    producing cone (the rows' hazard fallback) show up at 4 cuts per node."""
    rng = random.Random(seed)
    aig = Aig(f"hazard{seed}")
    literals = [aig.add_pi() for _ in range(rng.randint(3, 6))]
    for _ in range(rng.randint(10, 80)):
        pool = literals[-6:] if rng.random() < 0.5 and len(literals) >= 6 else literals
        a, b = rng.sample(pool, 2)
        lit = aig.add_and(a ^ rng.getrandbits(1), b ^ rng.getrandbits(1))
        if lit > 1 and lit not in literals:
            literals.append(lit)
    aig.add_po(literals[-1])
    return aig


#: (seed, max cuts per node) of reconvergent graphs with hazard rows at k=4.
_HAZARD_CASES = ((146, 4), (252, 5), (343, 4), (1044, 4))


# --------------------------------------------------------------------------- #
# Whole passes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [None, 3], ids=["registered", "seed3"])
@pytest.mark.parametrize("name", SPECS)
def test_rewrite_matches_oracle_on_specs(name, seed):
    _assert_rewrites_match(build_design(name, seed=seed))


@pytest.mark.parametrize("seed", range(20))
def test_rewrite_matches_oracle_on_random_aigs(seed):
    _assert_rewrites_match(_random_case(seed))


@pytest.mark.parametrize("seed, max_cuts", _HAZARD_CASES)
def test_rewrite_matches_oracle_through_hazard_rows(seed, max_cuts):
    aig = _reconvergent_aig(seed)
    assert cut_arrays.build_cut_arrays(aig, 4, max_cuts).hazard_fallbacks > 0
    _assert_rewrites_match(aig, max_cuts_per_node=max_cuts)


def test_rewrite_matches_oracle_over_packed_key_limit():
    """A graph of more than 8,191 variables rewrites like the oracle."""
    aig = random_aig(num_pis=64, num_ands=8300, num_pos=16, rng=random.Random(8191))
    assert aig.size > 8191
    _assert_rewrites_match(aig)


def test_rewrite_enumerates_through_its_own_entry_point():
    """Rewrite's rows come from ``enumerate_cuts``, a function of its own
    that shares the mapper's memo without being ``build_cut_arrays``."""
    aig = build_design("EX68")
    assert rewrite_module.enumerate_cuts is cut_arrays.enumerate_cuts
    assert cut_arrays.enumerate_cuts is not cut_arrays.build_cut_arrays
    assert not hasattr(rewrite_module, "build_cut_arrays")
    rows = cut_arrays.enumerate_cuts(aig, 4, 8)
    assert cut_arrays.build_cut_arrays(aig, 4, 8) is rows


# --------------------------------------------------------------------------- #
# Volumes
# --------------------------------------------------------------------------- #
def _assert_volumes_match(aig: Aig, rows: cut_arrays.CutArrays) -> int:
    """Every non-trivial row's volume is its cut's ``cut_volume``; trivial rows read 0."""
    checked = 0
    for var in range(aig.size):
        for row in rows.node_rows(var):
            size = int(rows.sizes[row])
            leaves = tuple(int(leaf) for leaf in rows.leaves[row, :size])
            if leaves == (var,):
                assert rows.volumes[row] == 0, (var, leaves)
                continue
            assert rows.volumes[row] == cut_volume(aig, Cut(var, leaves)), (var, leaves)
            checked += 1
    return checked


@pytest.mark.parametrize("name", SPECS)
def test_wave_row_volumes_match_cut_volume_on_specs(name):
    aig = build_design(name, seed=3)
    assert _assert_volumes_match(aig, cut_arrays.build_cut_arrays(aig, 4, 8)) > 0


@pytest.mark.parametrize("seed, max_cuts", _HAZARD_CASES)
def test_hazard_row_volumes_match_cut_volume(seed, max_cuts):
    aig = _reconvergent_aig(seed)
    rows = cut_arrays._rows_from_waves(aig, 4, max_cuts)
    assert rows.hazard_fallbacks > 0
    _assert_volumes_match(aig, rows)


@pytest.mark.parametrize("cut_size, max_cuts", [(2, 1), (3, 2), (4, 8)])
def test_cut_list_row_volumes_match_cut_volume(cut_size, max_cuts):
    aig = _random_case(40 + cut_size)
    rows = cut_arrays.build_cut_arrays(aig, cut_size, max_cuts)
    assert _assert_volumes_match(aig, rows) > 0


def test_cut_list_rows_leave_no_cone_memo_behind():
    """The rows are the only cut data a graph keeps, hazard rows included."""
    aig = _reconvergent_aig(146)
    assert cut_arrays.build_cut_arrays(aig, 4, 4).hazard_fallbacks > 0
    assert aig._cone_table_cache == {}


def test_popcount_table_matches_bitwise_count(monkeypatch):
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**63, size=(300, 5), dtype=np.uint64)
    words[:, 1] |= np.uint64(1) << np.uint64(63)
    expected = [sum(bin(int(w)).count("1") for w in row) for row in words]
    aig = build_design("EX68")
    rows = cut_arrays._rows_from_waves(aig, 4, 8)
    assert cut_arrays._popcount_rows(words).tolist() == expected
    monkeypatch.setattr(cut_arrays, "_BITWISE_COUNT", None)
    assert cut_arrays._popcount_rows(words).tolist() == expected
    # With the 16-bit table, the signature filter keeps the same rows.
    table_rows = cut_arrays._rows_from_waves(aig, 4, 8)
    for field in ("leaves", "sizes", "tables", "volumes", "start", "count"):
        assert (getattr(table_rows, field) == getattr(rows, field)).all(), field


# --------------------------------------------------------------------------- #
# Count-only ISOP cost
# --------------------------------------------------------------------------- #
def test_count_only_cost_matches_list_isop_on_every_4_input_table():
    for table in range(1 << 16):
        assert resynth_cost(table, 4) == list_isop_cost(table, 4), hex(table)


def test_count_only_cost_matches_list_isop_on_random_tables():
    rng = random.Random(2024)
    per_size = {5: 500, 6: 500, 7: 500, 8: 400, 9: 100, 10: 100}
    checked = 0
    for num_vars, count in per_size.items():
        for _ in range(count):
            table = rng.getrandbits(1 << num_vars)
            assert resynth_cost(table, num_vars) == list_isop_cost(table, num_vars)
            checked += 1
    assert checked >= 2000


def test_count_only_cost_matches_list_isop_on_refactor_tables(monkeypatch):
    """Every table refactoring prices on the eight specs, in both modes."""
    seen = set()

    def recording_cost(table, num_vars):
        seen.add((table, num_vars))
        return resynth_cost(table, num_vars)

    monkeypatch.setattr("repro.transforms.refactor.resynth_cost", recording_cost)
    for name in SPECS:
        aig = build_design(name)
        Refactor().apply(aig)
        Refactor(zero_cost=True).apply(aig)
    assert len(seen) > 1000
    for table, num_vars in sorted(seen):
        assert resynth_cost(table, num_vars) == list_isop_cost(table, num_vars)
