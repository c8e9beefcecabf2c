"""Differential tests for the structure-of-arrays AIG core.

The array core (:mod:`repro.aig.arrays`) replaced the per-node dict/list
sweeps behind the existing :class:`Aig` API.  This suite is the proof
apparatus for that refactor:

* reference implementations of the pre-refactor semantics (plain per-node
  loops over ``fanins()``/``and_vars()``) are kept *here*, in the test file,
  and every array-core result must match them exactly — across 50 random
  AIGs and randomized transform sequences;
* the vectorized simulation kernel must be bit-identical to the packed
  big-int path for every pattern width, including non-multiples of 64;
* ``exact_key``/``fingerprint`` are pinned to their pre-refactor constants
  (hashing inputs must not drift when the backing store changes shape);
* the caches introduced by the refactor (array snapshot, fanout counts,
  cone truth tables, cut sets) must survive ``clone()`` + divergent appends
  and in-place PO rebinding;
* the deep-cone ``RecursionError``, the unbounded ``po_truth_tables``
  blowup, and the silent ``transitive_fanout`` root drop — the bugs fixed
  alongside the refactor — each have a regression test.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro.aig.analysis import transitive_fanout
from repro.aig.graph import Aig
from repro.aig.literals import is_complemented, literal_var
from repro.aig.random_graphs import random_aig
from repro.aig.simulate import (
    MAX_EXACT_TABLE_PIS,
    cone_truth_table,
    po_truth_tables,
    random_pi_patterns,
    simulate,
)
from repro.errors import AigError
from repro.mapping.mapper import TechnologyMapper
from repro.sta.analysis import analyze_timing
from repro.transforms.engine import apply_script

from mapping_oracle import ScalarMapper

_sim_module = importlib.import_module("repro.aig.simulate")

PRIMITIVES = ["b", "rw", "rwz", "rf", "rfz", "rs", "st"]

#: Pinned pre-refactor digests: the hashing inputs (variable ids, fanin
#: literals, PI/PO bindings) must be unaffected by the array-core change.
EXPECTED_DIGESTS = {
    "EX00": (
        "349e417b7eb4f7587955947f29ef1f13",
        "72980f54c43057732cf9358a40c8c802",
    ),
    "tiny": (
        "4af3a7d775ab00de750a12aa564804ec",
        "1342c6e61f04df02e5732addfbeac443",
    ),
}


# --------------------------------------------------------------------------- #
# Pre-refactor reference implementations (seed semantics, kept verbatim)
# --------------------------------------------------------------------------- #
def _ref_levels(aig: Aig):
    level = [0] * aig.size
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        level[var] = 1 + max(level[literal_var(f0)], level[literal_var(f1)])
    return level


def _ref_fanout_counts(aig: Aig):
    counts = [0] * aig.size
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        counts[literal_var(f0)] += 1
        counts[literal_var(f1)] += 1
    for lit in aig.po_literals():
        counts[literal_var(lit)] += 1
    return counts


def _ref_fanouts(aig: Aig):
    fanouts = [[] for _ in range(aig.size)]
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        fanouts[literal_var(f0)].append(var)
        fanouts[literal_var(f1)].append(var)
    return fanouts


def _ref_simulate(aig: Aig, pi_values, num_patterns):
    mask = (1 << num_patterns) - 1
    values = [0] * aig.size
    for var, word in zip(aig.pi_vars, pi_values):
        values[var] = word & mask
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        v0 = values[literal_var(f0)]
        if is_complemented(f0):
            v0 = ~v0 & mask
        v1 = values[literal_var(f1)]
        if is_complemented(f1):
            v1 = ~v1 & mask
        values[var] = v0 & v1
    return values


def _random_case(seed: int) -> Aig:
    rng = random.Random(7000 + seed)
    return random_aig(
        num_pis=rng.randint(4, 8),
        num_pos=rng.randint(2, 4),
        num_ands=rng.randint(25, 90),
        rng=random.Random(300 + seed),
        name=f"arraycase{seed}",
    )


def _random_script(seed: int):
    rng = random.Random(4000 + seed)
    return [PRIMITIVES[rng.randrange(len(PRIMITIVES))] for _ in range(rng.randint(1, 3))]


def _assert_structure_matches(aig: Aig) -> None:
    assert aig.levels() == _ref_levels(aig)
    assert aig.fanout_counts() == _ref_fanout_counts(aig)
    assert aig.fanouts() == _ref_fanouts(aig)


# --------------------------------------------------------------------------- #
# Differential suite: 50 random AIGs x randomized transform sequences
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(50))
def test_arraycore_structural_and_simulation_differential(seed):
    aig = _random_case(seed)
    transformed = apply_script(aig, _random_script(seed)).aig

    for graph in (aig, transformed):
        _assert_structure_matches(graph)
        for num_patterns in (64, 512):
            patterns = random_pi_patterns(graph.num_pis, num_patterns, rng=seed)
            assert simulate(graph, patterns, num_patterns) == _ref_simulate(
                graph, patterns, num_patterns
            )


@pytest.mark.parametrize("seed", range(50))
def test_vectorized_simulation_kernel_bit_identical(seed):
    """The uint64-lane kernel must equal the big-int path, whatever the
    threshold heuristic would have picked — including pattern counts that
    leave a partial tail word."""
    aig = _random_case(seed)
    for num_patterns in (256, 321, 512):
        patterns = random_pi_patterns(aig.num_pis, num_patterns, rng=seed + 1)
        mask = (1 << num_patterns) - 1
        vectorized = _sim_module._simulate_vectorized(aig, patterns, num_patterns, mask)
        assert vectorized == _ref_simulate(aig, patterns, num_patterns)


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_arraycore_mapping_parity(seed, library):
    """The array-core mapping DP and the scalar reference DP agree
    gate-for-gate and in timing, before and after a transform script."""
    aig = _random_case(seed)
    transformed = apply_script(aig, _random_script(seed)).aig
    graphs = (aig, transformed)

    mapper = TechnologyMapper(library)
    oracle = ScalarMapper(library)
    for graph in graphs:
        netlist = mapper.map(graph)
        scalar = oracle.map(graph)
        assert scalar.gates == netlist.gates
        assert scalar.area_um2() == netlist.area_um2()
        report = analyze_timing(netlist)
        report_scalar = analyze_timing(scalar)
        assert report_scalar.max_delay_ps == report.max_delay_ps


def test_exact_key_and_fingerprint_pinned(tiny_aig):
    from repro.designs.registry import build_design

    ex00 = build_design("EX00")
    assert (ex00.exact_key(), ex00.fingerprint()) == EXPECTED_DIGESTS["EX00"]
    assert (tiny_aig.exact_key(), tiny_aig.fingerprint()) == EXPECTED_DIGESTS["tiny"]


# --------------------------------------------------------------------------- #
# Cache soundness across clone(), appends, and PO rebinding
# --------------------------------------------------------------------------- #
def test_caches_survive_clone_and_divergent_appends():
    base = _random_case(3)
    # Warm every cache on the base graph.
    base.levels()
    base.fanouts()
    base.fanout_counts()
    pis = base.pi_literals()

    fork = base.clone()
    lit_a = base.add_and(pis[0], pis[1] ^ 1)
    base.add_po(lit_a, "extra_a")
    lit_b = fork.add_and(pis[2] ^ 1, pis[3])
    fork.add_po(lit_b, "extra_b")

    for graph in (base, fork):
        _assert_structure_matches(graph)
    assert base.size == fork.size
    assert base.exact_key() != fork.exact_key()


def test_snapshot_arrays_are_frozen_against_mutation():
    # The snapshot is shared by reference across clones (and its derived
    # arrays feed memo caches), so every exposed array must be read-only:
    # an accidental in-place write should raise instead of silently
    # corrupting every other graph holding the same snapshot.
    base = _random_case(4)
    snapshot = base.arrays()
    fork = base.clone()
    assert fork.arrays() is snapshot  # clone shares the snapshot by reference

    direct = [
        snapshot.fanin0_lit,
        snapshot.fanin1_lit,
        snapshot.fanin0_var,
        snapshot.fanin1_var,
        snapshot.fanin0_comp,
        snapshot.fanin1_comp,
        snapshot.is_pi,
        snapshot.is_and,
        snapshot.pi_vars,
        snapshot.and_vars,
    ]
    derived = [
        snapshot.levels(),
        snapshot.fanin_ref_counts(),
        *snapshot.fanout_csr(),
        *snapshot.and_level_groups(),
    ]
    for array in direct + derived:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


def test_fanout_counts_track_po_rebinding():
    aig = Aig("rebind")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    ab = aig.add_and(a, b)
    aig.add_po(ab, "f")
    counts_before = aig.fanout_counts()
    assert counts_before == _ref_fanout_counts(aig)
    # Redirect the PO from the AND node to a bare PI: counts must follow.
    aig.set_po_literal(0, a)
    assert aig.fanout_counts() == _ref_fanout_counts(aig)
    assert aig.fanout_counts() != counts_before


def test_cone_truth_table_memo_consistent_after_clone():
    aig = _random_case(5)
    var = max(v for v in aig.and_vars())
    f0, f1 = aig.fanins(var)
    leaves = sorted({literal_var(f0), literal_var(f1)})
    table = cone_truth_table(aig, var * 2, leaves)
    fork = aig.clone()
    assert cone_truth_table(fork, var * 2, leaves) == table
    # A second query on either graph serves from the memo.
    assert cone_truth_table(aig, var * 2, leaves) == table


# --------------------------------------------------------------------------- #
# Regression: deep-cone RecursionError (the confirmed crash)
# --------------------------------------------------------------------------- #
def test_deep_chain_cone_truth_table_no_recursion_error():
    """A ~3000-node 2-leaf chain cone previously blew the recursion limit."""
    aig = Aig("deep_chain")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    chain = aig.add_and(a, b)
    for _ in range(3000):
        chain = aig.add_and(chain, b)
    aig.add_po(chain, "out")
    leaves = [literal_var(a), literal_var(b)]
    # Logically the whole chain collapses to a & b: minterm 3 only.
    assert cone_truth_table(aig, chain, leaves) == 0b1000
    # The complemented root inverts the table.
    assert cone_truth_table(aig, chain ^ 1, leaves) == 0b0111


def test_deep_chain_cone_no_recursion_error_via_cut():
    from repro.aig.cuts import Cut

    aig = Aig("deep_chain_cut")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    chain = aig.add_and(a, b ^ 1)
    for _ in range(2500):
        chain = aig.add_and(chain, a)
    aig.add_po(chain, "out")
    cut = Cut(root=literal_var(chain), leaves=(literal_var(a), literal_var(b)))
    assert cut.truth_table(aig) == 0b0010  # a & !b


# --------------------------------------------------------------------------- #
# Regression: po_truth_tables PI-count guard
# --------------------------------------------------------------------------- #
def test_po_truth_tables_rejects_wide_designs():
    aig = Aig("wide")
    literals = [aig.add_pi(f"i{i}") for i in range(MAX_EXACT_TABLE_PIS + 1)]
    aig.add_po(aig.add_and(literals[0], literals[1]), "out")
    with pytest.raises(AigError, match="max_pis"):
        po_truth_tables(aig)


def test_po_truth_tables_custom_limit():
    aig = Aig("medium")
    literals = [aig.add_pi(f"i{i}") for i in range(5)]
    aig.add_po(aig.add_and(literals[0], literals[4]), "out")
    with pytest.raises(AigError, match="max_pis=4"):
        po_truth_tables(aig, max_pis=4)
    tables = po_truth_tables(aig, max_pis=5)
    assert len(tables) == 1
    assert tables[0] != 0


# --------------------------------------------------------------------------- #
# Regression: transitive_fanout out-of-range roots
# --------------------------------------------------------------------------- #
def test_transitive_fanout_rejects_out_of_range_roots():
    aig = _random_case(6)
    with pytest.raises(AigError, match="out of range"):
        transitive_fanout(aig, [aig.size])
    with pytest.raises(AigError, match="out of range"):
        transitive_fanout(aig, [-1])
    # Valid roots still work, and a PO driver's fanout cone is just itself.
    sink = literal_var(aig.po_literals()[0])
    reached = transitive_fanout(aig, [sink])
    assert sink in reached
