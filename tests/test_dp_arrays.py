"""Differential suite: vectorized mapping DP == scalar DP, bit for bit.

The array-batched mapping DP (:mod:`repro.mapping.dp_arrays`) is only
allowed to exist because this suite holds: across random AIGs, two cell
libraries, and both mapping modes, the vectorized path must reproduce the
scalar reference DP exactly — same per-node arrivals, same emitted gates,
same nets, same floats.  The reference is :class:`mapping_oracle.ScalarMapper`;
the differential cases map with both and compare.
"""

from __future__ import annotations

import random

import pytest

from repro.aig import cut_arrays
from repro.aig.cuts import enumerate_cuts
from repro.aig.graph import Aig
from repro.aig.random_graphs import random_aig
from repro.aig.simulate import cone_truth_table
from repro.errors import MappingError
from repro.library.genlib import parse_genlib
from repro.library.library import CellLibrary
from repro.library.sky130_lite import load_sky130_lite
from repro.mapping import dp_arrays
from repro.mapping.mapper import MappingOptions, TechnologyMapper
from repro.sta.analysis import analyze_timing

from mapping_oracle import ScalarMapper

# A deliberately different library: other delays, other areas, a skewed
# cell mix — so parity cannot hinge on sky130-lite's particular tie-break
# landscape.
ALT_GENLIB = """
GATE INVA 0.7 Y=!A;
  PIN A 1.7 7.0 3.1
GATE NANDA 1.4 Y=!(A&B);
  PIN A 2.6 13.0 5.9
  PIN B 2.4 15.5 5.2
GATE NORA 1.6 Y=!(A|B);
  PIN A 2.2 18.5 6.8
  PIN B 2.3 17.0 6.1
GATE ANDA 2.3 Y=A&B;
  PIN A 2.0 23.0 4.9
  PIN B 2.1 21.5 4.4
GATE AOIA 2.9 Y=!((A&B)|C);
  PIN A 2.4 20.0 6.6
  PIN B 2.4 19.5 6.2
  PIN C 2.7 14.5 5.4
GATE OAIA 3.0 Y=!((A|B)&C);
  PIN A 2.3 19.0 6.4
  PIN B 2.3 20.5 6.0
  PIN C 2.5 15.0 5.6
"""


@pytest.fixture(scope="module")
def alt_library():
    return CellLibrary("alt", parse_genlib(ALT_GENLIB))


def _case(seed: int):
    rng = random.Random(7100 + seed)
    return random_aig(
        num_pis=rng.randint(4, 9),
        num_pos=rng.randint(2, 5),
        num_ands=rng.randint(20, 140),
        rng=random.Random(300 + seed),
        name=f"dp{seed}",
    )


def _netlist_signature(netlist):
    return (
        [(gate.cell.name, gate.inputs, gate.output) for gate in netlist.gates],
        list(netlist.po_nets),
        dict(netlist.constant_nets),
    )


def _map_both(aig, library, options):
    """(oracle netlist, vector netlist, oracle mapper) for one config."""
    oracle = ScalarMapper(library, options)
    scalar = oracle.map(aig)
    vector = TechnologyMapper(library, options).map(aig)
    return scalar, vector, oracle


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mode", ["delay", "area"])
def test_vectorized_dp_matches_scalar_sky130(seed, mode, library):
    aig = _case(seed)
    options = MappingOptions(mode=mode)
    scalar, vector, _oracle = _map_both(aig, library, options)
    context = f"seed={seed} mode={mode}"
    assert _netlist_signature(vector) == _netlist_signature(scalar), context
    # Timing must agree bit for bit too (same gates on same nets).
    ref = analyze_timing(scalar, po_load_ff=library.po_load_ff)
    got = analyze_timing(vector, po_load_ff=library.po_load_ff)
    assert got.max_delay_ps == ref.max_delay_ps, context
    assert vector.area_um2() == scalar.area_um2(), context


#: (seed, mode, cut size, cuts per node).  At one cut per node some nodes
#: of these graphs list no cut the alt library matches (an XOR, say), so
#: they take their fanin-pair cut.
_ALT_CASES = [
    pytest.param(seed, mode, 4, 10, id=f"{mode}-{seed}")
    for seed in range(6)
    for mode in ("delay", "area")
] + [
    pytest.param(seed, mode, cut_size, 1, id=f"{mode}-{seed}-k{cut_size}-one-cut")
    for seed, cut_size in ((20, 2), (180, 3))
    for mode in ("delay", "area")
]


@pytest.mark.parametrize("seed, mode, cut_size, max_cuts", _ALT_CASES)
def test_vectorized_dp_matches_scalar_alt_library(
    seed, mode, cut_size, max_cuts, alt_library
):
    aig = _case(100 + seed)
    options = MappingOptions(
        mode=mode, cut_size=cut_size, max_cuts_per_node=max_cuts
    )
    scalar, vector, oracle = _map_both(aig, alt_library, options)
    context = f"seed={seed} mode={mode} k={cut_size} cuts={max_cuts} lib=alt"
    assert _netlist_signature(vector) == _netlist_signature(scalar), context
    if max_cuts == 1:
        assert oracle.fanin_pair_nodes, context


@pytest.mark.parametrize("cut_size", [2, 3, 4])
def test_vectorized_dp_matches_scalar_across_cut_sizes(cut_size, library):
    aig = _case(200 + cut_size)
    options = MappingOptions(cut_size=cut_size)
    scalar, vector, _oracle = _map_both(aig, library, options)
    assert _netlist_signature(vector) == _netlist_signature(scalar)


def test_dp_stats_account_for_every_and(library):
    aig = _case(400)
    stats = dp_arrays.try_full_dp(TechnologyMapper(library), aig).stats
    assert stats.vector_nodes == stats.total_ands == aig.num_ands


def _wide_wave_aig():
    """24 PIs, 600 ANDs over the PIs, 600 ANDs over those: two wide waves.

    The first layer takes all four polarities of 150 PI pairs.  Half of the
    second layer ANDs two such siblings, whose shared PI pair is a strict
    subset of the siblings' mixed cuts, so the prune has cuts to drop.
    """
    rng = random.Random(515)
    aig = Aig("wide")
    pis = [aig.add_pi() for _ in range(24)]
    pairs = rng.sample([(i, j) for i in range(24) for j in range(i + 1, 24)], 150)
    first = [
        aig.add_and(pis[i] ^ (neg & 1), pis[j] ^ (neg >> 1))
        for i, j in pairs
        for neg in range(4)
    ]
    siblings = [
        (4 * pair + a, 4 * pair + b) for pair in range(150) for a, b in ((0, 1), (2, 3))
    ]
    mixed = rng.sample(
        [(i, j) for i in range(600) for j in range(i + 1, 600) if i // 4 != j // 4],
        300,
    )
    for i, j in siblings + mixed:
        aig.add_po(aig.add_and(first[i], first[j] ^ rng.getrandbits(1)))
    return aig


def test_wide_wave_cut_prune_matches_scalar(library):
    """Waves wider than the subset-lookup limit take the pairwise prune."""
    aig = _wide_wave_aig()
    widths = [len(group) for group in aig.arrays().and_level_groups()]
    assert max(widths) > cut_arrays._MAX_LOOKUP_WAVE, widths

    options = MappingOptions()
    k, max_cuts = options.cut_size, options.max_cuts_per_node
    arrays_cuts = cut_arrays.build_cut_arrays(aig, k, max_cuts)
    scalar_cuts = enumerate_cuts(aig, k, max_cuts, include_trivial=True)
    for var in range(aig.size):
        rows = arrays_cuts.node_rows(var)
        leaves = [
            tuple(
                int(leaf)
                for leaf in arrays_cuts.leaves[row]
                if leaf != cut_arrays.SENTINEL
            )
            for row in rows
        ]
        assert leaves == [cut.leaves for cut in scalar_cuts[var]], var
        tables = [int(arrays_cuts.tables[row]) for row in rows]
        assert tables == [
            cone_truth_table(aig, var * 2, cut) for cut in leaves
        ], var

    scalar, vector, _oracle = _map_both(aig, library, options)
    assert _netlist_signature(vector) == _netlist_signature(scalar)


@pytest.mark.parametrize("cut_size, max_cuts", [(2, 1), (3, 2), (4, 10)])
def test_cut_list_rows_match_wave_rows(cut_size, max_cuts):
    """Graphs over the packed-key limit copy their rows from the scalar cut
    lists; on a small graph both builders must lay out the same rows."""
    aig = _case(500 + cut_size)
    waves = cut_arrays._rows_from_waves(aig, cut_size, max_cuts)
    lists = cut_arrays._rows_from_cut_lists(aig, cut_size, max_cuts)
    assert lists.num_rows == waves.num_rows
    assert lists.wave_row_ranges == waves.wave_row_ranges
    for field in ("leaves", "sizes", "tables", "start", "count"):
        assert (getattr(lists, field) == getattr(waves, field)).all(), field


def test_vectorized_dp_matches_scalar_over_packed_key_limit(library):
    """Past 8,191 variables the cut rows come from the scalar cut lists."""
    aig = random_aig(num_pis=64, num_ands=8300, num_pos=16, rng=random.Random(8191))
    assert aig.size > cut_arrays.MAX_VECTOR_GRAPH_SIZE
    for mode in ("delay", "area"):
        scalar, vector, _oracle = _map_both(aig, library, MappingOptions(mode=mode))
        assert _netlist_signature(vector) == _netlist_signature(scalar), mode


def test_unmatchable_fanin_pair_raises_like_the_oracle():
    """With no AND-family cell even the fanin-pair cut fails to match."""
    xor_only = CellLibrary(
        "xor",
        parse_genlib(
            "GATE INVX 1.0 Y=!A;\n  PIN A 1.0 10.0 3.0\n"
            "GATE XORX 3.0 Y=A^B;\n  PIN A 2.0 20.0 5.0\n  PIN B 2.0 20.0 5.0\n"
        ),
    )
    aig = Aig("and")
    a, b = aig.add_pi(), aig.add_pi()
    aig.add_po(aig.add_xor(a, b))
    aig.add_po(aig.add_and(a, b))
    messages = []
    for mapper in (ScalarMapper(xor_only), TechnologyMapper(xor_only)):
        with pytest.raises(MappingError, match="library is missing basic cells") as info:
            mapper.map(aig)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
