"""Differential suite: vectorized mapping DP == scalar DP, bit for bit.

The array-batched cold-map DP (:mod:`repro.mapping.dp_arrays`) is only
allowed to exist because this suite holds: across random AIGs, two cell
libraries, and both mapping modes, the vectorized path must reproduce the
scalar reference DP exactly — same per-node arrivals, same emitted gates,
same nets, same floats.  Patching ``dp_arrays.try_full_dp`` to return
``None`` forces the reference implementation; the differential cases run
both and compare.
"""

from __future__ import annotations

import random

import pytest

from repro.aig.random_graphs import random_aig
from repro.library.genlib import parse_genlib
from repro.library.library import CellLibrary
from repro.library.sky130_lite import load_sky130_lite
from repro.mapping import dp_arrays
from repro.mapping.mapper import MappingOptions, TechnologyMapper
from repro.sta.analysis import analyze_timing

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


def _map_both(aig, library, options, monkeypatch):
    """(scalar netlist, vector netlist, vector DpStats) for one config."""
    vector_dp = dp_arrays.try_full_dp
    monkeypatch.setattr(dp_arrays, "try_full_dp", lambda mapper, aig: None)
    scalar_mapper = TechnologyMapper(library, options)
    scalar = scalar_mapper.map(aig)
    assert scalar_mapper.last_dp_stats is not None
    assert not scalar_mapper.last_dp_stats.used_vectorized

    monkeypatch.setattr(dp_arrays, "try_full_dp", vector_dp)
    vector_mapper = TechnologyMapper(library, options)
    vector = vector_mapper.map(aig)
    return scalar, vector, vector_mapper.last_dp_stats


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mode", ["delay", "area"])
def test_vectorized_dp_matches_scalar_sky130(seed, mode, library, monkeypatch):
    aig = _case(seed)
    options = MappingOptions(mode=mode)
    scalar, vector, stats = _map_both(aig, library, options, monkeypatch)
    context = f"seed={seed} mode={mode}"
    assert _netlist_signature(vector) == _netlist_signature(scalar), context
    assert stats is not None and stats.used_vectorized, context
    # Timing must agree bit for bit too (same gates on same nets).
    ref = analyze_timing(scalar, po_load_ff=library.po_load_ff)
    got = analyze_timing(vector, po_load_ff=library.po_load_ff)
    assert got.max_delay_ps == ref.max_delay_ps, context
    assert vector.area_um2() == scalar.area_um2(), context


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", ["delay", "area"])
def test_vectorized_dp_matches_scalar_alt_library(
    seed, mode, alt_library, monkeypatch
):
    aig = _case(100 + seed)
    options = MappingOptions(mode=mode)
    scalar, vector, stats = _map_both(aig, alt_library, options, monkeypatch)
    context = f"seed={seed} mode={mode} lib=alt"
    assert _netlist_signature(vector) == _netlist_signature(scalar), context
    assert stats is not None and stats.used_vectorized, context


@pytest.mark.parametrize("cut_size", [2, 3, 4])
def test_vectorized_dp_matches_scalar_across_cut_sizes(
    cut_size, library, monkeypatch
):
    aig = _case(200 + cut_size)
    options = MappingOptions(cut_size=cut_size)
    scalar, vector, _stats = _map_both(aig, library, options, monkeypatch)
    assert _netlist_signature(vector) == _netlist_signature(scalar)


def test_dp_stats_account_for_every_and(library):
    aig = _case(400)
    mapper = TechnologyMapper(library)
    mapper.map(aig)
    stats = mapper.last_dp_stats
    assert stats.used_vectorized
    assert stats.total_ands == aig.num_ands
    assert stats.vector_nodes + stats.scalar_nodes == stats.total_ands
