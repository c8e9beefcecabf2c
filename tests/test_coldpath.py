"""Differential suite for the cold-path simulation kernel.

Wave-coalesced simulation (:func:`repro.aig.simulate.simulate_pos`) must
produce exactly the packed-integer reference values on both sides of the
:data:`~repro.aig.simulate.SCALAR_WAVE_WIDTH` boundary — deep narrow
graphs, wide shallow graphs, and mixed wide+chain shapes, at pattern
counts that exercise full and partial tail lanes.
"""

from __future__ import annotations

import random

import pytest

from repro.aig.graph import Aig
from repro.aig.simulate import (
    SCALAR_WAVE_WIDTH,
    literal_values,
    random_pi_patterns,
    simulate,
    simulate_pos,
)


# --------------------------------------------------------------------------- #
# Wave-coalesced simulation at the width boundary
# --------------------------------------------------------------------------- #
def _deep_chain(depth: int) -> Aig:
    """Depth-*depth* graph whose every level is one node wide."""
    aig = Aig()
    pis = [aig.add_pi() for _ in range(10)]
    cur = aig.add_and(pis[0], pis[1])
    for i in range(depth):
        cur = aig.add_and(cur, pis[(i + 2) % len(pis)])
    aig.add_po(cur)
    return aig


def _wide_level(aig: Aig, frontier, width: int):
    """Exactly *width* fresh nodes, all one level above *frontier*.

    Fanin pairs are enumerated as distinct (i, j, negation) combinations so
    structural hashing can never merge two of them and trivial
    simplification never fires — the level width is exact by construction.
    """
    n = len(frontier)
    combos = [
        (i, j, neg)
        for i in range(n)
        for j in range(i + 1, n)
        for neg in range(4)
    ]
    assert len(combos) >= width, "frontier too narrow for requested width"
    return [
        aig.add_and(frontier[i] ^ (neg & 1), frontier[j] ^ ((neg >> 1) & 1))
        for i, j, neg in combos[:width]
    ]


def _wide_shallow(width: int) -> Aig:
    """A few levels, each exactly *width* nodes wide."""
    aig = Aig()
    pis = [aig.add_pi() for _ in range(24)]
    frontier = _wide_level(aig, pis, width)
    frontier = _wide_level(aig, frontier, width)
    for lit in frontier[:6]:
        aig.add_po(lit)
    aig.add_po(frontier[-1])
    return aig


def _wide_then_chain(width: int, tail: int) -> Aig:
    """A wide level feeding a long single-node tail — the old cliff shape."""
    aig = Aig()
    pis = [aig.add_pi() for _ in range(24)]
    frontier = _wide_level(aig, pis, width)
    aig.add_po(frontier[0])
    cur = aig.add_and(frontier[1], frontier[2])
    for i in range(tail):
        cur = aig.add_and(cur, frontier[(i * 11 + 3) % len(frontier)])
    aig.add_po(cur)
    return aig


def _reference_po_values(aig, pi_values, num_patterns):
    values = simulate(aig, pi_values, num_patterns)
    return literal_values(aig, values, aig.po_literals(), num_patterns)


SHAPES = [
    ("deep_chain", lambda: _deep_chain(600)),
    ("wide_shallow", lambda: _wide_shallow(SCALAR_WAVE_WIDTH + 40)),
    ("wide_then_chain", lambda: _wide_then_chain(SCALAR_WAVE_WIDTH + 40, 300)),
    ("boundary_below", lambda: _wide_shallow(SCALAR_WAVE_WIDTH - 1)),
    ("boundary_exact", lambda: _wide_shallow(SCALAR_WAVE_WIDTH)),
]


@pytest.mark.parametrize("name,builder", SHAPES)
@pytest.mark.parametrize("num_patterns", [64, 256, 320, 512])
def test_simulate_pos_matches_packed_reference(name, builder, num_patterns):
    """simulate_pos == packed-int simulate + literal_values, bit for bit.

    64 patterns stay below the lane threshold (pure scalar), 256 is one
    exact lane word per 64 patterns, 320 and 512 exercise partial and
    multiple tail words through the hybrid path.
    """
    aig = builder()
    rng = random.Random(sum(map(ord, name)))
    pi_values = random_pi_patterns(aig.num_pis, num_patterns, rng)
    got = simulate_pos(aig, pi_values, num_patterns)
    expected = _reference_po_values(aig, pi_values, num_patterns)
    assert got == expected, f"shape={name} patterns={num_patterns}"


def test_simulation_plan_classifies_waves_by_width():
    """Narrow levels coalesce into scalar segments; wide levels vectorize."""
    import importlib

    sim = importlib.import_module("repro.aig.simulate")

    chain = _deep_chain(500)
    segments, vector_nodes = sim._simulation_plan(chain.arrays())
    assert vector_nodes == 0
    assert [kind for kind, *_ in segments] == ["int"]

    wide = _wide_shallow(SCALAR_WAVE_WIDTH + 40)
    segments, vector_nodes = sim._simulation_plan(wide.arrays())
    assert vector_nodes == wide.num_ands
    assert [kind for kind, *_ in segments] == ["vec"]

    mixed = _wide_then_chain(SCALAR_WAVE_WIDTH + 40, 300)
    segments, vector_nodes = sim._simulation_plan(mixed.arrays())
    kinds = [kind for kind, *_ in segments]
    assert "vec" in kinds and "int" in kinds
    assert 0 < vector_nodes < mixed.num_ands


def test_simulation_plan_is_cached_per_arrays():
    import importlib

    sim = importlib.import_module("repro.aig.simulate")
    aig = _wide_then_chain(SCALAR_WAVE_WIDTH + 10, 100)
    arrays = aig.arrays()
    first = sim._simulation_plan(arrays)
    assert sim._simulation_plan(arrays) is first
