"""Differential suite for the output simulation kernel.

:func:`repro.aig.simulate.simulate_pos` must produce exactly the values of
a plain per-variable reference evaluation on deep narrow graphs, wide
shallow graphs (level widths on both sides of 256), and mixed wide+chain
shapes, at pattern counts that are and are not multiples of 64.
"""

from __future__ import annotations

import random

import pytest

from repro.aig.graph import Aig
from repro.aig.simulate import random_pi_patterns, simulate_pos

WIDE = 256


# --------------------------------------------------------------------------- #
# Graph shapes
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
    """Packed PO values from a variable-order walk of the public accessors.

    Independent of the array snapshot and its level order: every AND is
    evaluated in creation order, which is topological because fanins exist
    before the node that reads them.
    """
    mask = (1 << num_patterns) - 1
    values = [0] * aig.size
    for var, word in zip(aig.pi_vars, pi_values):
        values[var] = word & mask

    def literal_value(lit):
        value = values[lit >> 1]
        return ~value & mask if lit & 1 else value

    for var in range(aig.size):
        if aig.is_and(var):
            f0, f1 = aig.fanins(var)
            values[var] = literal_value(f0) & literal_value(f1)
    return [literal_value(lit) for lit in aig.po_literals()]


SHAPES = [
    ("deep_chain", lambda: _deep_chain(600)),
    ("wide_shallow", lambda: _wide_shallow(WIDE + 40)),
    ("wide_then_chain", lambda: _wide_then_chain(WIDE + 40, 300)),
    ("boundary_below", lambda: _wide_shallow(WIDE - 1)),
    ("boundary_exact", lambda: _wide_shallow(WIDE)),
]


@pytest.mark.parametrize("name,builder", SHAPES)
@pytest.mark.parametrize("num_patterns", [64, 256, 320, 512])
def test_simulate_pos_matches_packed_reference(name, builder, num_patterns):
    """simulate_pos == the reference evaluation, bit for bit."""
    aig = builder()
    rng = random.Random(sum(map(ord, name)))
    pi_values = random_pi_patterns(aig.num_pis, num_patterns, rng)
    got = simulate_pos(aig, pi_values, num_patterns)
    expected = _reference_po_values(aig, pi_values, num_patterns)
    assert got == expected, f"shape={name} patterns={num_patterns}"
