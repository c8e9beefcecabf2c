"""Resynthesis of truth tables into AIG structures.

Both the rewriting and refactoring transforms collapse a cone of logic into a
truth table and then rebuild it.  This module holds the shared builder: an
irredundant sum-of-products (ISOP) cover of the function or of its
complement — whichever is cheaper — realised as balanced AND/OR trees.  The
resulting structure is usually competitive with the original cone for the
small cut sizes (up to ~10 leaves) used by the transforms.

The transforms price far more cones than they rebuild, and a cover's cost
needs only its counts: :func:`resynth_cost` runs the same Minato-Morreale
recursion as :func:`~repro.aig.truth.isop` but returns (literals, cubes,
zero-literal cubes, covered function) instead of the cube list, while
:func:`synthesize_truth` keeps the list ISOP for the cones it builds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.aig.graph import Aig
from repro.aig.literals import CONST0, CONST1, negate
from repro.aig.truth import (
    Cube,
    is_const0,
    is_const1,
    isop,
    table_mask,
    truth_not,
    var_truth,
)
from repro.errors import TransformError

#: (literals, cubes, zero-literal cubes, covered function) of a cover.
CoverCounts = Tuple[int, int, int, int]


def sop_cost(cubes: Sequence[Cube]) -> int:
    """Approximate AND-node cost of realising a cube list as an AIG."""
    if not cubes:
        return 0
    cost = len(cubes) - 1
    for pos, neg in cubes:
        literals = pos.bit_count() + neg.bit_count()
        if literals > 1:
            cost += literals - 1
    return cost


@lru_cache(maxsize=200_000)
def resynth_cost(table: int, num_vars: int) -> int:
    """Cheaper of the positive/complement ISOP realisation costs of *table*.

    This is the cost the rewriting and refactoring transforms compare against
    a cone's node count; memoised because the same small cut functions recur
    across nodes, designs, and annealing iterations.  It equals
    ``min(sop_cost(isop(t)), sop_cost(isop(~t)))`` without building either
    cube list: :func:`sop_cost` is the literal count plus the zero-literal
    cubes minus one, or 0 for an empty cover.
    """
    mask = table_mask(num_vars)
    table &= mask
    return min(_cover_cost(table, num_vars), _cover_cost(~table & mask, num_vars))


def _cover_cost(on_set: int, num_vars: int) -> int:
    literals, cubes, bare, _ = _isop_counts(on_set, on_set, num_vars, num_vars)
    return literals + bare - 1 if cubes else 0


@lru_cache(maxsize=None)
def _split_masks(num_vars: int) -> Tuple[Tuple[int, int, int], ...]:
    """Per input ``v``: (``2**v``, minterms with ``v`` = 0, with ``v`` = 1)."""
    return tuple(
        (1 << var, truth_not(var_truth(var, num_vars), num_vars), var_truth(var, num_vars))
        for var in range(num_vars)
    )


@lru_cache(maxsize=200_000)
def _isop_counts(lower: int, upper: int, num_vars: int, var_count: int) -> CoverCounts:
    """Counts of the cover :func:`repro.aig.truth.isop` builds for [*lower*, *upper*].

    Mirrors ``_isop_recursive`` step for step — same splitting variable,
    same three subproblems — so the counts are exactly those of its cube
    list.  Covers of both cofactors gain the splitting literal on every
    cube; the shared cover's cubes pass through unchanged.
    """
    if lower == 0:
        return 0, 0, 0, 0
    mask = table_mask(num_vars)
    if upper == mask:
        return 0, 1, 1, mask
    halves = _split_masks(num_vars)
    var = var_count - 1
    while var >= 0:
        shift, low, _ = halves[var]
        if ((lower >> shift) ^ lower) & low or ((upper >> shift) ^ upper) & low:
            break
        var -= 1
    if var < 0:
        return 0, 1, 1, mask
    shift, low, high = halves[var]
    lower0 = lower & low
    lower0 |= lower0 << shift
    lower1 = lower & high
    lower1 |= lower1 >> shift
    upper0 = upper & low
    upper0 |= upper0 << shift
    upper1 = upper & high
    upper1 |= upper1 >> shift
    lits0, cubes0, _, func0 = _isop_counts(lower0 & ~upper1, upper0, num_vars, var)
    lits1, cubes1, _, func1 = _isop_counts(lower1 & ~upper0, upper1, num_vars, var)
    remaining = (lower0 & ~func0) | (lower1 & ~func1)
    lits2, cubes2, bare2, func2 = _isop_counts(remaining, upper0 & upper1, num_vars, var)
    return (
        lits0 + cubes0 + lits1 + cubes1 + lits2,
        cubes0 + cubes1 + cubes2,
        bare2,
        (func0 & low) | (func1 & high) | func2,
    )


def synthesize_truth(
    target: Aig,
    table: int,
    num_vars: int,
    leaf_literals: Sequence[int],
) -> int:
    """Build an AIG implementation of *table* over *leaf_literals* in *target*.

    Returns the literal of the synthesised root.  The function and its
    complement are both covered with ISOP and the cheaper realisation wins
    (the complement is frequently much smaller for AND-dominated functions).
    """
    if len(leaf_literals) != num_vars:
        raise TransformError(
            f"expected {num_vars} leaf literals, got {len(leaf_literals)}"
        )
    mask = table_mask(num_vars)
    table &= mask
    if is_const0(table, num_vars):
        return CONST0
    if is_const1(table, num_vars):
        return CONST1

    positive_cover = isop(table, 0, num_vars)
    negative_cover = isop((~table) & mask, 0, num_vars)
    if sop_cost(negative_cover) < sop_cost(positive_cover):
        literal = _build_sop(target, negative_cover, leaf_literals)
        return negate(literal)
    return _build_sop(target, positive_cover, leaf_literals)


def _build_sop(target: Aig, cubes: Sequence[Cube], leaves: Sequence[int]) -> int:
    """Realise a cube cover as balanced AND trees feeding a balanced OR tree."""
    cube_literals: List[int] = []
    for pos, neg in cubes:
        terms: List[int] = []
        for var, leaf in enumerate(leaves):
            if (pos >> var) & 1:
                terms.append(leaf)
            if (neg >> var) & 1:
                terms.append(negate(leaf))
        cube_literals.append(target.add_and_multi(terms))
    return target.add_or_multi(cube_literals)
