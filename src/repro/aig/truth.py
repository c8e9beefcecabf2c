"""Truth-table utilities.

Truth tables over ``n`` variables are plain Python integers holding ``2**n``
bits; bit ``i`` is the function value under the input assignment whose binary
encoding is ``i`` (variable 0 is the least-significant input).  Python's
arbitrary-precision integers make this representation work for any ``n``,
although most callers (cut matching, rewriting) stay at ``n <= 6``.

The module provides the usual Boolean operations, cofactoring, support
detection, an irredundant sum-of-products (Minato-Morreale ISOP) cover, and
NPN canonicalisation used by the technology mapper's Boolean matcher.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from repro.errors import TruthTableError

MAX_EXACT_NPN_VARS = 5

#: Precomputed all-ones masks for the variable counts that occur in practice
#: (cut matching and rewriting stay at k <= 10; 16 is comfortable headroom).
_MASKS: Tuple[int, ...] = tuple((1 << (1 << n)) - 1 for n in range(17))


def table_mask(num_vars: int) -> int:
    """All-ones mask for a *num_vars*-input truth table."""
    if 0 <= num_vars < len(_MASKS):
        return _MASKS[num_vars]
    if num_vars < 0:
        raise TruthTableError(f"num_vars must be non-negative, got {num_vars}")
    return (1 << (1 << num_vars)) - 1


@lru_cache(maxsize=None)
def var_truth(index: int, num_vars: int) -> int:
    """Truth table of input variable *index* within a *num_vars*-input space."""
    if not 0 <= index < num_vars:
        raise TruthTableError(f"variable index {index} out of range for {num_vars} vars")
    bits = 1 << num_vars
    value = 0
    for minterm in range(bits):
        if (minterm >> index) & 1:
            value |= 1 << minterm
    return value


def truth_not(table: int, num_vars: int) -> int:
    """Complement of *table*."""
    return ~table & table_mask(num_vars)


def truth_and(a: int, b: int) -> int:
    """Conjunction of two truth tables over the same variable set."""
    return a & b


def truth_or(a: int, b: int) -> int:
    """Disjunction of two truth tables over the same variable set."""
    return a | b


def truth_xor(a: int, b: int) -> int:
    """Exclusive-or of two truth tables over the same variable set."""
    return a ^ b


def is_const0(table: int, num_vars: int) -> bool:
    """True when *table* is the constant-false function."""
    return (table & table_mask(num_vars)) == 0


def is_const1(table: int, num_vars: int) -> bool:
    """True when *table* is the constant-true function."""
    return (table & table_mask(num_vars)) == table_mask(num_vars)


def count_ones(table: int, num_vars: int) -> int:
    """Number of minterms of *table*."""
    return bin(table & table_mask(num_vars)).count("1")


def cofactor(table: int, num_vars: int, var: int, value: int) -> int:
    """Shannon cofactor of *table* with input *var* fixed to *value* (0/1).

    The result is still expressed over the full *num_vars*-variable space
    (the cofactored variable simply becomes a don't-care), which keeps the
    recursive ISOP code simple.
    """
    if not 0 <= var < num_vars:
        raise TruthTableError(f"variable {var} out of range for {num_vars} vars")
    mask = table_mask(num_vars)
    v = var_truth(var, num_vars)
    if value:
        positive = table & v
        return (positive | (positive >> (1 << var))) & mask
    negative = table & ~v & mask
    return (negative | (negative << (1 << var))) & mask


@lru_cache(maxsize=None)
def _var_false_mask(var: int, num_vars: int) -> int:
    """Mask of the minterms where input *var* is 0."""
    return ~var_truth(var, num_vars) & table_mask(num_vars)


def depends_on(table: int, num_vars: int, var: int) -> bool:
    """True when the function actually depends on input *var*."""
    if not 0 <= var < num_vars:
        raise TruthTableError(f"variable {var} out of range for {num_vars} vars")
    # The function depends on var iff some minterm with var=0 disagrees with
    # its var=1 twin; the shift aligns each twin pair onto the var=0 slot.
    masked = table & table_mask(num_vars)
    return bool(((masked >> (1 << var)) ^ masked) & _var_false_mask(var, num_vars))


def support(table: int, num_vars: int) -> List[int]:
    """Indices of the variables the function depends on."""
    return [v for v in range(num_vars) if depends_on(table, num_vars, v)]


def expand_truth(table: int, num_vars: int, positions: Sequence[int], new_num_vars: int) -> int:
    """Re-express *table* over a larger variable space.

    ``positions[i]`` gives the index, in the new space, of old variable ``i``.
    """
    if len(positions) != num_vars:
        raise TruthTableError("positions must list one new index per old variable")
    result = 0
    for minterm in range(1 << new_num_vars):
        old_minterm = 0
        for old_var, new_var in enumerate(positions):
            if (minterm >> new_var) & 1:
                old_minterm |= 1 << old_var
        if (table >> old_minterm) & 1:
            result |= 1 << minterm
    return result


def truth_from_bits(bits: Sequence[int]) -> int:
    """Build a truth table integer from an explicit list of output bits."""
    length = len(bits)
    if length == 0 or length & (length - 1):
        raise TruthTableError(f"bit list length must be a power of two, got {length}")
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise TruthTableError(f"bit values must be 0 or 1, got {bit!r}")
        value |= bit << i
    return value


def truth_to_bits(table: int, num_vars: int) -> List[int]:
    """Explicit list of output bits of *table* (length ``2**num_vars``)."""
    return [(table >> i) & 1 for i in range(1 << num_vars)]


def truth_to_hex(table: int, num_vars: int) -> str:
    """Hex string of *table*, zero padded to the full table width."""
    digits = max(1, (1 << num_vars) // 4)
    return format(table & table_mask(num_vars), f"0{digits}x")


# --------------------------------------------------------------------------- #
# Irredundant sum of products (Minato-Morreale ISOP)
# --------------------------------------------------------------------------- #
Cube = Tuple[int, int]
"""A cube is a pair ``(positive_mask, negative_mask)`` over the input vars."""


def isop(on_set: int, dc_set: int, num_vars: int) -> List[Cube]:
    """Compute an irredundant SOP cover of *on_set* allowed to use *dc_set*.

    Returns a list of cubes; each cube is ``(pos_mask, neg_mask)`` where bit
    ``v`` of ``pos_mask`` means the cube contains literal ``v`` and bit ``v``
    of ``neg_mask`` means it contains ``!v``.

    The computation is memoised: the rewriting and refactoring transforms
    re-derive covers for the same (small) functions millions of times per
    annealing run, and the recursion itself revisits identical
    (lower, upper) subproblems across different top-level tables.  Covers
    are pure values (callers only read them), so sharing is sound; the
    public entry point still returns a fresh list.
    """
    return list(_isop_cached(on_set, dc_set, num_vars))


@lru_cache(maxsize=200_000)
def _isop_cached(on_set: int, dc_set: int, num_vars: int) -> Tuple[Cube, ...]:
    mask = table_mask(num_vars)
    on_set &= mask
    dc_set &= mask
    if on_set & ~(on_set | dc_set) & mask:
        raise TruthTableError("on-set must be contained in on-set | dc-set")
    cover, _ = _isop_recursive(on_set, (on_set | dc_set) & mask, num_vars, num_vars)
    return tuple(cover)


@lru_cache(maxsize=200_000)
def _isop_recursive(
    lower: int, upper: int, num_vars: int, var_count: int
) -> Tuple[List[Cube], int]:
    """Recursive Minato-Morreale: cover everything in *lower*, nothing outside *upper*."""
    mask = table_mask(num_vars)
    if lower == 0:
        return [], 0
    if upper == mask and lower != 0:
        return [(0, 0)], mask
    # Find the highest variable in the support of either bound.
    var = var_count - 1
    while var >= 0:
        if depends_on(lower, num_vars, var) or depends_on(upper, num_vars, var):
            break
        var -= 1
    if var < 0:
        # Constant non-zero lower bound with non-full upper bound cannot happen.
        return [(0, 0)], mask
    lower0 = cofactor(lower, num_vars, var, 0)
    lower1 = cofactor(lower, num_vars, var, 1)
    upper0 = cofactor(upper, num_vars, var, 0)
    upper1 = cofactor(upper, num_vars, var, 1)

    cover0, func0 = _isop_recursive(lower0 & ~upper1 & mask, upper0, num_vars, var)
    cover1, func1 = _isop_recursive(lower1 & ~upper0 & mask, upper1, num_vars, var)
    remaining = (lower0 & ~func0 & mask) | (lower1 & ~func1 & mask)
    cover2, func2 = _isop_recursive(remaining, upper0 & upper1, num_vars, var)

    v_true = var_truth(var, num_vars)
    v_false = truth_not(v_true, num_vars)
    cubes: List[Cube] = []
    cubes.extend((pos, neg | (1 << var)) for pos, neg in cover0)
    cubes.extend((pos | (1 << var), neg) for pos, neg in cover1)
    cubes.extend(cover2)
    function = (func0 & v_false) | (func1 & v_true) | func2
    return cubes, function & mask


def cube_to_truth(cube: Cube, num_vars: int) -> int:
    """Truth table of a single cube."""
    pos, neg = cube
    table = table_mask(num_vars)
    for var in range(num_vars):
        if (pos >> var) & 1:
            table &= var_truth(var, num_vars)
        if (neg >> var) & 1:
            table &= truth_not(var_truth(var, num_vars), num_vars)
    return table


def sop_to_truth(cubes: Sequence[Cube], num_vars: int) -> int:
    """Truth table of a sum of cubes."""
    table = 0
    for cube in cubes:
        table |= cube_to_truth(cube, num_vars)
    return table & table_mask(num_vars)


# --------------------------------------------------------------------------- #
# NPN canonicalisation
# --------------------------------------------------------------------------- #
def apply_permutation(table: int, num_vars: int, perm: Sequence[int]) -> int:
    """Permute the inputs of *table*: new variable ``perm[i]`` = old variable ``i``."""
    return expand_truth(table, num_vars, list(perm), num_vars)


def apply_input_negation(table: int, num_vars: int, negation_mask: int) -> int:
    """Complement the inputs selected by *negation_mask*."""
    result = table
    for var in range(num_vars):
        if (negation_mask >> var) & 1:
            pos = cofactor(result, num_vars, var, 1)
            neg = cofactor(result, num_vars, var, 0)
            v_true = var_truth(var, num_vars)
            v_false = truth_not(v_true, num_vars)
            # Swapping the cofactors implements the input complement.
            result = (neg & v_true) | (pos & v_false)
    return result & table_mask(num_vars)


NpnTransform = Tuple[Tuple[int, ...], int, int]
"""(permutation, input_negation_mask, output_negation_flag)."""


@lru_cache(maxsize=200_000)
def npn_canonical(table: int, num_vars: int) -> Tuple[int, NpnTransform]:
    """Exact NPN-canonical representative of *table*.

    Enumerates all input permutations, input polarities, and the output
    polarity, returning the numerically smallest equivalent table and the
    transform that produced it.  Exhaustive enumeration is used, so the
    variable count is limited to :data:`MAX_EXACT_NPN_VARS`.
    """
    if num_vars > MAX_EXACT_NPN_VARS:
        raise TruthTableError(
            f"exact NPN canonicalisation supports at most {MAX_EXACT_NPN_VARS} "
            f"variables, got {num_vars}"
        )
    mask = table_mask(num_vars)
    table &= mask
    best = None
    best_transform: NpnTransform = (tuple(range(num_vars)), 0, 0)
    for perm in permutations(range(num_vars)):
        permuted = apply_permutation(table, num_vars, perm)
        for neg_mask in range(1 << num_vars):
            candidate = apply_input_negation(permuted, num_vars, neg_mask)
            for out_neg in (0, 1):
                final = truth_not(candidate, num_vars) if out_neg else candidate
                if best is None or final < best:
                    best = final
                    best_transform = (tuple(perm), neg_mask, out_neg)
    assert best is not None
    return best, best_transform


def npn_class(table: int, num_vars: int) -> int:
    """Just the canonical representative (ignore the transform)."""
    canonical, _ = npn_canonical(table, num_vars)
    return canonical


def p_canonical(table: int, num_vars: int) -> int:
    """P-canonical form: minimise over input permutations only."""
    mask = table_mask(num_vars)
    table &= mask
    best = table
    for perm in permutations(range(num_vars)):
        candidate = apply_permutation(table, num_vars, perm)
        if candidate < best:
            best = candidate
    return best
