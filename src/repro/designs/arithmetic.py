"""Arithmetic circuit generators (adders, multipliers, comparators).

These generators produce the word-level blocks used to assemble the
benchmark designs of :mod:`repro.designs.generators`.  Each builder works on
an existing :class:`~repro.aig.graph.Aig` and operates on *buses*: plain
Python lists of literals, least-significant bit first.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.aig.graph import Aig
from repro.aig.literals import CONST0
from repro.errors import DesignError


def full_adder(aig: Aig, a: int, b: int, cin: int) -> Tuple[int, int]:
    """Return ``(sum, carry)`` of three literals."""
    ab = aig.add_xor(a, b)
    total = aig.add_xor(ab, cin)
    carry = aig.add_or(aig.add_and(a, b), aig.add_and(ab, cin))
    return total, carry


def ripple_adder(
    aig: Aig, a: Sequence[int], b: Sequence[int], cin: int = CONST0
) -> Tuple[List[int], int]:
    """Ripple-carry addition of two equal-width buses; returns (sum bus, carry out)."""
    if len(a) != len(b):
        raise DesignError(f"adder operand widths differ: {len(a)} vs {len(b)}")
    carry = cin
    total: List[int] = []
    for bit_a, bit_b in zip(a, b):
        s, carry = full_adder(aig, bit_a, bit_b, carry)
        total.append(s)
    return total, carry


def ripple_subtractor(
    aig: Aig, a: Sequence[int], b: Sequence[int]
) -> Tuple[List[int], int]:
    """Two's-complement subtraction ``a - b``; returns (difference, borrow-free flag)."""
    from repro.aig.literals import negate

    inverted_b = [negate(bit) for bit in b]
    diff, carry = ripple_adder(aig, list(a), inverted_b, cin=1)
    return diff, carry


def array_multiplier(aig: Aig, a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Unsigned array multiplier; returns the ``len(a) + len(b)``-bit product."""
    if not a or not b:
        raise DesignError("multiplier operands must be non-empty")
    width = len(a) + len(b)
    rows: List[List[int]] = []
    for j, bit_b in enumerate(b):
        row = [CONST0] * j + [aig.add_and(bit_a, bit_b) for bit_a in a]
        row += [CONST0] * (width - len(row))
        rows.append(row)
    accumulator = rows[0]
    for row in rows[1:]:
        accumulator, carry = ripple_adder(aig, accumulator, row)
        # The carry out of the full-width addition is always zero for the
        # sized accumulator; keep the bus width fixed.
    return accumulator[:width]


def less_than(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    """Unsigned comparison ``a < b`` of two equal-width buses."""
    if len(a) != len(b):
        raise DesignError(f"comparator operand widths differ: {len(a)} vs {len(b)}")
    from repro.aig.literals import negate

    result = CONST0
    for bit_a, bit_b in zip(a, b):  # LSB to MSB; later bits override earlier ones
        bit_lt = aig.add_and(negate(bit_a), bit_b)
        bit_eq = aig.add_xnor(bit_a, bit_b)
        result = aig.add_or(bit_lt, aig.add_and(bit_eq, result))
    return result


def equality(aig: Aig, a: Sequence[int], b: Sequence[int]) -> int:
    """Bitwise equality of two equal-width buses."""
    if len(a) != len(b):
        raise DesignError(f"comparator operand widths differ: {len(a)} vs {len(b)}")
    bits = [aig.add_xnor(bit_a, bit_b) for bit_a, bit_b in zip(a, b)]
    return aig.add_and_multi(bits)
