"""Bit-parallel simulation of AIGs.

Simulation serves three purposes in this library:

* computing exact truth tables of small fanin cones (used by the rewriting
  and refactoring transforms and by the technology mapper's cut functions),
* random simulation signatures used to check functional equivalence
  probabilistically on large graphs,
* exhaustive equivalence checking of whole designs with few primary inputs.

Patterns are packed into Python integers, one bit per pattern, so a single
pass over the graph evaluates an arbitrary number of patterns in parallel.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.aig.graph import Aig
from repro.aig.literals import is_complemented, literal_var
from repro.aig.truth import table_mask, var_truth
from repro.errors import AigError
from repro.utils.rng import RngLike, ensure_rng

#: Default cap on the PI count accepted by :func:`po_truth_tables`.  The
#: table width is ``2**num_pis`` bits per node, so an unguarded call on a
#: wide (e.g. service-submitted) design would attempt a multi-gigabyte
#: blowup; 20 PIs (1 Mbit per node) matches the limit used by
#: :func:`repro.aig.equivalence.check_equivalence_exact`.
MAX_EXACT_TABLE_PIS = 20

#: Cap on the per-graph cone truth-table memo (see
#: :func:`cone_truth_table`).  Entries are small (two ints and a short
#: tuple); the cap only guards against pathological cut churn on very
#: large graphs.
MAX_CONE_CACHE_ENTRIES = 500_000


def simulate(aig: Aig, pi_values: Sequence[int], num_patterns: int) -> List[int]:
    """Simulate *aig* under packed input patterns.

    Parameters
    ----------
    pi_values:
        One packed integer per primary input; bit ``p`` is the value of that
        input under pattern ``p``.
    num_patterns:
        Number of valid bits in each packed word.

    Returns
    -------
    list of int
        One packed integer per variable (indexed by variable id).
    """
    if len(pi_values) != aig.num_pis:
        raise AigError(
            f"expected {aig.num_pis} input words, got {len(pi_values)}"
        )
    mask = (1 << num_patterns) - 1
    values = [0] * aig.size
    for var, word in zip(aig.pi_vars, pi_values):
        values[var] = word & mask
    arrays = aig.arrays()
    f0v, f1v = arrays.fanin_var_lists()
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    for var in arrays.and_vars.tolist():
        v0 = values[f0v[var]]
        if fanin0[var] & 1:
            v0 = ~v0 & mask
        v1 = values[f1v[var]]
        if fanin1[var] & 1:
            v1 = ~v1 & mask
        values[var] = v0 & v1
    return values


def literal_values(
    aig: Aig, node_values: Sequence[int], literals: Sequence[int], num_patterns: int
) -> List[int]:
    """Resolve packed values for a list of literals given per-variable values."""
    mask = (1 << num_patterns) - 1
    out = []
    for lit in literals:
        value = node_values[literal_var(lit)]
        if is_complemented(lit):
            value = ~value & mask
        out.append(value & mask)
    return out


def simulate_pos(aig: Aig, pi_values: Sequence[int], num_patterns: int) -> List[int]:
    """Packed primary-output values under the given input patterns."""
    values = simulate(aig, pi_values, num_patterns)
    return literal_values(aig, values, aig.po_literals(), num_patterns)


def exhaustive_pi_patterns(num_pis: int) -> List[int]:
    """Packed words enumerating all ``2**num_pis`` input assignments.

    Input ``i`` receives the truth table of variable ``i`` over ``num_pis``
    variables, so simulating with these patterns yields each node's global
    truth table.
    """
    return [var_truth(i, num_pis) for i in range(num_pis)]


def random_pi_patterns(num_pis: int, num_patterns: int, rng: RngLike = None) -> List[int]:
    """Packed random input patterns (for signatures / probabilistic checks)."""
    generator = ensure_rng(rng)
    return [generator.getrandbits(num_patterns) for _ in range(num_pis)]


def po_truth_tables(aig: Aig, max_pis: int = MAX_EXACT_TABLE_PIS) -> List[int]:
    """Exact truth tables of every primary output (requires few PIs).

    The table of output ``o`` is expressed over the graph's primary inputs in
    declaration order.  Exponential in the PI count: the call refuses designs
    with more than *max_pis* primary inputs (default
    :data:`MAX_EXACT_TABLE_PIS`, mirroring
    :func:`repro.aig.equivalence.check_equivalence_exact`) by raising
    :class:`AigError`, so a wide service-submitted design surfaces as a
    client error instead of a hang or an out-of-memory kill.
    """
    if aig.num_pis > max_pis:
        raise AigError(
            f"design has {aig.num_pis} primary inputs, exceeding max_pis="
            f"{max_pis} for exact truth tables (2**{aig.num_pis} bits per node)"
        )
    num_patterns = 1 << aig.num_pis
    patterns = exhaustive_pi_patterns(aig.num_pis)
    return simulate_pos(aig, patterns, num_patterns)


def node_signatures(aig: Aig, num_patterns: int = 64, rng: RngLike = None) -> List[int]:
    """Random-simulation signature of every variable (packed words)."""
    patterns = random_pi_patterns(aig.num_pis, num_patterns, rng)
    return simulate(aig, patterns, num_patterns)


def cone_truth_table(
    aig: Aig,
    root_literal: int,
    leaves: Sequence[int],
    max_vars: int = 16,
    memo: bool = True,
) -> int:
    """Exact truth table of *root_literal* expressed over *leaves*.

    *leaves* are variable ids forming a cut: every path from the root to a
    primary input must pass through a leaf.  The returned table has
    ``len(leaves)`` inputs, with leaf ``i`` as variable ``i``.

    Evaluation is an explicit-stack post-order walk, so cone depth is
    bounded by memory rather than the interpreter recursion limit (a
    ~3000-node chain cone previously raised ``RecursionError``).

    Results are memoised on the graph: node fanins are frozen at creation
    (the graph is append-only), so a ``(root literal, leaves)`` cone never
    changes and repeated cone evaluations across annealing iterations hit
    the cache.  ``memo=False`` neither reads nor fills it, for callers that
    keep the tables themselves.
    """
    num_leaves = len(leaves)
    if num_leaves > max_vars:
        raise AigError(f"cone has {num_leaves} leaves, exceeding max_vars={max_vars}")
    cache = aig._cone_table_cache
    cache_key = (root_literal, tuple(leaves))
    cached = cache.get(cache_key) if memo else None
    if cached is not None:
        return cached
    mask = table_mask(num_leaves)
    values: Dict[int, int] = {0: 0}
    for index, leaf in enumerate(leaves):
        values[leaf] = var_truth(index, num_leaves)

    root_var = literal_var(root_literal)
    if root_var not in values:
        fanin0 = aig._fanin0
        fanin1 = aig._fanin1
        is_pi = aig._is_pi
        size = aig.size
        stack = [root_var]
        while stack:
            var = stack[-1]
            if var in values:
                stack.pop()
                continue
            if not 0 <= var < size:
                raise AigError(f"variable {var} out of range (size {size})")
            if var == 0 or is_pi[var]:
                raise AigError(
                    f"variable {var} is not inside the cone delimited by "
                    f"leaves {list(leaves)}"
                )
            f0 = fanin0[var]
            f1 = fanin1[var]
            v0 = values.get(f0 >> 1)
            v1 = values.get(f1 >> 1)
            if v0 is None or v1 is None:
                if v1 is None:
                    stack.append(f1 >> 1)
                if v0 is None:
                    stack.append(f0 >> 1)
                continue
            if f0 & 1:
                v0 = ~v0 & mask
            if f1 & 1:
                v1 = ~v1 & mask
            values[var] = v0 & v1
            stack.pop()

    root_value = values[root_var]
    if is_complemented(root_literal):
        root_value = ~root_value & mask
    root_value &= mask
    if memo and len(cache) < MAX_CONE_CACHE_ENTRIES:
        cache[cache_key] = root_value
    return root_value
