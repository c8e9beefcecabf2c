"""The And-Inverter Graph data structure.

The :class:`Aig` class stores a combinational circuit as a network of
two-input AND nodes with optional inversion on every edge.  It is the common
substrate for every other component in this library: logic transformations
rewrite it, the technology mapper covers it with standard cells, the feature
extractor summarises it, and the optimization flows perturb it.

Nodes are identified by integer *variables* allocated in creation order;
edges are encoded as AIGER-style *literals* (see :mod:`repro.aig.literals`).
Because a new AND node may only reference variables that already exist, the
variable order is always a valid topological order, which keeps traversal
code simple and fast.

The graph is *structurally hashed*: creating an AND with the same (ordered)
fanin pair twice returns the existing node, and the trivial simplifications
``x & 0 = 0``, ``x & 1 = x``, ``x & x = x``, ``x & !x = 0`` are applied on
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aig.journal import fingerprint_from_hashes, node_hashes_cached
from repro.aig.literals import (
    CONST0,
    CONST1,
    is_complemented,
    literal_var,
    make_literal,
    negate,
    negate_if,
)
from repro.errors import AigError, LiteralError


@dataclass(frozen=True)
class AigStats:
    """Summary statistics of an AIG (the proxy metrics of the baseline flow)."""

    name: str
    num_pis: int
    num_pos: int
    num_ands: int
    depth: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: pi={self.num_pis} po={self.num_pos} "
            f"and={self.num_ands} depth={self.depth}"
        )


class Aig:
    """A structurally hashed combinational And-Inverter Graph."""

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # Variable 0 is the constant-FALSE node.
        self._fanin0: List[int] = [CONST0]
        self._fanin1: List[int] = [CONST0]
        self._is_pi: List[bool] = [False]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []
        self._po_names: List[str] = []
        self._strash: Dict[Tuple[int, int], int] = {}
        # Cache for journal.node_hashes_cached: valid while size is
        # unchanged (node arrays are append-only, PO edits don't matter).
        self._node_hash_cache: Optional[List[bytes]] = None
        # Structure-of-arrays snapshot (repro.aig.arrays.AigArrays): valid
        # while size is unchanged, for the same append-only reason.  PO
        # bindings CAN change in place, so PO-derived caches additionally
        # key on _po_version.
        self._arrays = None
        self._po_version = 0
        self._fanout_counts_cache: Optional[Tuple[Tuple[int, int], List[int]]] = None
        # Memo for cone truth tables keyed by (root literal, leaf tuple).
        # Sound because an AND node's fanins are frozen at creation, so the
        # structure of any existing cone never changes; PO rebinding is
        # irrelevant to cones.  Bounded by MAX_CONE_CACHE_ENTRIES.
        self._cone_table_cache: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its (non-complemented) literal."""
        var = self._new_var()
        self._is_pi[var] = True
        self._pis.append(var)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return make_literal(var)

    def add_po(self, lit: int, name: Optional[str] = None) -> int:
        """Register literal *lit* as a primary output; return the PO index."""
        self._check_literal(lit)
        self._pos.append(lit)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        self._po_version += 1
        return len(self._pos) - 1

    def add_and(self, a: int, b: int) -> int:
        """Return a literal for ``a & b``, reusing nodes where possible."""
        self._check_literal(a)
        self._check_literal(b)
        # Trivial simplifications.
        if a == CONST0 or b == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        if a == b:
            return a
        if a == negate(b):
            return CONST0
        # Canonical fanin order for structural hashing.
        if a > b:
            a, b = b, a
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return make_literal(existing)
        var = self._new_var()
        self._fanin0[var] = a
        self._fanin1[var] = b
        self._strash[key] = var
        return make_literal(var)

    # Convenience gates built from ANDs ----------------------------------
    def add_nand(self, a: int, b: int) -> int:
        """Return a literal for ``!(a & b)``."""
        return negate(self.add_and(a, b))

    def add_or(self, a: int, b: int) -> int:
        """Return a literal for ``a | b``."""
        return negate(self.add_and(negate(a), negate(b)))

    def add_nor(self, a: int, b: int) -> int:
        """Return a literal for ``!(a | b)``."""
        return self.add_and(negate(a), negate(b))

    def add_xor(self, a: int, b: int) -> int:
        """Return a literal for ``a ^ b`` (three AND nodes)."""
        # !(a & b) & (a | b), where the OR is itself a complemented AND.
        return self.add_and(self.add_nand(a, b), self.add_nand(negate(a), negate(b)))

    def add_xnor(self, a: int, b: int) -> int:
        """Return a literal for ``!(a ^ b)``."""
        return negate(self.add_xor(a, b))

    def add_mux(self, sel: int, t: int, e: int) -> int:
        """Return a literal for ``sel ? t : e``."""
        return negate(
            self.add_and(self.add_nand(sel, t), self.add_nand(negate(sel), e))
        )

    def add_maj(self, a: int, b: int, c: int) -> int:
        """Return a literal for the majority of three literals."""
        ab = self.add_and(a, b)
        bc = self.add_and(b, c)
        ac = self.add_and(a, c)
        return self.add_or(self.add_or(ab, bc), ac)

    def add_and_multi(self, literals: Sequence[int]) -> int:
        """AND an arbitrary list of literals together (balanced tree)."""
        lits = list(literals)
        if not lits:
            return CONST1
        while len(lits) > 1:
            nxt: List[int] = []
            for i in range(0, len(lits) - 1, 2):
                nxt.append(self.add_and(lits[i], lits[i + 1]))
            if len(lits) % 2 == 1:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    def add_or_multi(self, literals: Sequence[int]) -> int:
        """OR an arbitrary list of literals together (balanced tree)."""
        return negate(self.add_and_multi([negate(l) for l in literals]))

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def num_ands(self) -> int:
        """Number of AND nodes (the paper's proxy for area)."""
        return self.size - 1 - self.num_pis

    @property
    def size(self) -> int:
        """Total number of variables, including the constant node."""
        return len(self._fanin0)

    @property
    def pi_vars(self) -> List[int]:
        """Variable ids of the primary inputs, in declaration order."""
        return list(self._pis)

    @property
    def pi_names(self) -> List[str]:
        """Names of the primary inputs, in declaration order."""
        return list(self._pi_names)

    @property
    def po_names(self) -> List[str]:
        """Names of the primary outputs, in declaration order."""
        return list(self._po_names)

    def pi_literals(self) -> List[int]:
        """Non-complemented literals of the primary inputs."""
        return [make_literal(v) for v in self._pis]

    def po_literals(self) -> List[int]:
        """Driver literals of the primary outputs, in declaration order."""
        return list(self._pos)

    def set_po_literal(self, index: int, lit: int) -> None:
        """Redirect primary output *index* to drive literal *lit*."""
        self._check_literal(lit)
        if not 0 <= index < len(self._pos):
            raise AigError(f"PO index {index} out of range")
        self._pos[index] = lit
        self._po_version += 1

    def is_pi(self, var: int) -> bool:
        """True when variable *var* is a primary input."""
        self._check_var(var)
        return self._is_pi[var]

    def is_const(self, var: int) -> bool:
        """True for the constant variable (index 0)."""
        self._check_var(var)
        return var == 0

    def is_and(self, var: int) -> bool:
        """True when variable *var* is an AND node."""
        self._check_var(var)
        return var != 0 and not self._is_pi[var]

    def fanins(self, var: int) -> Tuple[int, int]:
        """The two fanin literals of AND node *var*."""
        if not self.is_and(var):
            raise AigError(f"variable {var} is not an AND node")
        return self._fanin0[var], self._fanin1[var]

    def and_vars(self) -> Iterator[int]:
        """Iterate AND-node variables in topological (creation) order."""
        for var in range(1, self.size):
            if not self._is_pi[var]:
                yield var

    def nodes(self) -> Iterator[int]:
        """Iterate all variables (constant, PIs, ANDs) in topological order."""
        return iter(range(self.size))

    # ------------------------------------------------------------------ #
    # Derived structural data (array-core backed)
    # ------------------------------------------------------------------ #
    def arrays(self):
        """The structure-of-arrays snapshot of this graph (cached by size).

        Node arrays are append-only, so a snapshot is valid until the next
        variable is allocated; the snapshot is rebuilt lazily when ``size``
        has moved past it.  Derived data inside the snapshot (levels, level
        groups, fanout CSR) is computed on demand and amortised across every
        structural query on the same graph generation.
        """
        arrays = self._arrays
        if arrays is None or arrays.size != self.size:
            from repro.aig.arrays import AigArrays

            arrays = AigArrays(self._fanin0, self._fanin1, self._is_pi, self._pis)
            self._arrays = arrays
        return arrays

    def levels(self) -> List[int]:
        """Per-variable logic level: PIs/constant at 0, AND = 1 + max fanin."""
        return list(self.arrays().levels_list())

    def depth(self) -> int:
        """Maximum logic level over all primary outputs (the delay proxy)."""
        if not self._pos:
            return 0
        level = self.arrays().levels_list()
        return max(level[literal_var(lit)] for lit in self._pos)

    def fanout_counts(self) -> List[int]:
        """Per-variable fanout count (references from AND fanins and POs)."""
        cache = self._fanout_counts_cache
        key = (self.size, self._po_version)
        if cache is not None and cache[0] == key:
            return list(cache[1])
        counts = self.arrays().fanin_ref_counts().tolist()
        for lit in self._pos:
            counts[literal_var(lit)] += 1
        self._fanout_counts_cache = (key, counts)
        return list(counts)

    def fanouts(self) -> List[List[int]]:
        """Per-variable list of AND variables that consume it as a fanin."""
        offsets, consumers = self.arrays().fanout_csr_lists()
        return [consumers[offsets[var] : offsets[var + 1]] for var in range(self.size)]

    def fingerprint(self) -> str:
        """Order-insensitive structural hash of the logic feeding the POs.

        Two AIGs receive the same fingerprint exactly when they have the same
        number of primary inputs and, for every primary output position, the
        same AND/inverter structure over the same PI positions.  The hash is
        insensitive to node creation order, to the relative order of the two
        fanins of an AND, to node names, and to dead (PO-unreachable) logic.

        That makes it the right key for *structural similarity*, but NOT a
        sound key for memoising mapper/STA results: cut enumeration
        truncates and breaks ties by variable id, so two graphs with equal
        fingerprints but different node numbering can map to (slightly)
        different delay and area.  Result caches must key on
        :meth:`exact_key` instead.
        """
        return fingerprint_from_hashes(self, node_hashes_cached(self))

    def exact_key(self) -> str:
        """Representation-exact digest of the graph (ids, fanins, PIs, POs).

        Two AIGs receive the same exact key only when their variable arrays
        are identical — same nodes in the same creation order with the same
        fanin literals and the same PO bindings.  Evaluation on such graphs
        is fully deterministic, which makes this (unlike
        :meth:`fingerprint`) a sound memoisation key for PPA results.
        Names are excluded: they never influence mapping or timing.
        """
        import array
        import hashlib

        payload = array.array("q")
        payload.append(self.num_pis)
        payload.extend(self._pis)
        payload.extend(self._fanin0)
        payload.extend(self._fanin1)
        payload.append(-1)
        payload.extend(self._pos)
        return hashlib.blake2b(payload.tobytes(), digest_size=16).hexdigest()

    def stats(self) -> AigStats:
        """Return the proxy-metric summary for this graph."""
        return AigStats(
            name=self.name,
            num_pis=self.num_pis,
            num_pos=self.num_pos,
            num_ands=self.num_ands,
            depth=self.depth(),
        )

    # ------------------------------------------------------------------ #
    # Copying and compaction
    # ------------------------------------------------------------------ #
    def clone(self, name: Optional[str] = None) -> "Aig":
        """Return a deep copy of this graph."""
        other = Aig(name if name is not None else self.name)
        other._fanin0 = list(self._fanin0)
        other._fanin1 = list(self._fanin1)
        other._is_pi = list(self._is_pi)
        other._pis = list(self._pis)
        other._pi_names = list(self._pi_names)
        other._pos = list(self._pos)
        other._po_names = list(self._po_names)
        other._strash = dict(self._strash)
        # The hash cache transfers by reference: it describes the same
        # arrays, and any growth on either side replaces (never mutates) it.
        other._node_hash_cache = self._node_hash_cache
        # The array snapshot describes the same (append-only) node arrays,
        # so it transfers by reference too; growth on either side replaces
        # it rather than mutating it.  The fanout-count cache is keyed on
        # this graph's PO version counter, which restarts at the clone's
        # current binding, so it transfers with a reset key.
        other._arrays = self._arrays
        # Existing cone-table entries stay valid in the clone (the cones
        # they describe are frozen), but vars appended after this point may
        # get different fanins in each graph, so the memo is copied rather
        # than shared by reference.
        other._cone_table_cache = dict(self._cone_table_cache)
        if self._fanout_counts_cache is not None and self._fanout_counts_cache[0] == (
            self.size,
            self._po_version,
        ):
            other._fanout_counts_cache = ((other.size, 0), list(self._fanout_counts_cache[1]))
        return other

    def cleanup(self, name: Optional[str] = None) -> "Aig":
        """Return a compacted copy containing only logic reachable from POs.

        All primary inputs are preserved (in order) even if unused, so the
        interface of the design never changes during optimization.
        """
        reachable = self._reachable_vars()
        new = Aig(name if name is not None else self.name)
        old_to_new: Dict[int, int] = {0: CONST0}
        for var, pi_name in zip(self._pis, self._pi_names):
            old_to_new[var] = new.add_pi(pi_name)
        for var in self.and_vars():
            if var not in reachable:
                continue
            f0 = self._map_literal(self._fanin0[var], old_to_new)
            f1 = self._map_literal(self._fanin1[var], old_to_new)
            old_to_new[var] = new.add_and(f0, f1)
        for lit, po_name in zip(self._pos, self._po_names):
            new.add_po(self._map_literal(lit, old_to_new), po_name)
        return new

    def _reachable_vars(self) -> set:
        """Variables in the transitive fanin of any PO."""
        seen = set()
        stack = [literal_var(lit) for lit in self._pos]
        while stack:
            var = stack.pop()
            if var in seen or var == 0:
                continue
            seen.add(var)
            if not self._is_pi[var]:
                stack.append(literal_var(self._fanin0[var]))
                stack.append(literal_var(self._fanin1[var]))
        return seen

    @staticmethod
    def _map_literal(lit: int, old_to_new: Dict[int, int]) -> int:
        var = literal_var(lit)
        if var not in old_to_new:
            raise AigError(f"literal {lit} refers to an unmapped variable {var}")
        return negate_if(old_to_new[var], is_complemented(lit))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Export the AIG as a ``networkx.DiGraph`` (edges fanin -> node)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_node(0, kind="const")
        for var, pi_name in zip(self._pis, self._pi_names):
            graph.add_node(var, kind="pi", name=pi_name)
        for var in self.and_vars():
            graph.add_node(var, kind="and")
            f0, f1 = self._fanin0[var], self._fanin1[var]
            graph.add_edge(literal_var(f0), var, complemented=is_complemented(f0))
            graph.add_edge(literal_var(f1), var, complemented=is_complemented(f1))
        for idx, (lit, po_name) in enumerate(zip(self._pos, self._po_names)):
            po_node = f"po:{idx}"
            graph.add_node(po_node, kind="po", name=po_name)
            graph.add_edge(literal_var(lit), po_node, complemented=is_complemented(lit))
        return graph

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _new_var(self) -> int:
        self._fanin0.append(CONST0)
        self._fanin1.append(CONST0)
        self._is_pi.append(False)
        return len(self._fanin0) - 1

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self.size:
            raise AigError(f"variable {var} out of range (size {self.size})")

    def _check_literal(self, lit: int) -> None:
        if lit < 0:
            raise LiteralError(f"literal must be non-negative, got {lit}")
        if literal_var(lit) >= self.size:
            raise LiteralError(
                f"literal {lit} refers to variable {literal_var(lit)} "
                f"but the graph only has {self.size} variables"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"ands={self.num_ands})"
        )


def rebuild_map(source: Aig, target: Aig) -> Dict[int, int]:
    """Initial old-variable -> new-literal map for rebuild-style transforms.

    Copies the PI interface of *source* into *target* and returns the map
    seeded with the constant node and all PIs.  Transform passes extend the
    map as they reconstruct AND nodes.
    """
    mapping: Dict[int, int] = {0: CONST0}
    for var, name in zip(source.pi_vars, source.pi_names):
        mapping[var] = target.add_pi(name)
    return mapping
