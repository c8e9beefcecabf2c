"""Cell library container and Boolean match index.

:class:`CellLibrary` owns the cell list and a precomputed *match index*: for
every cell, every function obtainable by permuting its pins, optionally
inverting some pins, and optionally inverting its output is recorded.  The
technology mapper can then match an arbitrary cut function with a single
dictionary lookup, receiving the pin binding and the inverters it must insert.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.truth import table_mask
from repro.errors import LibraryError
from repro.library.cell import Cell

#: Maximum cell input count supported by the match index.
MAX_MATCH_INPUTS = 4


@dataclass(frozen=True)
class Match:
    """A way to realise a Boolean function with a library cell.

    Attributes
    ----------
    cell:
        The library cell to instantiate.
    pin_to_leaf:
        ``pin_to_leaf[j]`` is the index of the function variable (cut leaf)
        that drives cell pin ``j``.
    pin_negated:
        ``pin_negated[j]`` is true when an inverter must be inserted between
        the leaf and pin ``j``.
    output_negated:
        True when an inverter must be appended to the cell output.
    """

    cell: Cell
    pin_to_leaf: Tuple[int, ...]
    pin_negated: Tuple[bool, ...]
    output_negated: bool

    @property
    def num_inverters(self) -> int:
        """Number of extra inverter instances this match requires."""
        return sum(self.pin_negated) + (1 if self.output_negated else 0)


def cell_variants(cell: Cell) -> Dict[int, Match]:
    """All functions realisable by *cell* under pin permutation/negation.

    Returns a mapping from truth table (over ``cell.num_inputs`` variables)
    to the cheapest :class:`Match` (fewest inverters) producing it.
    """
    m = cell.num_inputs
    if m > MAX_MATCH_INPUTS:
        raise LibraryError(
            f"cell {cell.name} has {m} inputs; match index supports up to "
            f"{MAX_MATCH_INPUTS}"
        )
    variants: Dict[int, Match] = {}
    minterms = 1 << m
    g_bits = [(cell.function >> i) & 1 for i in range(minterms)]
    for assignment in permutations(range(m)):
        for neg_mask in range(1 << m):
            for out_neg in (False, True):
                table = 0
                for x in range(minterms):
                    p = 0
                    for pin in range(m):
                        bit = (x >> assignment[pin]) & 1
                        if (neg_mask >> pin) & 1:
                            bit ^= 1
                        p |= bit << pin
                    value = g_bits[p] ^ (1 if out_neg else 0)
                    table |= value << x
                match = Match(
                    cell=cell,
                    pin_to_leaf=tuple(assignment),
                    pin_negated=tuple(bool((neg_mask >> pin) & 1) for pin in range(m)),
                    output_negated=out_neg,
                )
                existing = variants.get(table)
                if existing is None or match.num_inverters < existing.num_inverters:
                    variants[table] = match
    return variants


class CellLibrary:
    """A named collection of standard cells with a Boolean match index."""

    def __init__(self, name: str, cells: Sequence[Cell], po_load_ff: float = 5.0) -> None:
        if not cells:
            raise LibraryError("a cell library needs at least one cell")
        self.name = name
        self.cells: List[Cell] = list(cells)
        self.po_load_ff = float(po_load_ff)
        self._by_name: Dict[str, Cell] = {}
        for cell in self.cells:
            if cell.name in self._by_name:
                raise LibraryError(f"duplicate cell name {cell.name!r}")
            self._by_name[cell.name] = cell
        self._inverters = sorted(
            (c for c in self.cells if c.is_inverter()), key=lambda c: c.area_um2
        )
        self._buffers = sorted(
            (c for c in self.cells if c.is_buffer()), key=lambda c: c.area_um2
        )
        if not self._inverters:
            raise LibraryError("library must contain at least one inverter cell")
        # match index: num_vars -> truth table -> list of matches (all cells).
        self._match_index: Dict[int, Dict[int, List[Match]]] = {}
        self._build_match_index()

    # ------------------------------------------------------------------ #
    def _build_match_index(self) -> None:
        for cell in self.cells:
            if cell.num_inputs == 0 or cell.num_inputs > MAX_MATCH_INPUTS:
                continue
            if not cell.depends_on_all_inputs():
                # Cells with redundant pins would shadow smaller cells.
                continue
            per_table = cell_variants(cell)
            bucket = self._match_index.setdefault(cell.num_inputs, {})
            for table, match in per_table.items():
                bucket.setdefault(table, []).append(match)
        for bucket in self._match_index.values():
            for matches in bucket.values():
                matches.sort(key=lambda m: (m.num_inverters, m.cell.area_um2))

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Content digest of the library (name, PO load, every cell's data).

        Two libraries get the same fingerprint exactly when every PPA-
        relevant datum matches, which makes it a sound component of
        evaluation cache keys: results computed against different libraries
        can never collide.  Computed once and cached (libraries are
        immutable after construction).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"lib:{self.name}:{self.po_load_ff!r}".encode())
        for cell in self.cells:
            digest.update(
                f"|{cell.name}:{cell.function}:{cell.num_inputs}:"
                f"{cell.area_um2!r}:{cell.output_name}".encode()
            )
            for pin in cell.pins:
                digest.update(
                    f";{pin.name}:{pin.capacitance_ff!r}:"
                    f"{pin.intrinsic_ps!r}:{pin.resistance_ps_per_ff!r}".encode()
                )
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def cell(self, name: str) -> Cell:
        """Look a cell up by name."""
        if name not in self._by_name:
            raise LibraryError(f"no cell named {name!r} in library {self.name!r}")
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def inverter(self) -> Cell:
        """The smallest inverter in the library."""
        return self._inverters[0]

    @property
    def inverters(self) -> List[Cell]:
        """All inverters, smallest first."""
        return list(self._inverters)

    @property
    def buffers(self) -> List[Cell]:
        """All buffers, smallest first."""
        return list(self._buffers)

    @property
    def max_match_inputs(self) -> int:
        """Largest cut size the match index can serve."""
        if not self._match_index:
            return 0
        return max(self._match_index)

    def matches(self, table: int, num_vars: int) -> List[Match]:
        """All matches for *table* over *num_vars* variables (may be empty).

        The table must depend on all *num_vars* variables; reduce it to its
        support before calling (the mapper does this).
        """
        if num_vars == 0:
            return []
        table &= table_mask(num_vars)
        bucket = self._match_index.get(num_vars, {})
        return list(bucket.get(table, []))

    def match_index_items(self) -> List[Tuple[int, int, List[Match]]]:
        """The whole match index as sorted ``(num_vars, table, matches)`` rows.

        Deterministic enumeration order (ascending input count, then table)
        for consumers that flatten the index into arrays — the vectorized
        mapper DP builds its per-library match tables from this.  The inner
        match lists are the index's own (num_inverters, area)-sorted lists;
        callers must not mutate them.
        """
        items: List[Tuple[int, int, List[Match]]] = []
        for num_vars in sorted(self._match_index):
            bucket = self._match_index[num_vars]
            for table in sorted(bucket):
                items.append((num_vars, table, bucket[table]))
        return items

    def summary(self) -> str:
        """Human-readable library overview."""
        lines = [f"Library {self.name}: {len(self.cells)} cells"]
        for cell in sorted(self.cells, key=lambda c: (c.num_inputs, c.name)):
            lines.append(
                f"  {cell.name:<10} inputs={cell.num_inputs} area={cell.area_um2:.2f}"
            )
        return "\n".join(lines)
