"""Structure-of-arrays view of an :class:`~repro.aig.graph.Aig`.

The :class:`Aig` stores its nodes in append-only Python lists — the right
shape for the structurally hashed construction path, the wrong shape for the
whole-graph sweeps every downstream pass performs (levels, fanout counts,
bit-parallel simulation, cut enumeration, mapping, STA).  This module
materialises those lists once per graph into contiguous numpy arrays so the
sweeps become indexed array walks instead of per-node method calls.

Soundness of the caching rests on two invariants of :class:`Aig`:

* node arrays are **append-only** — an existing variable never changes its
  fanins or its PI-ness, so any snapshot taken at size ``n`` stays valid for
  the first ``n`` variables forever (the same invariant the node-hash cache
  in :mod:`repro.aig.journal` relies on);
* primary-output bindings *can* be redirected in place
  (:meth:`Aig.set_po_literal`), so anything derived from the PO list (fanout
  counts) is additionally keyed on a PO edit counter.

A snapshot is therefore cached on the graph and transparently replaced when
the variable count changes; :meth:`Aig.clone` shares the snapshot by
reference.  Derived data (levels, level groups, fanout CSR) is computed
lazily inside the snapshot, so a graph that is only ever constructed and
hashed pays nothing.

Everything exposed here is **read-only** by convention: callers must never
write into the returned arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class AigArrays:
    """Immutable array-of-struct → struct-of-array snapshot of one graph.

    Attributes
    ----------
    size:
        Number of variables covered by this snapshot.
    fanin0_lit / fanin1_lit:
        Per-variable fanin literals (``0`` for the constant and PIs).
    fanin0_var / fanin1_var:
        The fanin literals' variable ids (``lit >> 1``).
    fanin0_comp / fanin1_comp:
        The fanin literals' complement bits (``lit & 1``) as ``bool``.
    is_pi / is_and:
        Node-kind masks; ``is_and`` is "not constant and not PI".
    pi_vars:
        PI variable ids in declaration order.
    and_vars:
        AND variable ids in ascending (topological) order.
    """

    __slots__ = (
        "size",
        "fanin0_lit",
        "fanin1_lit",
        "fanin0_var",
        "fanin1_var",
        "fanin0_comp",
        "fanin1_comp",
        "is_pi",
        "is_and",
        "pi_vars",
        "and_vars",
        "_fanin0_var_list",
        "_fanin1_var_list",
        "_levels",
        "_levels_list",
        "_and_level_groups",
        "_fanin_ref_counts",
        "_fanout_csr",
        "_fanout_offsets_list",
        "_fanout_consumers_list",
        "dp_cache",
    )

    def __init__(self, fanin0: List[int], fanin1: List[int], is_pi: List[int], pis: List[int]) -> None:
        size = len(fanin0)
        self.size = size
        self.fanin0_lit = np.asarray(fanin0, dtype=np.int64)
        self.fanin1_lit = np.asarray(fanin1, dtype=np.int64)
        self.fanin0_var = self.fanin0_lit >> 1
        self.fanin1_var = self.fanin1_lit >> 1
        self.fanin0_comp = (self.fanin0_lit & 1).astype(bool)
        self.fanin1_comp = (self.fanin1_lit & 1).astype(bool)
        self.is_pi = np.asarray(is_pi, dtype=bool)
        self.is_and = ~self.is_pi
        if size:
            self.is_and[0] = False
        self.pi_vars = np.asarray(pis, dtype=np.int64)
        self.and_vars = np.nonzero(self.is_and)[0]
        # The snapshot is shared by reference across clones and memo caches
        # (rule C2's runtime complement): freeze every array so accidental
        # in-place mutation by a caller raises instead of silently poisoning
        # every other graph sharing the snapshot.
        for array in (
            self.fanin0_lit,
            self.fanin1_lit,
            self.fanin0_var,
            self.fanin1_var,
            self.fanin0_comp,
            self.fanin1_comp,
            self.is_pi,
            self.is_and,
            self.pi_vars,
            self.and_vars,
        ):
            array.setflags(write=False)
        # Lazy caches.
        self._fanin0_var_list: Optional[List[int]] = None
        self._fanin1_var_list: Optional[List[int]] = None
        self._levels: Optional[np.ndarray] = None
        self._levels_list: Optional[List[int]] = None
        self._and_level_groups: Optional[List[np.ndarray]] = None
        self._fanin_ref_counts: Optional[np.ndarray] = None
        self._fanout_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._fanout_offsets_list: Optional[List[int]] = None
        self._fanout_consumers_list: Optional[List[int]] = None
        # Array-form derived state keyed by pass-specific tuples: the cut
        # rows (repro.aig.cut_arrays) and the mapper's candidate layout
        # (repro.mapping.dp_arrays) both memoise here.  Entries depend only
        # on the frozen node prefix this snapshot describes (plus immutable
        # library data captured in the key), so sharing across clones is
        # sound; cached objects are shared, never copied, and must be
        # treated as immutable.
        self.dp_cache: Dict[Tuple, object] = {}

    # ------------------------------------------------------------------ #
    # Plain-list mirrors (fastest for the remaining per-node Python loops)
    # ------------------------------------------------------------------ #
    def fanin_var_lists(self) -> Tuple[List[int], List[int]]:
        """Fanin variable ids as plain Python lists (index = variable)."""
        if self._fanin0_var_list is None:
            self._fanin0_var_list = self.fanin0_var.tolist()
            self._fanin1_var_list = self.fanin1_var.tolist()
        return self._fanin0_var_list, self._fanin1_var_list

    # ------------------------------------------------------------------ #
    # Levels
    # ------------------------------------------------------------------ #
    def levels(self) -> np.ndarray:
        """Per-variable logic level (PIs and constant at 0) as ``int64``.

        The level recurrence ``level[v] = 1 + max(level[f0], level[f1])`` is
        a true data-dependent scan, so it is computed once with a tight
        Python loop over the pre-extracted fanin lists and cached; every
        other level-ordered pass (level groups, wave-parallel simulation)
        reuses it for free.
        """
        if self._levels is None:
            f0v, f1v = self.fanin_var_lists()
            level = [0] * self.size
            for var in self.and_vars.tolist():
                l0 = level[f0v[var]]
                l1 = level[f1v[var]]
                level[var] = (l0 if l0 >= l1 else l1) + 1
            self._levels_list = level
            self._levels = np.asarray(level, dtype=np.int64)
            self._levels.setflags(write=False)
        return self._levels

    def levels_list(self) -> List[int]:
        """The cached levels as a plain Python list (do not mutate)."""
        if self._levels_list is None:
            self.levels()
        return self._levels_list  # type: ignore[return-value]

    def and_level_groups(self) -> List[np.ndarray]:
        """AND variables grouped by level, ascending (level 1 first).

        Each group's members depend only on strictly lower levels, so a pass
        that processes groups in order may evaluate every member of a group
        with one vectorised operation.  Groups are sorted by variable id, so
        per-group gather order is deterministic.
        """
        if self._and_level_groups is None:
            levels = self.levels()
            ands = self.and_vars
            if ands.size == 0:
                self._and_level_groups = []
            else:
                and_levels = levels[ands]
                order = np.argsort(and_levels, kind="stable")
                ordered = ands[order]
                ordered_levels = and_levels[order]
                boundaries = np.nonzero(np.diff(ordered_levels))[0] + 1
                self._and_level_groups = np.split(ordered, boundaries)
                for group in self._and_level_groups:
                    group.setflags(write=False)
        return self._and_level_groups

    # ------------------------------------------------------------------ #
    # Fanout structure
    # ------------------------------------------------------------------ #
    def fanin_ref_counts(self) -> np.ndarray:
        """Per-variable reference count from AND fanins only (no POs)."""
        if self._fanin_ref_counts is None:
            ands = self.and_vars
            counts = np.bincount(self.fanin0_var[ands], minlength=self.size)
            counts += np.bincount(self.fanin1_var[ands], minlength=self.size)
            self._fanin_ref_counts = counts.astype(np.int64, copy=False)
            self._fanin_ref_counts.setflags(write=False)
        return self._fanin_ref_counts

    def fanout_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(offsets, consumers)``: AND consumers per variable.

        ``consumers[offsets[v]:offsets[v + 1]]`` lists the AND variables that
        use ``v`` as a fanin, in ascending consumer order, with one entry per
        consuming fanin slot (a node consuming ``v`` on both fanins appears
        twice — the same multiset the list-of-lists :meth:`Aig.fanouts`
        produced).
        """
        if self._fanout_csr is None:
            ands = self.and_vars
            sources = np.concatenate((self.fanin0_var[ands], self.fanin1_var[ands]))
            consumers = np.concatenate((ands, ands))
            order = np.lexsort((consumers, sources))
            sorted_sources = sources[order]
            sorted_consumers = consumers[order]
            counts = np.bincount(sorted_sources, minlength=self.size)
            offsets = np.zeros(self.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            sorted_consumers = sorted_consumers.astype(np.int64, copy=False)
            offsets.setflags(write=False)
            sorted_consumers.setflags(write=False)
            self._fanout_csr = (offsets, sorted_consumers)
        return self._fanout_csr

    def fanout_csr_lists(self) -> Tuple[List[int], List[int]]:
        """The CSR adjacency as plain Python lists (for scalar BFS walks)."""
        if self._fanout_offsets_list is None:
            offsets, consumers = self.fanout_csr()
            self._fanout_offsets_list = offsets.tolist()
            self._fanout_consumers_list = consumers.tolist()
        return self._fanout_offsets_list, self._fanout_consumers_list  # type: ignore[return-value]
