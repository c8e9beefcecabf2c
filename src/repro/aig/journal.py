"""Structural node hashing: the basis of :meth:`Aig.fingerprint`.

:func:`node_hashes` gives every variable a hash of its transitive-fanin
structure, independent of variable ids and of the order of the two fanins
of an AND.  :func:`fingerprint_from_hashes` folds the hashes of the nodes
feeding the primary outputs into the graph-level fingerprint, and
:func:`node_hashes_cached` memoises the per-node list on the graph, which
is sound because node arrays are append-only.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List, Sequence

from repro.aig.literals import is_complemented, literal_var

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.aig.graph import Aig

_DIGEST_SIZE = 16
_CONST_HASH = hashlib.blake2b(b"const0", digest_size=_DIGEST_SIZE).digest()


def node_hashes(aig: "Aig") -> List[bytes]:
    """Per-variable structural hash of the transitive fanin cone.

    Two variables (possibly in different graphs) receive the same hash
    exactly when they compute the same AND/inverter structure over the same
    primary-input *positions*.  The hash is insensitive to variable ids and
    to the order of the two fanins.  The PO-level digest of
    :meth:`Aig.fingerprint` is built from these hashes.
    """
    hashes: List[bytes] = [_CONST_HASH] * aig.size
    for index, var in enumerate(aig.pi_vars):
        hashes[var] = hashlib.blake2b(
            b"pi:%d" % index, digest_size=_DIGEST_SIZE
        ).digest()
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        e0 = hashes[literal_var(f0)] + (b"1" if is_complemented(f0) else b"0")
        e1 = hashes[literal_var(f1)] + (b"1" if is_complemented(f1) else b"0")
        lo, hi = (e0, e1) if e0 <= e1 else (e1, e0)
        hashes[var] = hashlib.blake2b(
            b"and:" + lo + hi, digest_size=_DIGEST_SIZE
        ).digest()
    return hashes


def node_hashes_cached(aig: "Aig") -> List[bytes]:
    """:func:`node_hashes` with a per-graph cache.

    Sound because the graph's node arrays are append-only: existing
    variables never change their fanins, so a cached hash list is valid for
    exactly as long as the variable count is unchanged (PO edits do not
    affect node hashes), and clones share it until either side grows.
    """
    cache = aig._node_hash_cache
    if cache is not None and len(cache) == aig.size:
        return cache
    hashes = node_hashes(aig)
    aig._node_hash_cache = hashes
    return hashes


def fingerprint_from_hashes(aig: "Aig", hashes: Sequence[bytes]) -> str:
    """The :meth:`Aig.fingerprint` digest, from precomputed node hashes."""
    top = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    top.update(b"aig:%d:%d" % (aig.num_pis, aig.num_pos))
    for lit in aig.po_literals():
        top.update(hashes[literal_var(lit)])
        top.update(b"1" if is_complemented(lit) else b"0")
    return top.hexdigest()
