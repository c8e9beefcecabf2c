"""Transformation framework.

A *transform* maps an AIG to a new, functionally equivalent AIG.  Transforms
are implemented rebuild-style: they construct a fresh graph rather than
mutating in place, which keeps structural hashing consistent and removes any
dangling logic automatically.  The engine (:mod:`repro.transforms.engine`)
can verify equivalence after every application as a safety net.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.aig.graph import Aig, AigStats


@dataclass(frozen=True)
class TransformResult:
    """Outcome of applying a transform to an AIG."""

    transform: str
    before: AigStats
    after: AigStats
    aig: Aig = field(repr=False, compare=False, hash=False, default=None)

    @property
    def node_delta(self) -> int:
        """Change in AND-node count (negative means the graph shrank)."""
        return self.after.num_ands - self.before.num_ands

    @property
    def depth_delta(self) -> int:
        """Change in AIG depth (negative means the graph got shallower)."""
        return self.after.depth - self.before.depth


class Transform(abc.ABC):
    """Base class for AIG-to-AIG transformations."""

    #: Short identifier used in scripts (e.g. ``"b"`` for balance).
    name: str = "transform"

    @abc.abstractmethod
    def apply(self, aig: Aig) -> Aig:
        """Return a new AIG implementing the same function as *aig*."""

    def run(self, aig: Aig) -> TransformResult:
        """Apply the transform and return a result record with statistics."""
        before = aig.stats()
        result = self.apply(aig)
        return TransformResult(
            transform=self.name, before=before, after=result.stats(), aig=result
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class IdentityTransform(Transform):
    """A transform that only re-hashes the graph (baseline for comparisons)."""

    name = "noop"

    def apply(self, aig: Aig) -> Aig:
        return aig.cleanup()
