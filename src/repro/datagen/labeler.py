"""Ground-truth labelling of AIG variants (technology mapping + STA).

Labels are exactly what the paper uses: the post-mapping maximum delay (and
total cell area) of each AIG variant under the 130 nm-class library, obtained
by running the full mapper and STA.  This is the expensive step that the ML
model exists to replace inside the optimization loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.aig.graph import Aig
from repro.evaluation import Evaluator, GroundTruthEvaluator, PpaResult
from repro.library.library import CellLibrary


@dataclass(frozen=True)
class LabeledSample:
    """One dataset row before feature extraction."""

    design: str
    aig: Aig
    delay_ps: float
    area_um2: float
    num_gates: int


class Labeler:
    """Maps + times AIG variants, producing :class:`LabeledSample` records.

    Labelling goes through an injected :class:`~repro.evaluation.Evaluator`,
    so a caller can hand in a cached or process-parallel one (see
    :mod:`repro.api.evaluators`) and every variant batch is deduplicated
    and/or fanned out across workers.
    """

    def __init__(
        self,
        library: Optional[CellLibrary] = None,
        evaluator: Optional[Evaluator] = None,
    ) -> None:
        self._evaluator: Evaluator = (
            evaluator if evaluator is not None else GroundTruthEvaluator(library)
        )

    @property
    def library(self) -> CellLibrary:
        """The cell library used for labelling."""
        return self._evaluator.library

    @property
    def evaluator(self) -> Evaluator:
        """The evaluator labelling is routed through."""
        return self._evaluator

    def label(self, design: str, aigs: Sequence[Aig]) -> List[LabeledSample]:
        """Label every AIG in *aigs* with its post-mapping delay and area."""
        aigs = list(aigs)
        # One batch: lets cached/parallel evaluators dedupe and fan out.
        results = self._evaluator.evaluate_many(aigs)
        samples: List[LabeledSample] = []
        for aig, result in zip(aigs, results):
            samples.append(
                LabeledSample(
                    design=design,
                    aig=aig,
                    delay_ps=result.delay_ps,
                    area_um2=result.area_um2,
                    num_gates=result.num_gates,
                )
            )
        return samples
