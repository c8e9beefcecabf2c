"""The sa_ground_truth and sa_ml workloads: SA optimization through a session."""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from layerbench.common import (
    Context, Fitted, Outcome, ScoringRecipe, build_rows, corpus, derive, label_and_fit, peak_rss_mb,
    save_run_record, timed_setup,
)
from layerbench.layers import traced_metrics
from layerbench.summary import geomean, percentile
from layerbench.tracer import Tracer, now

#: SA runs alternate between a shallow control design and the deep multiplier,
#: each run on a freshly seeded variant, with iteration budgets that make the
#: two kinds of run take about as long (~2.2 s each on a 2-CPU VM), so run
#: latencies form one population.
SPECS: Tuple[Tuple[str, int], ...] = (("EX02", 4), ("EX54", 2))
#: Runs always made, whatever --seconds says; QoR and verdicts cover these.
#: A run also stops only after whole pairs, so both designs weigh equally.
MIN_RUNS = 4
#: sa_ml's in-loop models learn from this many seeded variants per train spec.
MODEL_VARIANTS = 3
MODEL_TREES = 50
#: Scoring-recipe graphs labelled after each SA run.
RECIPE_STEP = 8

#: Every SA move is a rewrite pass, a refactor pass and a cheap finishing
#: pass (balance or resubstitution).  The moves cost the same, so seconds per
#: iteration measure the program, not which moves the seed happened to draw:
#: with the default 103-script catalog (one to ten passes a move) an SA run's
#: seconds per iteration vary with a CV of ~0.3, and mixing zero-cost and
#: plain passes or their order still leaves ~0.2; these two moves leave ~0.08.
CATALOG: List[List[str]] = [["rw", "rf", "b"], ["rw", "rf", "rs"]]

FLOWS = {"sa_ground_truth": "ground-truth", "sa_ml": "ml"}


@dataclass(frozen=True)
class Unit:
    """One SA run of one design: the workload's job."""

    spec: str
    design_seed: int
    sa_seed: int
    iterations: int

    @property
    def name(self) -> str:
        return f"{self.spec}/{self.design_seed}"


def unit_at(seed: int, index: int) -> Unit:
    """The *index*-th SA run of a run: a fresh design variant every time.

    Fresh variants keep repetitions honest: re-optimizing one graph would hit
    the program's process-wide resynthesis memo and get faster each time.
    """
    spec, iterations = SPECS[index % len(SPECS)]
    return Unit(spec, derive(seed, "design", spec, index), derive(seed, "sa", spec, index), iterations)


@dataclass
class UnitResult:
    unit: Unit
    seconds: float
    window: Tuple[float, float]
    initial: Any
    best: Any
    delay_ps: float
    area_um2: float


@dataclass
class Setup:
    library: Any
    models: Optional[Fitted]


def train_models(library: Any, seed: int) -> Fitted:
    """sa_ml's delay and area GBDTs, fitted on labelled train-spec variants."""
    from repro.ml.gbdt import GbdtParams

    rows = corpus(seed, MODEL_VARIANTS, 0)
    return label_and_fit(library, rows, build_rows(rows), GbdtParams(n_estimators=MODEL_TREES), seed)


def run_unit(setup: Setup, flow: str, unit: Unit, tracer: Optional[Tracer] = None) -> UnitResult:
    from repro.api import OptimizeRequest, SynthesisSession
    from repro.designs.registry import build_design

    aig = build_design(unit.spec, seed=unit.design_seed, use_cache=False)
    session = SynthesisSession(library=setup.library)
    request = OptimizeRequest(
        design=aig,
        flow=flow,
        iterations=unit.iterations,
        seed=unit.sa_seed,
        catalog=CATALOG,
        delay_model=setup.models.delay_model if setup.models else None,
        area_model=setup.models.area_model if setup.models else None,
    )
    start = now()
    with tracer.scope(f"sa:{unit.name}") if tracer is not None else nullcontext():
        result = session.optimize(request)
    end = now()
    return UnitResult(unit, end - start, (start, end), aig, result.best_aig, result.delay_ps, result.area_um2)


def timed_runs(
    ctx: Context, setup: Setup, flow: str, tracer: Optional[Tracer], recipe: ScoringRecipe
) -> List[UnitResult]:
    """SA runs until --seconds pass (at least :data:`MIN_RUNS`, whole pairs), or as many as the untraced run made.

    Between SA runs, outside their timing, *recipe* labels a few graphs.
    """
    count = ctx.reference.get("count") if ctx.reference else None
    results: List[UnitResult] = []
    spent = 0.0
    while True:
        done = len(results)
        if count is not None:
            if done >= count:
                break
        elif done >= MIN_RUNS and done % len(SPECS) == 0 and spent >= ctx.seconds:
            break
        results.append(run_unit(setup, flow, unit_at(ctx.seed, done), tracer))
        spent += results[-1].seconds
        recipe.step(RECIPE_STEP)
    return results


def verify(ctx: Context, setup: Setup, results: List[UnitResult], outcome: Outcome) -> None:
    """Equivalence, mapping equivalence and fresh ground truth for each best AIG."""
    from repro.aig.equivalence import check_equivalence
    from repro.evaluation import GroundTruthEvaluator
    from repro.mapping.simulate import check_mapping_equivalence

    for result in results[:MIN_RUNS]:
        name = result.unit.name
        verdict = check_equivalence(result.initial, result.best, rng=derive(ctx.seed, "equiv", name))
        outcome.check(verdict.equivalent, f"{name}: best AIG not equivalent to its input")
        mapped = GroundTruthEvaluator(setup.library, keep_netlist=True).evaluate(result.best)
        outcome.check(
            check_mapping_equivalence(result.best, mapped.netlist, rng=derive(ctx.seed, "mapeq", name)),
            f"{name}: mapped netlist not equivalent to the best AIG",
        )
        fresh = GroundTruthEvaluator(setup.library).evaluate(result.best)
        outcome.check(
            (fresh.delay_ps, fresh.area_um2) == (result.delay_ps, result.area_um2),
            f"{name}: fresh ground truth {fresh.delay_ps}/{fresh.area_um2} != reported "
            f"{result.delay_ps}/{result.area_um2}",
        )


def run(ctx: Context, names: Dict[str, List[str]]) -> Outcome:
    from repro.library.sky130_lite import load_sky130_lite

    flow = FLOWS[ctx.workload]

    def build() -> Setup:
        library = load_sky130_lite()
        setup = Setup(library, train_models(library, ctx.seed) if flow == "ml" else None)
        # A short run on a small design pays the program's one-time lazy
        # initialisation (lookup tables, match tables) before timing starts.
        run_unit(setup, flow, Unit("EX68", derive(ctx.seed, "warm-up"), 0, 2))
        return setup

    setup, setup_s = timed_setup(ctx, build)
    outcome = Outcome()
    tracer = Tracer() if ctx.trace else None
    # A traced run labels the recipe's graphs too, though it reports nothing
    # from them, so traced and untraced SA runs share a process equally.
    recipe = ScoringRecipe(setup.library, ctx.seed)
    with traced_metrics(ctx, names, tracer, outcome) as windows:
        results = timed_runs(ctx, setup, flow, tracer, recipe)
        windows.extend(r.window for r in results)
    rss = peak_rss_mb()
    outcome.attempted += len(results)
    outcome.digest = {r.unit.name: [repr(r.delay_ps), repr(r.area_um2), r.best.exact_key()] for r in results}
    verify(ctx, setup, results, outcome)
    if ctx.trace:
        return outcome

    save_run_record(ctx, count=len(results), seconds=sum(r.seconds for r in results))
    by_spec: Dict[str, List[float]] = {}
    for r in results:
        by_spec.setdefault(r.unit.spec, []).append(r.seconds)
    iterations = dict(SPECS)
    measured = results[:MIN_RUNS]
    durations = [r.seconds for r in results]
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        # SA seconds of one run of each design (median over the run's variants), per iteration.
        "iter_s": sum(statistics.median(v) for v in by_spec.values()) / sum(iterations[spec] for spec in by_spec),
        "final_delay_ps": geomean([r.delay_ps for r in measured]),
        "final_area_um2": geomean([r.area_um2 for r in measured]),
        **recipe.finish(),
        "job_latency_p50_s": percentile(durations, 0.5),
        "job_latency_p90_s": percentile(durations, 0.9),
        "jobs_per_s": len(results) / sum(durations),
    }
    return outcome
