"""Tests for the repro.api service layer (session, evaluators, fingerprint)."""

import pytest

from repro.aig.graph import Aig
from repro.api import (
    CachedEvaluator,
    EvalRequest,
    Evaluator,
    OptimizeRequest,
    ParallelEvaluator,
    SynthesisSession,
    available_flows,
    create_flow,
)
from repro.errors import OptimizationError
from repro.evaluation import GroundTruthEvaluator, default_evaluator, evaluate_aig
from repro.opt.annealing import AnnealingConfig
from repro.opt.flows import BaselineFlow, GroundTruthFlow, measure_iteration_runtime


def _build_majority(order: int) -> Aig:
    """The same 3-input majority function, built with different node orders."""
    aig = Aig("maj")
    a, b, c = aig.add_pi("a"), aig.add_pi("b"), aig.add_pi("c")
    if order == 0:
        ab, bc, ac = aig.add_and(a, b), aig.add_and(b, c), aig.add_and(a, c)
    elif order == 1:
        ac, ab, bc = aig.add_and(a, c), aig.add_and(a, b), aig.add_and(b, c)
    else:
        bc, ac, ab = aig.add_and(b, c), aig.add_and(c, a), aig.add_and(b, a)
    aig.add_po(aig.add_or(aig.add_or(ab, bc), ac), "maj")
    return aig


class TestFingerprint:
    def test_stable_under_node_reordering(self):
        prints = {_build_majority(order).fingerprint() for order in range(3)}
        assert len(prints) == 1

    def test_insensitive_to_names_and_dead_logic(self):
        base = _build_majority(0)
        renamed = _build_majority(0)
        renamed.name = "other"
        assert base.fingerprint() == renamed.fingerprint()

        with_dead = _build_majority(0)
        a, b = with_dead.pi_literals()[:2]
        with_dead.add_and(a ^ 1, b ^ 1)  # not referenced by any PO
        assert with_dead.fingerprint() == base.fingerprint()

    def test_sensitive_to_structure_and_polarity(self):
        base = _build_majority(0)
        flipped = _build_majority(0)
        flipped.set_po_literal(0, flipped.po_literals()[0] ^ 1)
        assert base.fingerprint() != flipped.fingerprint()

        different = Aig("and2")
        a, b = different.add_pi(), different.add_pi()
        different.add_po(different.add_and(a, b))
        assert different.fingerprint() != base.fingerprint()

    def test_clone_and_cleanup_preserve_fingerprint(self, adder_aig):
        assert adder_aig.clone().fingerprint() == adder_aig.fingerprint()
        assert adder_aig.cleanup().fingerprint() == adder_aig.fingerprint()


class TestCachedEvaluator:
    def test_repeat_evaluation_is_a_hit(self, library, adder_aig):
        cached = CachedEvaluator(GroundTruthEvaluator(library))
        first = cached.evaluate(adder_aig)
        second = cached.evaluate(adder_aig.clone())
        assert cached.stats.hits == 1
        assert cached.stats.misses == 1
        assert first.as_tuple() == second.as_tuple()
        assert len(cached) == 1

    def test_evaluate_many_deduplicates(self, library, adder_aig, tiny_aig):
        cached = CachedEvaluator(GroundTruthEvaluator(library))
        batch = [adder_aig, tiny_aig, adder_aig.clone(), tiny_aig.clone()]
        results = cached.evaluate_many(batch)
        assert cached.stats.misses == 2
        assert cached.stats.hits == 2
        assert results[0].as_tuple() == results[2].as_tuple()
        assert results[1].as_tuple() == results[3].as_tuple()

    def test_results_match_uncached(self, library, adder_aig):
        plain = GroundTruthEvaluator(library)
        cached = CachedEvaluator(GroundTruthEvaluator(library))
        assert cached.evaluate(adder_aig).as_tuple() == plain.evaluate(adder_aig).as_tuple()

    def test_evaluate_many_under_eviction_pressure(
        self, library, adder_aig, tiny_aig, mult_aig
    ):
        # A bound smaller than the batch must not corrupt results or stats:
        # fresh results are held locally, so in-batch duplicates are still
        # served once even after their cache entry is evicted.
        cached = CachedEvaluator(GroundTruthEvaluator(library), max_entries=1)
        batch = [adder_aig, tiny_aig, mult_aig, adder_aig.clone()]
        results = cached.evaluate_many(batch)
        expected = GroundTruthEvaluator(library).evaluate_many(batch)
        assert [r.as_tuple() for r in results] == [e.as_tuple() for e in expected]
        assert cached.stats.misses == 3
        assert cached.stats.hits == 1
        assert len(cached) == 1

    def test_lru_bound_evicts(self, library, adder_aig, tiny_aig, mult_aig):
        cached = CachedEvaluator(GroundTruthEvaluator(library), max_entries=2)
        for aig in (adder_aig, tiny_aig, mult_aig):
            cached.evaluate(aig)
        assert len(cached) == 2
        cached.evaluate(adder_aig)  # evicted earlier -> miss again
        assert cached.stats.misses == 4

    def test_satisfies_protocol(self, library):
        assert isinstance(CachedEvaluator(GroundTruthEvaluator(library)), Evaluator)
        assert isinstance(GroundTruthEvaluator(library), Evaluator)

    def test_no_cross_library_collision(self, library, adder_aig):
        """Regression: keys include the library identity, so a cache whose
        inner evaluator is swapped to another library must recompute rather
        than serve the other library's numbers."""
        import dataclasses

        from repro.library.library import CellLibrary

        scaled = CellLibrary(
            "sky130-lite-x2",
            [dataclasses.replace(cell, area_um2=cell.area_um2 * 2) for cell in library],
            po_load_ff=library.po_load_ff,
        )
        assert scaled.fingerprint() != library.fingerprint()

        cached = CachedEvaluator(GroundTruthEvaluator(library))
        original = cached.evaluate(adder_aig)
        cached.inner = GroundTruthEvaluator(scaled)
        rescaled = cached.evaluate(adder_aig)
        assert cached.stats.misses == 2, "swapped library must not be a cache hit"
        assert rescaled.area_um2 != original.area_um2
        expected = GroundTruthEvaluator(scaled).evaluate(adder_aig)
        assert rescaled.as_tuple() == expected.as_tuple()
        # Both contexts stay resident side by side.
        cached.inner = GroundTruthEvaluator(library)
        assert cached.evaluate(adder_aig).as_tuple() == original.as_tuple()
        assert cached.stats.hits == 1

    def test_renumbered_identical_structure_is_not_a_hit(self, library):
        """Regression: mapping is sensitive to node numbering (cut
        truncation ties), so results are keyed on the exact representation
        rather than the order-insensitive fingerprint."""
        base = _build_majority(0)
        renumbered = _build_majority(1)
        assert base.fingerprint() == renumbered.fingerprint()
        assert base.exact_key() != renumbered.exact_key()

        cached = CachedEvaluator(GroundTruthEvaluator(library))
        first = cached.evaluate(base)
        second = cached.evaluate(renumbered)
        assert cached.stats.misses == 2
        # Same structure, same numbers here — but each was computed for its
        # own representation rather than served from the other's entry.
        plain = GroundTruthEvaluator(library)
        assert first.as_tuple() == plain.evaluate(base).as_tuple()
        assert second.as_tuple() == plain.evaluate(renumbered).as_tuple()


class TestParallelEvaluator:
    def test_parallel_matches_serial(self, library, adder_aig, tiny_aig):
        serial = GroundTruthEvaluator(library)
        aigs = [adder_aig, tiny_aig, adder_aig.clone()]
        with ParallelEvaluator(library, max_workers=2) as parallel:
            results = parallel.evaluate_many(aigs)
        expected = serial.evaluate_many(aigs)
        assert [r.as_tuple() for r in results] == [e.as_tuple() for e in expected]

    def test_single_item_runs_in_process(self, library, adder_aig):
        parallel = ParallelEvaluator(library, max_workers=2)
        result = parallel.evaluate(adder_aig)
        assert parallel._pool is None  # no pool spawned for one item
        assert result.delay_ps > 0
        parallel.close()

    def test_satisfies_protocol(self, library):
        evaluator = ParallelEvaluator(library, max_workers=1)
        assert isinstance(evaluator, Evaluator)
        evaluator.close()

    def test_min_batch_size_validated_not_clamped(self, library):
        # Regression: min_batch_size < 2 was silently raised to 2, so a
        # caller asking for 1 got different behavior with no signal.
        with pytest.raises(ValueError):
            ParallelEvaluator(library, min_batch_size=0)
        evaluator = ParallelEvaluator(library, max_workers=2, min_batch_size=1)
        assert evaluator.min_batch_size == 1
        evaluator.close()

    def test_close_clears_broken_pool_latch(self, library, adder_aig):
        evaluator = ParallelEvaluator(library, max_workers=2)
        evaluator._pool_broken = True
        # Broken latch forces the serial path...
        results = evaluator.evaluate_many([adder_aig, adder_aig.clone()])
        assert len(results) == 2 and evaluator._pool is None
        # ...and close() re-arms the pool for the next use.
        evaluator.close()
        assert evaluator._pool_broken is False


class TestDefaultEvaluator:
    def test_one_shot_calls_share_the_default_evaluator(self, adder_aig):
        assert default_evaluator() is default_evaluator()
        result = evaluate_aig(adder_aig)
        assert result.netlist is not None
        assert result.as_tuple() == default_evaluator().evaluate(adder_aig).as_tuple()


class TestSynthesisSession:
    def test_evaluate_uses_cache(self, library):
        session = SynthesisSession(library=library)
        first = session.evaluate("EX68")
        second = session.evaluate("EX68")
        assert first.as_tuple() == second.as_tuple()
        assert session.cache_stats.hits >= 1

    def test_map_keeps_netlist(self, library):
        session = SynthesisSession(library=library)
        result = session.map("EX68")
        assert result.netlist is not None
        assert result.timing is not None
        # Cached evaluations stay lightweight.
        assert session.evaluate(EvalRequest(design="EX68")).netlist is None

    def test_flow_registry_surface(self):
        flows = available_flows()
        assert {"baseline", "ground_truth", "ml", "hybrid"} <= set(flows)
        with pytest.raises(OptimizationError):
            create_flow("no-such-flow")
        with pytest.raises(OptimizationError):
            create_flow("ml")  # missing delay model

    def test_optimize_matches_legacy_flow(self, library):
        config = AnnealingConfig(iterations=4, keep_history=False)
        legacy = BaselineFlow(library).run(
            SynthesisSession(library=library).load_design("EX68"),
            config=config,
            rng=11,
        )
        session = SynthesisSession(library=library)
        result = session.optimize(
            OptimizeRequest(design="EX68", flow="baseline", seed=11,
                            annealing=config)
        )
        assert result.flow == legacy.flow
        assert result.delay_ps == pytest.approx(legacy.delay_ps)
        assert result.area_um2 == pytest.approx(legacy.area_um2)
        assert result.best_aig.fingerprint() == legacy.annealing.best_aig.fingerprint()

    def test_ground_truth_optimize_hits_cache(self, library, adder_aig):
        session = SynthesisSession(library=library)
        result = session.optimize(
            design=adder_aig, flow="ground-truth", iterations=3, seed=5
        )
        assert result.final.delay_ps > 0
        stats = session.cache_stats
        assert stats.hits >= 1  # calibration + revisits are cache hits

    def test_train_and_predict_roundtrip(self, library, adder_aig):
        session = SynthesisSession(library=library)
        train = session.train_model([adder_aig], samples=4, seed=3,
                                    register_as="d")
        assert train.model is session.models.resolve("d")
        predicted = session.predict(adder_aig, "d")
        assert predicted > 0

    def test_model_registry_rejects_unknown(self):
        session = SynthesisSession()
        with pytest.raises(OptimizationError):
            session.models.resolve("missing-model")

    def test_incremental_kind_is_an_alias_of_cached(self, library):
        sessions = {
            kind: SynthesisSession(library=library, evaluator_kind=kind)
            for kind in ("incremental", "cached")
        }
        assert isinstance(sessions["incremental"].evaluator, CachedEvaluator)
        results = {
            kind: session.optimize(
                design="EX08", flow="ground-truth", iterations=2, seed=3
            )
            for kind, session in sessions.items()
        }
        alias, cached = results["incremental"], results["cached"]
        assert alias.initial.as_tuple() == cached.initial.as_tuple()
        assert alias.delay_ps == cached.delay_ps
        assert alias.area_um2 == cached.area_um2


class TestMeasureIterationRuntime:
    def test_evaluation_count_excludes_calibration(self, library, adder_aig):
        flow = GroundTruthFlow(library)
        iterations = 3
        runtime = measure_iteration_runtime(flow, adder_aig, iterations=iterations)
        timer = None
        # Re-run to inspect the raw stage counts with the same configuration.
        result = flow.run(
            adder_aig,
            config=AnnealingConfig(iterations=iterations, keep_history=False),
            rng=0,
        )
        timer = result.annealing.stage_timer
        assert timer.counts.get("evaluation") == iterations
        assert timer.counts.get("calibration") == 1
        assert runtime.iterations == iterations
        assert runtime.evaluation_seconds >= 0.0

    def test_runtime_without_history_or_calibration_assumption(self, library, adder_aig):
        flow = BaselineFlow(library)
        config = AnnealingConfig(iterations=2, keep_history=False)
        runtime = measure_iteration_runtime(flow, adder_aig, iterations=2, config=config)
        assert runtime.transform_seconds >= 0.0
        assert runtime.evaluation_seconds >= 0.0
