"""Tests for dataset generation: perturbation, labelling, assembly, caching."""

import numpy as np
import pytest

from repro.aig.equivalence import check_equivalence_exact
from repro.datagen.generator import (
    DatasetGenerator,
    GenerationConfig,
    load_corpus,
    save_corpus,
)
from repro.datagen.labeler import Labeler
from repro.datagen.perturb import (
    generate_variants,
    random_script,
    structural_signature,
    variant_stream,
)
from repro.errors import DatasetError
from repro.transforms.scripts import primitive_transforms


class TestPerturbation:
    def test_variants_are_unique_and_equivalent(self, adder_aig):
        variants = generate_variants(adder_aig, 8, rng=0)
        signatures = {structural_signature(v) for v in variants}
        assert len(signatures) == len(variants)
        for variant in variants:
            assert check_equivalence_exact(adder_aig, variant).equivalent

    def test_variant_count_requested(self, adder_aig):
        variants = generate_variants(adder_aig, 5, rng=1)
        assert 1 <= len(variants) <= 5

    def test_include_base(self, adder_aig):
        variants = generate_variants(adder_aig, 4, rng=2, include_base=True)
        assert structural_signature(variants[0]) == structural_signature(adder_aig.cleanup())

    def test_deterministic_with_seed(self, adder_aig):
        a = generate_variants(adder_aig, 5, rng=7)
        b = generate_variants(adder_aig, 5, rng=7)
        assert [v.num_ands for v in a] == [v.num_ands for v in b]

    # Pinned: structural_signature must be a *stable* digest (SHA-256 over
    # the canonical structural payload), never builtin hash() — hash() is
    # salted per process, and pool workers dedup variants across processes.
    ADD4_SIGNATURE = "1501d40be262a3eb09b311e0281de0b61aa0b861fdc716d4070176710333a675"

    def test_signature_is_pinned_stable_digest(self, adder_aig):
        assert structural_signature(adder_aig) == self.ADD4_SIGNATURE

    def test_signature_stable_across_processes(self):
        import subprocess
        import sys

        script = (
            "from repro.designs.generators import adder_design\n"
            "from repro.datagen.perturb import structural_signature\n"
            "print(structural_signature(adder_design(bits=4, name='add4')))\n"
        )
        # -R randomizes PYTHONHASHSEED explicitly: a hash()-based signature
        # would differ between two such interpreters.
        outputs = {
            subprocess.run(
                [sys.executable, "-R", "-c", script],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert outputs == {self.ADD4_SIGNATURE}

    def test_invalid_count_rejected(self, adder_aig):
        with pytest.raises(DatasetError):
            generate_variants(adder_aig, 0)

    def test_random_script_uses_known_primitives(self):
        registry = primitive_transforms()
        script = random_script(rng=3, max_length=3)
        assert script
        for step in script:
            assert step in registry

    def test_variant_stream_yields_equivalent_graphs(self, adder_aig):
        stream = variant_stream(adder_aig, rng=4)
        for _ in range(3):
            variant = next(stream)
            assert check_equivalence_exact(adder_aig, variant).equivalent


class TestLabeler:
    def test_labels_are_positive(self, adder_aig):
        labeler = Labeler()
        samples = labeler.label("add4", [adder_aig])
        assert len(samples) == 1
        assert samples[0].delay_ps > 0
        assert samples[0].area_um2 > 0
        assert samples[0].design == "add4"


class TestDatasetGenerator:
    @pytest.fixture(scope="class")
    def small_corpus(self):
        generator = DatasetGenerator(GenerationConfig(samples_per_design=6, seed=3))
        from repro.designs.generators import adder_design

        corpus = generator.generate_for_aig("add5", adder_design(bits=5), rng=3)
        return generator, corpus

    def test_corpus_shapes_consistent(self, small_corpus):
        generator, corpus = small_corpus
        n = len(corpus.aigs)
        assert corpus.features.shape == (n, generator.extractor.num_features)
        assert corpus.delays_ps.shape == (n,)
        assert corpus.areas_um2.shape == (n,)

    def test_dataset_assembly(self, small_corpus):
        generator, corpus = small_corpus
        dataset = generator.to_dataset({"add5": corpus})
        assert len(dataset) == len(corpus.aigs)
        assert dataset.design_names() == ["add5"]
        assert dataset.areas is not None

    def test_area_dataset_swaps_labels(self, small_corpus):
        generator, corpus = small_corpus
        area_ds = generator.area_dataset({"add5": corpus})
        assert np.allclose(area_ds.labels, corpus.areas_um2)

    def test_empty_corpora_rejected(self, small_corpus):
        generator, _ = small_corpus
        with pytest.raises(DatasetError):
            generator.to_dataset({})

    def test_corpus_roundtrip_on_disk(self, small_corpus, tmp_path):
        _, corpus = small_corpus
        path = tmp_path / "corpus.npz"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.design == corpus.design
        assert np.allclose(loaded.delays_ps, corpus.delays_ps)
        assert np.allclose(loaded.features, corpus.features)

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            GenerationConfig(samples_per_design=1)
