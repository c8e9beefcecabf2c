"""Tests for the individual AIG transformations."""

import pytest

from repro.aig.equivalence import check_equivalence_exact
from repro.aig.graph import Aig
from repro.aig.random_graphs import random_aig
from repro.transforms.balance import Balance
from repro.transforms.base import IdentityTransform
from repro.transforms.refactor import Refactor
from repro.transforms.resub import Resubstitute
from repro.transforms.rewrite import Rewrite
from repro.transforms.strash import Strash, Sweep


ALL_TRANSFORMS = [
    Strash(),
    Sweep(),
    Balance(),
    Rewrite(),
    Rewrite(zero_cost=True),
    Refactor(),
    Refactor(zero_cost=True),
    Resubstitute(),
    IdentityTransform(),
]


@pytest.mark.parametrize("transform", ALL_TRANSFORMS, ids=lambda t: repr(t))
def test_transform_preserves_function_on_adder(transform, adder_aig):
    result = transform.apply(adder_aig)
    assert check_equivalence_exact(adder_aig, result).equivalent


@pytest.mark.parametrize("transform", ALL_TRANSFORMS, ids=lambda t: repr(t))
def test_transform_preserves_interface(transform, mult_aig):
    result = transform.apply(mult_aig)
    assert result.num_pis == mult_aig.num_pis
    assert result.num_pos == mult_aig.num_pos
    assert result.pi_names == mult_aig.pi_names
    assert result.po_names == mult_aig.po_names


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "transform", [Balance(), Rewrite(), Refactor(), Resubstitute()], ids=lambda t: repr(t)
)
def test_transform_preserves_function_on_random_graphs(transform, seed):
    aig = random_aig(9, 4, 180, rng=seed)
    result = transform.apply(aig)
    assert check_equivalence_exact(aig, result).equivalent


def test_run_reports_statistics(adder_aig):
    result = Balance().run(adder_aig)
    assert result.transform == "b"
    assert result.before.num_ands == adder_aig.num_ands
    assert result.after.num_ands == result.aig.num_ands
    assert result.node_delta == result.after.num_ands - result.before.num_ands
    assert result.depth_delta == result.after.depth - result.before.depth


class TestStrash:
    def test_merges_duplicate_structure(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        aig.add_po(aig.add_and(a, b))
        # Manually inject a redundant duplicate by rebuilding the same AND.
        aig.add_po(aig.add_and(b, a))
        rebuilt = Strash().apply(aig)
        assert rebuilt.num_ands == 1

    def test_sweep_drops_unreachable(self):
        aig = Aig()
        a, b, c = (aig.add_pi() for _ in range(3))
        keep = aig.add_and(a, b)
        aig.add_and(b, c)  # dangling
        aig.add_po(keep)
        swept = Sweep().apply(aig)
        assert swept.num_ands == 1


class TestBalance:
    def test_balances_linear_chain(self):
        aig = Aig()
        pis = [aig.add_pi(f"x{i}") for i in range(8)]
        current = pis[0]
        for lit in pis[1:]:
            current = aig.add_and(current, lit)
        aig.add_po(current, "f")
        assert aig.depth() == 7
        balanced = Balance().apply(aig)
        assert balanced.depth() == 3
        assert check_equivalence_exact(aig, balanced).equivalent

    def test_does_not_increase_depth(self, mult_aig):
        balanced = Balance().apply(mult_aig)
        assert balanced.depth() <= mult_aig.depth()


class TestRewrite:
    def test_reduces_redundant_structure(self):
        aig = Aig()
        a, b, c = (aig.add_pi() for _ in range(3))
        # f = (a&b) | (a&c) -- factoring can save a node: a & (b|c).
        left = aig.add_and(a, b)
        right = aig.add_and(a, c)
        aig.add_po(aig.add_or(left, right), "f")
        before = aig.num_ands
        rewritten = Rewrite().apply(aig)
        assert rewritten.num_ands <= before
        assert check_equivalence_exact(aig, rewritten).equivalent


class TestResub:
    def test_merges_functionally_equivalent_nodes(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        xor_1 = aig.add_xor(a, b)
        # Same function built with a different structure (mux-style).
        xor_2 = aig.add_mux(a, b ^ 1, b)  # a ? !b : b  ==  a ^ b
        aig.add_po(xor_1, "f")
        aig.add_po(xor_2, "g")
        reduced = Resubstitute().apply(aig)
        assert reduced.num_ands < aig.num_ands
        assert check_equivalence_exact(aig, reduced).equivalent

    def test_detects_constant_nodes(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        # (a & b) & (!a) is constant 0 but built in two structural steps.
        ab = aig.add_and(a, b)
        const_node = aig.add_and(ab, a ^ 1)
        aig.add_po(const_node, "f")
        reduced = Resubstitute().apply(aig)
        assert reduced.num_ands == 0
        assert check_equivalence_exact(aig, reduced).equivalent

    def test_large_design_uses_random_signatures(self):
        aig = random_aig(24, 3, 120, rng=8)
        reduced = Resubstitute(exact_pi_limit=16).apply(aig)
        # Above the exact limit the pass returns the cleaned-up input.
        from repro.aig.equivalence import check_equivalence_random

        assert check_equivalence_random(aig, reduced, num_patterns=512, rng=1).equivalent
        assert reduced.exact_key() == aig.cleanup().exact_key()


class TestRefactor:
    def test_zero_cost_changes_structure_safely(self, mult_aig):
        refactored = Refactor(zero_cost=True).apply(mult_aig)
        assert check_equivalence_exact(mult_aig, refactored).equivalent
