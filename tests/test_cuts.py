"""Tests for k-feasible cut enumeration: the ``Cut``-list oracle, and the
cut rows on hand-built graphs."""

import pytest

from repro.aig.cut_arrays import build_cut_arrays
from repro.aig.graph import Aig
from repro.aig.literals import literal_var
from repro.aig.simulate import cone_truth_table
from repro.errors import AigError

from cut_oracle import Cut, cut_volume, enumerate_cut_lists


def _row_tables(rows, var):
    """Leaves -> table of each of *var*'s cut rows."""
    return {
        tuple(rows.leaves[row, : rows.sizes[row]].tolist()): int(rows.tables[row])
        for row in rows.node_rows(var)
    }


@pytest.fixture()
def small_tree():
    """((a&b) & (c&d)) with named internals for inspection."""
    aig = Aig("tree")
    a, b, c, d = (aig.add_pi(n) for n in "abcd")
    ab = aig.add_and(a, b)
    cd = aig.add_and(c, d)
    root = aig.add_and(ab, cd)
    aig.add_po(root, "f")
    return aig, literal_var(ab), literal_var(cd), literal_var(root)


def test_pi_cuts_are_trivial(small_tree):
    aig, *_ = small_tree
    cuts = enumerate_cut_lists(aig, k=4)
    for var in aig.pi_vars:
        assert cuts[var] == [Cut(var, (var,))]


def test_root_has_full_pi_cut(small_tree):
    aig, ab, cd, root = small_tree
    cuts = enumerate_cut_lists(aig, k=4)
    leaf_sets = [set(c.leaves) for c in cuts[root]]
    assert set(aig.pi_vars) in leaf_sets
    assert {ab, cd} in leaf_sets


def test_k_limit_respected(small_tree):
    aig, *_ , root = small_tree
    cuts = enumerate_cut_lists(aig, k=3)
    for cut in cuts[root]:
        assert cut.size <= 3


def test_k_too_small_rejected(small_tree):
    aig, *_ = small_tree
    with pytest.raises(AigError):
        enumerate_cut_lists(aig, k=1)


def test_include_trivial_flag(small_tree):
    aig, *_, root = small_tree
    with_trivial = enumerate_cut_lists(aig, k=4, include_trivial=True)
    without = enumerate_cut_lists(aig, k=4, include_trivial=False)
    assert Cut(root, (root,)) in with_trivial[root]
    assert Cut(root, (root,)) not in without[root]


def test_max_cuts_per_node_truncates(medium_random_aig):
    cuts = enumerate_cut_lists(medium_random_aig, k=4, max_cuts_per_node=3)
    for var in medium_random_aig.and_vars():
        # +1 allows for the appended trivial cut.
        assert len(cuts[var]) <= 4


def test_merge_cuts_overflow_returns_none():
    """A fanin cut pair whose union has more than k leaves makes no row."""
    aig = Aig("wide")
    a, b, c, d = (aig.add_pi(n) for n in "abcd")
    root = aig.add_and(aig.add_and(aig.add_and(a, b), c), d)
    aig.add_po(root, "f")
    full = tuple(aig.pi_vars)
    assert full not in _row_tables(build_cut_arrays(aig, 3, 8), literal_var(root))
    assert full in _row_tables(build_cut_arrays(aig, 4, 8), literal_var(root))


def test_cut_dominates():
    """A leaf set holding a smaller leaf set of its node is pruned."""
    aig = Aig("dominated")
    a, b, c = (aig.add_pi(n) for n in "abc")
    x = aig.add_and(a, b)
    y = aig.add_and(x, c)
    root = aig.add_and(x, y)
    aig.add_po(root, "f")
    va, vb, vc, vx = (literal_var(lit) for lit in (a, b, c, x))
    # {a, b, c, x} is the union of two fanin cut pairs, and holds both
    # {a, b, c} and {c, x}.
    cuts = _row_tables(build_cut_arrays(aig, 4, 8), literal_var(root))
    assert (va, vb, vc, vx) not in cuts
    assert (va, vb, vc) in cuts and (vc, vx) in cuts
    oracle = enumerate_cut_lists(aig, k=4)[literal_var(root)]
    assert list(cuts) == [cut.leaves for cut in oracle]


def test_cut_truth_table_matches_cone(small_tree):
    aig, ab, cd, root = small_tree
    tables = _row_tables(build_cut_arrays(aig, 4, 8), root)
    assert tables[(ab, cd)] == 0b1000
    pis = tuple(aig.pi_vars)
    assert tables[pis] == cone_truth_table(aig, root * 2, pis)


def test_cut_volume(small_tree):
    aig, ab, cd, root = small_tree
    assert cut_volume(aig, Cut(root, (ab, cd))) == 1
    assert cut_volume(aig, Cut(root, tuple(aig.pi_vars))) == 3


def test_every_cut_is_a_valid_cut(medium_random_aig):
    """Every enumerated cut must actually separate its root from the PIs."""
    cuts = enumerate_cut_lists(medium_random_aig, k=4, max_cuts_per_node=5)
    for var in list(medium_random_aig.and_vars())[::17]:
        for cut in cuts[var]:
            if cut.leaves == (var,):
                continue
            # cone_truth_table traverses the cone and raises if a PI is
            # reachable without passing through a leaf.
            cone_truth_table(medium_random_aig, var * 2, cut.leaves)
