"""Tests for technology mapping: the oracle's matcher helpers, netlist, and the mapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import Aig
from repro.aig.random_graphs import random_aig
from repro.errors import MappingError
from repro.library.sky130_lite import load_sky130_lite
from repro.mapping.mapper import MappingOptions, TechnologyMapper, map_aig
from repro.mapping.netlist import MappedNetlist
from repro.mapping.simulate import check_mapping_equivalence, simulate_netlist
from repro.aig.simulate import exhaustive_pi_patterns, simulate_pos

from mapping_oracle import classify_single_input, reduce_to_support


class TestMatcherHelpers:
    def test_reduce_to_support_drops_unused_vars(self):
        from repro.aig.truth import var_truth

        # f(a, b, c) = a (b and c unused)
        table = var_truth(0, 3)
        reduced, sup = reduce_to_support(table, 3)
        assert sup == [0]
        assert reduced == 0b10

    def test_reduce_to_support_constant(self):
        assert reduce_to_support(0, 3) == (0, [])
        assert reduce_to_support(0xFF, 3) == (1, [])

    def test_reduce_keeps_full_support(self):
        from repro.aig.truth import var_truth

        table = var_truth(0, 2) & var_truth(1, 2)
        reduced, sup = reduce_to_support(table, 2)
        assert sup == [0, 1]
        assert reduced == table

    def test_classify_single_input(self):
        assert classify_single_input(0b10) is False  # buffer
        assert classify_single_input(0b01) is True  # inverter
        with pytest.raises(MappingError):
            classify_single_input(0b11)


class TestMappedNetlist:
    def test_gate_arity_checked(self, library):
        netlist = MappedNetlist("t", ["a", "b"], ["f"])
        nand2 = library.cell("NAND2_X1")
        with pytest.raises(MappingError):
            netlist.add_gate(nand2, [netlist.pi_nets[0]])

    def test_undefined_net_rejected(self, library):
        netlist = MappedNetlist("t", ["a"], ["f"])
        inv = library.cell("INV_X1")
        with pytest.raises(MappingError):
            netlist.add_gate(inv, [999])

    def test_unconnected_po_fails_validation(self, library):
        netlist = MappedNetlist("t", ["a"], ["f"])
        with pytest.raises(MappingError):
            netlist.validate()

    def test_constant_net_reuse(self, library):
        netlist = MappedNetlist("t", ["a"], ["f"])
        first = netlist.add_constant_net(1)
        second = netlist.add_constant_net(1)
        assert first == second
        assert netlist.add_constant_net(0) != first

    def test_area_and_histogram(self, adder_aig, library):
        netlist = map_aig(adder_aig, library)
        histogram = netlist.cell_histogram()
        assert sum(histogram.values()) == netlist.num_gates
        expected_area = sum(
            library.cell(name).area_um2 * count for name, count in histogram.items()
        )
        assert netlist.area_um2() == pytest.approx(expected_area)

    def test_fanout_counts(self, adder_aig, library):
        netlist = map_aig(adder_aig, library)
        counts = netlist.net_fanout_counts()
        for net in netlist.po_nets:
            assert counts[net] >= 1


class TestMapper:
    def test_maps_tiny_design(self, tiny_aig, library):
        netlist = map_aig(tiny_aig, library)
        netlist.validate()
        assert netlist.num_gates >= 1
        assert check_mapping_equivalence(tiny_aig, netlist)

    def test_maps_adder_correctly(self, adder_aig, library):
        netlist = map_aig(adder_aig, library)
        assert check_mapping_equivalence(adder_aig, netlist)

    def test_maps_multiplier_correctly(self, mult_aig, library):
        netlist = map_aig(mult_aig, library)
        assert check_mapping_equivalence(mult_aig, netlist)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_maps_random_graphs_correctly(self, seed, library):
        aig = random_aig(10, 4, 150, rng=seed)
        netlist = map_aig(aig, library)
        assert check_mapping_equivalence(aig, netlist)

    def test_area_mode_not_larger_than_delay_mode(self, mult_aig, library):
        delay_net = map_aig(mult_aig, library, MappingOptions(mode="delay"))
        area_net = map_aig(mult_aig, library, MappingOptions(mode="area"))
        assert area_net.area_um2() <= delay_net.area_um2() * 1.05

    def test_mapping_merges_nodes_into_cells(self, mult_aig, library):
        netlist = map_aig(mult_aig, library)
        # Multi-input cells mean far fewer gates than AND nodes.
        assert netlist.num_gates < mult_aig.num_ands

    def test_constant_output(self, library):
        aig = Aig("const")
        aig.add_pi("a")
        aig.add_po(0, "zero")
        aig.add_po(1, "one")
        netlist = map_aig(aig, library)
        netlist.validate()
        values = simulate_netlist(netlist, [0b10], 2)
        assert values[0] == 0
        assert values[1] == 0b11

    def test_po_driven_by_pi(self, library):
        aig = Aig("wire")
        a = aig.add_pi("a")
        aig.add_po(a, "f")
        aig.add_po(a ^ 1, "g")
        netlist = map_aig(aig, library)
        patterns = exhaustive_pi_patterns(1)
        assert simulate_netlist(netlist, patterns, 2) == simulate_pos(aig, patterns, 2)

    def test_invalid_mode_rejected(self):
        with pytest.raises(MappingError):
            MappingOptions(mode="fastest")

    def test_invalid_cut_size_rejected(self):
        with pytest.raises(MappingError):
            MappingOptions(cut_size=1)

    def test_mapper_reuse_across_designs(self, library, tiny_aig, adder_aig):
        mapper = TechnologyMapper(library)
        for aig in (tiny_aig, adder_aig):
            assert check_mapping_equivalence(aig, mapper.map(aig))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_mapping_preserves_function_property(seed):
    """Property: mapping any random AIG yields a functionally equivalent netlist."""
    library = load_sky130_lite()
    aig = random_aig(8, 3, 100, rng=seed)
    netlist = map_aig(aig, library)
    assert check_mapping_equivalence(aig, netlist)
