"""Synthetic benchmark designs standing in for the paper's IWLS suite."""

from repro.designs.arithmetic import (
    array_multiplier,
    equality,
    full_adder,
    less_than,
    ripple_adder,
    ripple_subtractor,
)
from repro.designs.control import (
    decoder,
    mux_tree,
    parity_tree,
    popcount,
    priority_encoder,
)
from repro.designs.generators import (
    DesignSpec,
    adder_design,
    build_from_spec,
    multiplier_design,
)
from repro.designs.random_logic import grow_to_target, mixing_layer
from repro.designs.registry import (
    ALL_DESIGNS,
    DESIGN_SPECS,
    TEST_DESIGNS,
    TRAIN_DESIGNS,
    build_design,
    clear_design_cache,
    design_names,
    design_spec,
)

__all__ = [
    "ALL_DESIGNS",
    "DESIGN_SPECS",
    "DesignSpec",
    "TEST_DESIGNS",
    "TRAIN_DESIGNS",
    "adder_design",
    "array_multiplier",
    "build_design",
    "build_from_spec",
    "clear_design_cache",
    "decoder",
    "design_names",
    "design_spec",
    "equality",
    "full_adder",
    "grow_to_target",
    "less_than",
    "mixing_layer",
    "multiplier_design",
    "mux_tree",
    "parity_tree",
    "popcount",
    "priority_encoder",
    "ripple_adder",
    "ripple_subtractor",
]
