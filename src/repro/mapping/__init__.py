"""Technology mapping: Boolean matching, cut covering, netlists, post-mapping opt."""

from repro.mapping.mapper import (
    AliasChoice,
    CellChoice,
    ConstantChoice,
    MappingOptions,
    TechnologyMapper,
    map_aig,
)
from repro.mapping.netlist import MappedGate, MappedNetlist
from repro.mapping.postopt import PostMappingOptimizer, PostOptOptions, PostOptReport

__all__ = [
    "AliasChoice",
    "CellChoice",
    "ConstantChoice",
    "MappedGate",
    "MappedNetlist",
    "MappingOptions",
    "PostMappingOptimizer",
    "PostOptOptions",
    "PostOptReport",
    "TechnologyMapper",
    "map_aig",
]
