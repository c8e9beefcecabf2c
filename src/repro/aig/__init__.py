"""And-Inverter Graph core: data structure, analysis, simulation, cuts."""

from repro.aig.analysis import (
    DepthReport,
    count_paths_per_po,
    critical_path_nodes,
    po_depths,
    structural_summary,
    transitive_fanout,
    weighted_po_depths,
)
from repro.aig.equivalence import (
    EquivalenceResult,
    check_equivalence,
    check_equivalence_exact,
    check_equivalence_random,
)
from repro.aig.graph import Aig, AigStats
from repro.aig.journal import node_hashes, node_hashes_cached
from repro.aig.literals import (
    CONST0,
    CONST1,
    is_complemented,
    literal_var,
    make_literal,
    negate,
    negate_if,
)
from repro.aig.random_graphs import random_aig, random_cone_aig
from repro.aig.simulate import (
    cone_truth_table,
    exhaustive_pi_patterns,
    node_signatures,
    po_truth_tables,
    random_pi_patterns,
    simulate,
    simulate_pos,
)

__all__ = [
    "Aig",
    "AigStats",
    "DepthReport",
    "EquivalenceResult",
    "CONST0",
    "CONST1",
    "check_equivalence",
    "check_equivalence_exact",
    "check_equivalence_random",
    "cone_truth_table",
    "count_paths_per_po",
    "critical_path_nodes",
    "exhaustive_pi_patterns",
    "is_complemented",
    "literal_var",
    "make_literal",
    "negate",
    "negate_if",
    "node_hashes",
    "node_hashes_cached",
    "node_signatures",
    "po_depths",
    "transitive_fanout",
    "po_truth_tables",
    "random_aig",
    "random_cone_aig",
    "random_pi_patterns",
    "simulate",
    "simulate_pos",
    "structural_summary",
    "weighted_po_depths",
]
