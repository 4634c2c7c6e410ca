"""Chordal d-clutters, exposed-circuit erasures, linear quotients, and Betti numbers."""

from .clutter import Clutter, ExposedStatus, all_d_subsets
from .simplicial import SimplicialComplex, alexander_dual
from .homology import (
    BettiTable,
    hochster_betti_table,
    is_connected_graph_algebraic,
    reduced_homology_dims,
)
from .ideals import (
    LinearDivisorResult,
    QuotientOrderReport,
    SquarefreeIdeal,
    SquarefreeMonomial,
    colon_by_monomial,
    find_quotient_order,
    ideal_of_clutter,
    is_linear_divisor,
    monomial,
    verify_quotient_order,
)
from .erasures import (
    ErasureCertificate,
    RemovalStep,
    betti_from_erasures,
    erasure_reachable_set,
    find_erasure_sequence,
    h_vector_check,
    is_ridge_chordal,
    replay_erasure_sequence,
)
from .shelling import (
    ExtendabilityResult,
    ShellingOrder,
    ShellingReport,
    check_contractible_extendable,
    erasures_to_shelling,
    is_extendably_shellable,
    shelling_to_erasures,
    skeleton_complex,
    verify_shelling,
)
from .graphs import (
    EliminationOrdering,
    Polynomial,
    WeightedGraph,
    chromatic_polynomial_dc,
    chromatic_polynomial_product,
    enumerate_chordal_graphs,
    graph_connected,
    is_chordal_classic,
    kruskal_mst,
    mst_by_erasures,
    perfect_elimination_ordering,
    properly_exposed_subgraph,
    random_connected_chordal,
)

__version__ = "0.1.0"
