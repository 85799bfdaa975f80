"""Normal forms, Groebner bases, and Graver bases of toric ideals of sparse
integer matrices, computed through join-tree dynamic programming on
elimination orderings of the matrix's column graph."""

from .core import (
    Binomial,
    DimensionMismatch,
    MonomialOrder,
    SparseIntMatrix,
    ToricError,
    ideal_membership,
    matrix_from_text,
    matrix_to_text,
    weight_vector,
)
from .graphs import (
    EliminationStructure,
    Graph,
    column_graph,
    eliminate,
    heuristic_ordering,
    min_degree_ordering,
    min_fill_ordering,
    row_graph,
    treedepth_estimate,
    treewidth_estimate,
)
from .lattice import (
    BoundExceeded,
    BudgetExceeded,
    KernelLattice,
    build_lattice,
    build_truncated_lattice,
    graver_infinity_bound,
)
from .normalform import (
    NormalFormResult,
    is_standard,
    normal_form_bounded,
    polynomial_normal_form,
    reduce_by_basis,
)
from .bases import (
    BasisReport,
    graver_basis,
    in_graver,
    in_reduced_gb,
    reduced_groebner_basis,
)
from .reductions import (
    InfeasibleError,
    IntegerProgram,
    NoBoxError,
    NormalFormReduction,
    ip_to_normalform,
    normalform_to_ip,
    solve_ip,
    solve_ip_via_normal_form,
    vertex_cover_ip,
)

__all__ = [
    "Binomial",
    "BasisReport",
    "BoundExceeded",
    "BudgetExceeded",
    "DimensionMismatch",
    "EliminationStructure",
    "Graph",
    "InfeasibleError",
    "IntegerProgram",
    "KernelLattice",
    "MonomialOrder",
    "NoBoxError",
    "NormalFormReduction",
    "NormalFormResult",
    "SparseIntMatrix",
    "ToricError",
    "build_lattice",
    "build_truncated_lattice",
    "column_graph",
    "eliminate",
    "graver_basis",
    "graver_infinity_bound",
    "heuristic_ordering",
    "ideal_membership",
    "in_graver",
    "in_reduced_gb",
    "ip_to_normalform",
    "is_standard",
    "matrix_from_text",
    "matrix_to_text",
    "min_degree_ordering",
    "min_fill_ordering",
    "normal_form_bounded",
    "normalform_to_ip",
    "polynomial_normal_form",
    "reduce_by_basis",
    "reduced_groebner_basis",
    "row_graph",
    "solve_ip",
    "solve_ip_via_normal_form",
    "treedepth_estimate",
    "treewidth_estimate",
    "vertex_cover_ip",
    "weight_vector",
]

__version__ = "0.1.0"
