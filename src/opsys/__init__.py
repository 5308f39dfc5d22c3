"""Quantum cliques and anticliques of operator systems.

An operator system is a subspace of M_n containing the identity and closed
under adjoints.  A rank-k projection P is a quantum k-clique when the
compression P·V·P has the full dimension k², and a quantum k-anticlique when
the compression is scalar.  This package provides the certified linear
algebra, the explicit constructions, the clique-or-anticlique dichotomy
search, and the generalization to operator systems over block *-algebras,
plus a CLI (``opsys``) for generation, search, verification, and batch
experiments.
"""

from .constructions import (
    BlockHypothesisInput,
    DiagonalCliqueResult,
    SimpleGraph,
    anticlique_lowdim,
    blocks2_clique,
    blocks_clique,
    diagonal_clique,
    diagonal_clique_projection,
    diagonal_system,
    gramian_completion,
    graph_operator_system,
    rank1_spanning_vectors,
    rank2_separator,
    rowcolumn_system,
    threedim_clique,
    two_clique,
)
from .errors import SearchBudgetError
from .linalg import (
    DEFAULT_TOL,
    Projection,
    Tolerance,
    hermitian_split,
    hs_inner,
    hs_norm,
    numerical_rank,
    projection_from_vectors,
    span_orthonormalize,
)
from .quantum_graphs import (
    MatrixAlgebra,
    QuantumGraph,
    block_restriction,
    classical_ramsey_extract,
    commutant,
    general_find,
    generalized_certify,
    is_bimodule,
    tensor_factor,
)
from .ramsey import (
    SearchParams,
    diagonal_route,
    find_clique_or_anticlique,
    phase1_vector_search,
    phase2_chain,
)
from .systems import (
    Certificate,
    Kind,
    OperatorSystem,
    certify,
    compress_system,
    derive_rng,
    derive_seed,
    from_span,
    haar_unitary,
    hermitian_basis,
    orbit_dim,
    random_diagonal_system,
    random_hermitian,
    random_projection,
    random_system,
)

__version__ = "0.1.0"

__all__ = [
    "BlockHypothesisInput",
    "Certificate",
    "DEFAULT_TOL",
    "DiagonalCliqueResult",
    "Kind",
    "MatrixAlgebra",
    "OperatorSystem",
    "Projection",
    "QuantumGraph",
    "SearchBudgetError",
    "SearchParams",
    "SimpleGraph",
    "Tolerance",
    "anticlique_lowdim",
    "block_restriction",
    "blocks2_clique",
    "blocks_clique",
    "certify",
    "classical_ramsey_extract",
    "commutant",
    "compress_system",
    "derive_rng",
    "derive_seed",
    "diagonal_clique",
    "diagonal_clique_projection",
    "diagonal_route",
    "diagonal_system",
    "find_clique_or_anticlique",
    "from_span",
    "general_find",
    "generalized_certify",
    "gramian_completion",
    "graph_operator_system",
    "haar_unitary",
    "hermitian_basis",
    "hs_inner",
    "hs_norm",
    "is_bimodule",
    "numerical_rank",
    "orbit_dim",
    "phase1_vector_search",
    "phase2_chain",
    "projection_from_vectors",
    "random_diagonal_system",
    "random_hermitian",
    "random_projection",
    "random_system",
    "rank1_spanning_vectors",
    "rank2_separator",
    "rowcolumn_system",
    "span_orthonormalize",
    "tensor_factor",
    "threedim_clique",
    "two_clique",
]
