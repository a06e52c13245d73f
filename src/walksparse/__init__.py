"""Spectral sparsifiers of random-walk matrix polynomials.

For a weighted undirected graph G with adjacency A and degree matrix D,
the polynomial L_alpha(G) = D - sum_r alpha_r D (D^-1 A)^r is a Laplacian
whenever the nonnegative coefficients sum to one. This package builds
sparse spectral approximations of such matrices by sampling random walks
guided by effective-resistance upper bounds, composes them into
high-degree even monomials, extends the machinery to SDDM matrices, and
applies it to Newton-style inverse square-root chains and q-th-root steps.
A dense brute-force oracle backs every construction for verification.
"""

from .errors import (
    ConvergenceError,
    GraphFormatError,
    InputRefusedError,
    ValidationError,
    WalksparseError,
)
from .graph import (
    PolyCoeffs,
    SddmMatrix,
    WeightedGraph,
    load_graph,
    load_sddm,
    save_graph,
    save_sddm,
)
from .highdegree import DegreeSchedule, MonomialApprox, schedule, sparsify_high_degree
from .newton import FactorChain, inv_sqrt_chain, newton_sqrt_step, qth_root_coefficients
from .oracle import (
    SimilarityReport,
    dense_monomial,
    dense_poly,
    enumerate_paths,
    similarity_check,
    total_enumerated_mass,
)
from .resistance import ErOracle, er_oracle_build, estimate_er, resparsify
from .sampling import (
    PathBatch,
    RngStream,
    SamplerIndex,
    build_template,
    graph_sampling,
    sample_paths,
    sample_template_paths,
)
from .sddm import extra_diagonal, sparsify_sddm
from .sparsify import SparsifyConfig, sparsify_monomial, sparsify_poly

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegreeSchedule",
    "ErOracle",
    "FactorChain",
    "GraphFormatError",
    "InputRefusedError",
    "MonomialApprox",
    "PathBatch",
    "PolyCoeffs",
    "RngStream",
    "SamplerIndex",
    "SddmMatrix",
    "SimilarityReport",
    "SparsifyConfig",
    "ValidationError",
    "WalksparseError",
    "WeightedGraph",
    "build_template",
    "dense_monomial",
    "dense_poly",
    "enumerate_paths",
    "er_oracle_build",
    "estimate_er",
    "extra_diagonal",
    "graph_sampling",
    "inv_sqrt_chain",
    "load_graph",
    "load_sddm",
    "newton_sqrt_step",
    "qth_root_coefficients",
    "resparsify",
    "sample_paths",
    "sample_template_paths",
    "save_graph",
    "save_sddm",
    "schedule",
    "similarity_check",
    "sparsify_high_degree",
    "sparsify_monomial",
    "sparsify_poly",
    "sparsify_sddm",
    "total_enumerated_mass",
    "__version__",
]
