"""Exactness certification and solving for SDP relaxations of QCQPs.

The toolkit decides, from sparsity and sign structure alone, whether the
semidefinite relaxation of a nonconvex quadratically constrained quadratic
program is guaranteed to be exact, solves the relaxation with an embedded
interior-point method, and extracts the rank-1 optimizer when it exists.
"""

__version__ = "0.1.0"

from .certify import (
    CertificationReport,
    Verdict,
    certify,
    certify_bipartite,
    certify_forest,
    certify_sign_corollaries,
    certify_sojoudi,
)
from .graph import (
    BipartitionResult,
    CycleBasis,
    SparsityGraph,
    bipartition,
    build_graph,
    connected_components,
    cycle_basis,
    edge_signs,
    is_forest,
)
from .model import (
    GeneralQcqpInstance,
    InstanceError,
    QcqpInstance,
    dehomogenize,
    evaluate_quadratic,
    homogenize,
    load_instance,
    save_instance,
)
from .relaxation import (
    RelaxationResult,
    numerical_rank,
    solve_relaxation,
)
from .sdp import (
    DualSideEmpty,
    SolverStatus,
    max_min_eigen_combination,
    minimize_linear_functional_over_dual_cone,
    solve,
)
from .transform import (
    PerturbedInstance,
    TransformResult,
    build_connecting_perturbation,
    build_full_graph_perturbation,
    epsilon_sweep_validation,
    recover_from_transformed,
    sign_split_transform,
)

__all__ = [
    "BipartitionResult",
    "CertificationReport",
    "CycleBasis",
    "DualSideEmpty",
    "GeneralQcqpInstance",
    "InstanceError",
    "PerturbedInstance",
    "QcqpInstance",
    "RelaxationResult",
    "SolverStatus",
    "SparsityGraph",
    "TransformResult",
    "Verdict",
    "bipartition",
    "build_connecting_perturbation",
    "build_full_graph_perturbation",
    "build_graph",
    "certify",
    "certify_bipartite",
    "certify_forest",
    "certify_sign_corollaries",
    "certify_sojoudi",
    "connected_components",
    "cycle_basis",
    "dehomogenize",
    "edge_signs",
    "epsilon_sweep_validation",
    "evaluate_quadratic",
    "homogenize",
    "is_forest",
    "load_instance",
    "max_min_eigen_combination",
    "minimize_linear_functional_over_dual_cone",
    "numerical_rank",
    "recover_from_transformed",
    "save_instance",
    "sign_split_transform",
    "solve",
    "solve_relaxation",
]
