"""Structure-altering reformulations of a QCQP.

Two constructions live here:

* sign splitting — a QCQP whose edges are all sign-definite is rewritten
  over (x, z) with z = -x so that every off-diagonal entry of the data
  becomes nonnegative; negative couplings move to the (x, z) blocks and
  the coupling z = -x is enforced by the constraint ||x + z||^2 <= 0.
  Odd cycles built from an even number of negative edges disappear in the
  doubled graph, which is then bipartite.

* Laplacian perturbations — the objective is shifted to Q0 + eps*P with P
  the negative Laplacian of either a connecting edge set (to merge the
  components of a disconnected sparsity graph) or of the whole graph (to
  push every edge entry of the dual slack strictly positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import certify
from .graph import Edge, SparsityGraph, build_graph, connected_components, edge_signs
from .model import InstanceError, QcqpInstance, check_homogeneous
from .relaxation import solve_relaxation
from .sdp import check_positive_finite


@dataclass(frozen=True)
class TransformResult:
    transformed: QcqpInstance  # 2n variables, m + 1 constraints
    delta: float
    n_original: int

    @property
    def coupling_index(self) -> int:
        """0-based index of the ||x + z||^2 <= 0 constraint."""
        return self.transformed.m - 1


@dataclass(frozen=True)
class PerturbedInstance:
    instance: QcqpInstance
    epsilon: float
    P: np.ndarray  # negative Laplacian
    F: frozenset[Edge]  # connecting edges (empty for the full-graph variant)


def sign_split_transform(inst: QcqpInstance, delta: float = 1.0) -> TransformResult:
    """Split each Qp by entry sign into the doubled-variable form.

    Qp = Dp + 2Np_plus - 2Np_minus with Dp_ii = Qp_ii + 2*delta, the
    positive off-diagonals in Np_plus, the magnitudes of the negative ones
    in Np_minus, and delta on the diagonal of Np_minus.  The transformed
    matrix is [Dp + 2Np_plus, Np_minus; Np_minus, O]; substituting
    z = -x reproduces x^T Qp x identically (the delta terms cancel).

    Requires every edge to be sign-definite: a mixed-sign edge would put
    entries in both the plus and minus blocks and the doubled graph would
    pick up an odd triangle, defeating the purpose.
    """
    check_homogeneous(inst, "transform")
    check_positive_finite(delta, "delta")
    graph = build_graph(inst)
    signs = edge_signs(inst, graph)
    for edge, sigma in sorted(signs.items()):
        if sigma == 0:
            i, j = edge
            raise InstanceError(
                f"edge ({i + 1}, {j + 1}) is not sign-definite; "
                "the sign-splitting transformation is undefined for it"
            )
    n = inst.n

    def doubled(Q: np.ndarray) -> np.ndarray:
        D = np.diag(np.diag(Q) + 2.0 * delta)
        off = Q - np.diag(np.diag(Q))
        Nplus2 = np.where(off > 0, off, 0.0)
        Nminus = 0.5 * np.where(off < 0, -off, 0.0) + delta * np.eye(n)
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = D + Nplus2
        out[:n, n:] = Nminus
        out[n:, :n] = Nminus
        return out

    coupling = np.tile(np.eye(n), (2, 2))
    mats = [doubled(Q) for Q in inst.constraint_matrices]
    mats.append(coupling)
    return TransformResult(
        transformed=QcqpInstance(
            objective=doubled(inst.objective),
            constraint_matrices=tuple(mats),
            rhs=np.concatenate([inst.rhs, [0.0]]),
        ),
        delta=delta,
        n_original=n,
    )


def recover_from_transformed(x_tilde: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Return x from a doubled solution (x, z), checking z = -x."""
    x_tilde = np.asarray(x_tilde, dtype=float)
    if len(x_tilde) % 2:
        raise InstanceError("expected a vector of even length 2n")
    n = len(x_tilde) // 2
    x, z = x_tilde[:n], x_tilde[n:]
    # written as not (<=) so that a NaN anywhere fails the check
    if not np.linalg.norm(x + z) <= tol * (1.0 + np.linalg.norm(x)):
        raise InstanceError("coupling violated: second half is not -x")
    return x


def _negative_laplacian(n: int, edges) -> np.ndarray:
    P = np.zeros((n, n))
    for i, j in edges:
        P[i, i] -= 1.0
        P[j, j] -= 1.0
        P[i, j] += 1.0
        P[j, i] += 1.0
    return P


def _perturb(inst: QcqpInstance, epsilon: float, P: np.ndarray, F) -> PerturbedInstance:
    return PerturbedInstance(
        instance=QcqpInstance(
            objective=inst.objective + epsilon * P,
            constraint_matrices=inst.constraint_matrices,
            rhs=inst.rhs,
        ),
        epsilon=epsilon,
        P=P,
        F=frozenset(F),
    )


def build_connecting_perturbation(inst: QcqpInstance, epsilon: float) -> PerturbedInstance:
    """Objective Q0 + eps*P with P the negative Laplacian of a connecting path.

    The path runs over one representative per connected component (the
    smallest vertex of each, components ordered by smallest vertex), so the
    perturbed sparsity graph is connected; joining bipartite components by
    a path keeps the union bipartite.
    """
    check_homogeneous(inst, "transform")
    check_positive_finite(epsilon, "epsilon")
    graph = build_graph(inst)
    comps = connected_components(graph)
    if len(comps) < 2:
        raise InstanceError("graph is already connected; nothing to connect")
    reps = [min(comp) for comp in comps]
    F = [(reps[i], reps[i + 1]) for i in range(len(reps) - 1)]
    return _perturb(inst, epsilon, _negative_laplacian(inst.n, F), F)


def build_full_graph_perturbation(inst: QcqpInstance, epsilon: float) -> PerturbedInstance:
    """Objective Q0 + eps*P with P the negative Laplacian of the whole graph.

    Every existing edge entry of the objective moves by +eps while the
    sparsity pattern is unchanged.
    """
    check_homogeneous(inst, "transform")
    check_positive_finite(epsilon, "epsilon")
    graph = build_graph(inst)
    if not graph.edges:
        raise InstanceError("no edges to perturb")
    return _perturb(inst, epsilon, _negative_laplacian(inst.n, graph.sorted_edges[0]), [])


#: perturbation mode name -> builder, for the sweep and `biparsdp transform --mode`
PERTURBATIONS = {
    "connect": build_connecting_perturbation,
    "full-laplacian": build_full_graph_perturbation,
}


def epsilon_sweep_validation(
    inst: QcqpInstance,
    eps_sequence,
    mode: str = "connect",
    tol: float = 1e-8,
) -> list[tuple[float, str, float]]:
    """Certify and solve the perturbed instance along a decreasing eps path.

    Empirical harness: as eps shrinks, the perturbed optimal values should
    approach the unperturbed one while each perturbed relaxation stays
    exact.  Returns (eps, verdict, primal_value) per step.  This validates
    the limiting argument behind the disconnected-graph condition; actual
    certification of such instances goes through the per-edge systems
    directly.  tol is the solver tolerance of both solves; certify keeps
    its own, looser, mu-positivity threshold.
    """
    eps_sequence = [float(e) for e in eps_sequence]
    for eps in eps_sequence:
        check_positive_finite(eps, "eps_sequence entry")
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps_sequence must be strictly decreasing")
    if mode not in PERTURBATIONS:
        raise ValueError("mode must be 'connect' or 'full-laplacian'")
    out = []
    for eps in eps_sequence:
        perturbed = PERTURBATIONS[mode](inst, eps).instance
        report = certify(perturbed, solver_tol=tol)
        res = solve_relaxation(perturbed, tol=tol)
        out.append((eps, report.verdict.value, res.primal_value))
    return out
