"""A-priori exactness certification for the semidefinite relaxation.

Each rule here proves, from the structure of the data alone, that the
relaxation of a QCQP must have a rank-1 optimal solution:

* sign corollaries — all off-diagonals nonpositive (any graph), or the
  graph is bipartite with all off-diagonals nonnegative;
* the edge-sign cycle condition — every edge sign-definite and every
  cycle's sign product equal to (-1)^length, decided by one signed
  2-coloring (`graph.bipartition` with the edge signs);
* per-edge feasibility systems — for forests, no dual-feasible y makes
  S(y)_{kl} = 0; for bipartite graphs, none makes S(y)_{kl} <= 0.  Both
  reduce to optimizing S(y)_{kl} over the dual feasible set, the dual of a
  small relaxation: `sdp.optimize_linear_functionals_over_dual_cone`
  answers every edge of an instance at once, from the box corner, one
  stacked y-space path resumed through sqrt(tol) to tol and, for the rows
  its point at tol leaves, the polish of its point at sqrt(tol), each of
  its answers resting on a checked primal point, or, for what those
  leave, the conic engine.

The paper's sign-split reduction (`transform.sign_split_transform`) is not
run.  Its doubled graph is bipartite exactly when the cycle condition
holds, so it certifies nothing the cycle condition rejects; the tests
`test_cycle_condition_implies_bipartite_transform` and
`test_odd_transformed_cycle_implies_violated_condition` check both
directions.

The sign rules are primal (x_i = s_i sqrt(X_ii) for a feasible X); their
report carries the vertex signs s, s_k s_l = -sigma_kl on every edge.  The
edge systems need the relaxation and its dual to behave (attained optima,
bounded solution sets), which the data cannot decide in general; so the
pipeline checks that some nonnegative combination of the constraint
matrices is positive definite, and refuses to certify when it cannot.  Every
candidate combination is judged by one rule, a certified lower bound on its
smallest eigenvalue.  A single constraint matrix, or their mean, usually
passes; an SDP proposes a combination only when those fail.

`certify` runs the rules from cheapest to most expensive and stops at the
first one that fires; everything evaluated along the way is kept in the
report.  When no rule applies it falls back to solving the relaxation and
reporting the observed rank, which is evidence, not a certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import (
    BipartitionResult,
    Edge,
    bipartition,
    build_graph,
    connected_components,
    edge_signs,
    is_forest,
)
from .model import QcqpInstance, check_homogeneous
from .relaxation import DEFAULT_RANK_TOL, check_rank_tol, solve_relaxation
from .sdp import (
    DEFAULT_TOL,
    DualSideEmpty,
    check_positive_finite,
    check_solver_tol,
    eigvalsh_margin,
    max_min_eigen_combination,
    optimize_linear_functionals_over_dual_cone,
)

#: looser than the solver tolerance so solver noise cannot flip a verdict
MU_POSITIVITY_TOL = 1e-6

DEFAULT_Y_CAP = 1e6


class Verdict(enum.Enum):
    CERTIFIED_EXACT = "CertifiedExact"
    NOT_CERTIFIED = "NotCertified"
    NUMERICALLY_EXACT_ONLY = "NumericallyExactOnly"
    INEXACT_OBSERVED = "InexactObserved"


@dataclass
class EdgeSystemResult:
    mu_min: float | None = None
    min_attained: bool | None = None
    mu_max: float | None = None
    max_attained: bool | None = None
    infeasible: bool = False  # the certification system for this edge


@dataclass
class AssumptionCheck:
    """Whether some y >= 0, sum y_p = 1 has sum y_p Qp >= t*I with t* > tol.

    t_star is set exactly when the assumption holds: it is then a certified
    lower bound on t*, the smallest eigenvalue of the proving combination
    less its rounding margin.  Otherwise t_star is None.
    """

    t_star: float | None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.t_star is not None


@dataclass
class CertificationReport:
    verdict: Verdict
    applied_rule: str | None = None
    assumption_check: AssumptionCheck | None = None
    per_edge: dict[Edge, EdgeSystemResult] = field(default_factory=dict)
    sign_summary: dict[Edge, int] = field(default_factory=dict)
    vertex_signs: tuple[int, ...] | None = None  # rules 1-2: s_k s_l = -sigma_kl
    notes: list[str] = field(default_factory=list)


def _cheap_candidates(mats):
    """(sum_p y_p Qp, sum_p y_p |Qp|) for y = e_1 .. e_m, then the uniform y = 1/m."""
    for Q in mats:
        yield Q, np.abs(Q)
    yield sum(mats) / len(mats), sum(map(np.abs, mats)) / len(mats)


def _candidates(inst: QcqpInstance, tol: float):
    """The cheap candidates, then y = y_bar / sum y_bar from the assumption
    SDP, which is solved only when every cheap candidate has failed.  Its box
    y <= 1/tol holds y_bar, with sum y_bar_p Qp >= I, whenever t* > tol.
    The SDP only proposes y_bar, which the eigenvalue bound then proves or
    rejects, so it is solved at DEFAULT_TOL whatever the solver tolerance of
    the edge systems: a tighter target adds no proof, only a chance of a
    solver breakdown."""
    mats = inst.constraint_matrices
    yield from _cheap_candidates(mats)
    _, y_bar = max_min_eigen_combination(inst, y_cap=1.0 / tol, tol=DEFAULT_TOL)
    y = y_bar / y_bar.sum()
    yield sum(yp * Q for yp, Q in zip(y, mats)), sum(yp * np.abs(Q) for yp, Q in zip(y, mats))


def _check_assumption(inst: QcqpInstance, tol: float) -> AssumptionCheck:
    """Sufficient condition: some y >= 0, sum y_p = 1 has sum y_p Qp >= t*I, t* > tol.

    Every candidate y (each e_p, the uniform mix, then the SDP's) faces the
    same test: the smallest eigenvalue of sum y_p Qp, less the rounding
    margin, is a lower bound on t*, and the first bound above tol proves the
    assumption and is reported as t_star.  The SDP only proposes its y; its
    own value of t* proves nothing.
    """
    # rounding in forming S = sum_p y_p Qp (sum y_p = 1) and in eigvalsh(S)
    # moves lambda_min(S) by a small multiple of (n + m) eps
    # ||sum_p y_p |Qp| ||_inf, a norm that bounds ||S||_2
    try:
        for S, magnitude in _candidates(inst, tol):
            bound = np.linalg.eigvalsh(S)[0] - eigvalsh_margin(inst.n + inst.m, magnitude)
            if bound > tol:
                return AssumptionCheck(float(bound))
    except DualSideEmpty:
        pass
    except RuntimeError as exc:
        return AssumptionCheck(None, f"assumption check failed to solve: {exc}")
    return AssumptionCheck(
        None,
        "assumption unverified: no strictly positive-definite nonnegative "
        "combination of constraint matrices found",
    )


def _check_tolerances(tol: float, y_cap: float, solver_tol: float) -> None:
    """tol <= 0 would accept mu* <= 0 and t* <= 0 as proofs, and tol = inf
    leaves the assumption check the box y <= 1/tol = 0; y_cap <= 0 is an
    empty box, and y_cap = inf counts every minimum as attained; a
    solver_tol the engine cannot meet, or one so loose that a
    half-converged SDP counts as solved, would decide the edges on noise."""
    check_positive_finite(tol, "tol")
    check_positive_finite(y_cap, "y_cap")
    check_solver_tol(solver_tol, "solver_tol")


class _Structure:
    """What every rule reads, built once per call of `certify` or a rule.

    Graph and edge signs are built eagerly; the bipartition and the
    assumption check only when a rule first asks.
    """

    def __init__(
        self,
        inst: QcqpInstance,
        tol: float = MU_POSITIVITY_TOL,
        y_cap: float = DEFAULT_Y_CAP,
        solver_tol: float = DEFAULT_TOL,
    ):
        check_homogeneous(inst, "certify")
        _check_tolerances(tol, y_cap, solver_tol)
        self.inst = inst
        self.tol, self.y_cap, self.solver_tol = tol, y_cap, solver_tol
        self.graph = build_graph(inst)
        self.signs = edge_signs(inst, self.graph)

    @cached_property
    def bip(self) -> BipartitionResult:
        return bipartition(self.graph)

    @property
    def forest(self) -> bool:
        return is_forest(self.graph)

    @cached_property
    def assumption(self) -> AssumptionCheck:
        return _check_assumption(self.inst, self.tol)


def _refutes(mu: float, attained: bool, tol: float) -> bool:
    """An edge system is infeasible when its attained minimum clears tol."""
    return bool(mu > tol and attained)


def _edge_systems(st: _Structure, want_max: bool) -> CertificationReport:
    """Per-edge systems: S(y)_{kl} = 0 on forests (want_max), <= 0 on bipartite graphs."""
    report = CertificationReport(verdict=Verdict.NOT_CERTIFIED, sign_summary=st.signs)
    if want_max:
        if not st.forest:
            report.notes.append("graph has cycles; the forest rule does not apply")
            return report
        rule = "forest-edge-systems"
    else:
        if not st.bip.bipartite:
            report.notes.append(
                "graph is not bipartite (odd closed walk "
                f"{tuple(v + 1 for v in st.bip.witness)})"
            )
            return report
        rule = (
            "connected-bipartite-edge-systems"
            if len(connected_components(st.graph)) <= 1
            else "disconnected-bipartite-edge-systems"
        )
    report.assumption_check = st.assumption
    # one call for every edge's minimum, then (forests) its maximum
    edges = st.graph.sorted_edges[0]
    sides = (False, True) if want_max else (False,)
    targets = [(k, ell, maximize) for k, ell in edges for maximize in sides]
    try:
        values = iter(optimize_linear_functionals_over_dual_cone(
            st.inst, targets, y_cap=st.y_cap, tol=st.solver_tol
        ))
    except DualSideEmpty as exc:
        report.notes.append(f"edge systems unavailable: {exc}")
        return report
    except RuntimeError as exc:
        report.notes.append(f"edge-system solver failure: {exc}")
        return report
    all_pass = True
    for edge in edges:
        res = report.per_edge[edge] = EdgeSystemResult()
        res.mu_min, res.min_attained, _ = next(values)
        if want_max:
            res.mu_max, res.max_attained, _ = next(values)
        res.infeasible = _refutes(res.mu_min, res.min_attained, st.tol) or (
            want_max and _refutes(-res.mu_max, res.max_attained, st.tol)
        )
        if not res.infeasible:
            all_pass = False
            if not want_max and not res.min_attained:
                report.notes.append(
                    f"edge {tuple(v + 1 for v in edge)}: minimum hit the "
                    f"y <= {st.y_cap:g} box; treating as unresolved"
                )
    if all_pass and report.assumption_check.holds:
        report.verdict = Verdict.CERTIFIED_EXACT
        report.applied_rule = rule
    elif all_pass:
        report.notes.append(report.assumption_check.note)
    return report


def certify_bipartite(
    inst: QcqpInstance,
    tol: float = MU_POSITIVITY_TOL,
    y_cap: float = DEFAULT_Y_CAP,
    solver_tol: float = DEFAULT_TOL,
) -> CertificationReport:
    """Certify through per-edge systems {y >= 0, S(y) PSD, S(y)_{kl} <= 0}.

    All edges' systems infeasible (mu* > tol, attained) plus a verified
    assumption give CertifiedExact.  Connectivity only selects the name of
    the applied rule: the disconnected case is covered by the same per-edge
    systems through a vanishing Laplacian perturbation argument.
    """
    return _edge_systems(_Structure(inst, tol, y_cap, solver_tol), want_max=False)


def certify_forest(
    inst: QcqpInstance,
    tol: float = MU_POSITIVITY_TOL,
    y_cap: float = DEFAULT_Y_CAP,
    solver_tol: float = DEFAULT_TOL,
) -> CertificationReport:
    """Certify through per-edge systems {y >= 0, S(y) PSD, S(y)_{kl} = 0}.

    On a forest the system for edge (k, l) is infeasible iff 0 lies outside
    [mu_min, mu_max], the (convex) range of S(y)_{kl} over the dual feasible
    set.  Both endpoints are computed; a box-limited endpoint on the side
    that would exclude zero leaves the edge unresolved.
    """
    return _edge_systems(_Structure(inst, tol, y_cap, solver_tol), want_max=True)


def _vertex_signs(parts: tuple[frozenset[int], frozenset[int]]) -> tuple[int, ...]:
    """+1 on the left part, -1 on the right."""
    left, right = parts
    return tuple(1 if i in left else -1 for i in range(len(left) + len(right)))


def _sojoudi(st: _Structure) -> CertificationReport:
    signs = st.signs
    report = CertificationReport(verdict=Verdict.NOT_CERTIFIED, sign_summary=signs)
    mixed = sorted(e for e, s in signs.items() if s == 0)
    if mixed:
        report.notes.append(
            "mixed-sign edges (sigma = 0): "
            + ", ".join(str(tuple(v + 1 for v in e)) for e in mixed)
        )
        return report
    coloring = bipartition(st.graph, signs)
    if not coloring.bipartite:
        cyc = coloring.witness
        product = np.prod([signs[min(a, b), max(a, b)] for a, b in zip(cyc, cyc[1:])])
        report.notes.append(
            f"cycle {tuple(v + 1 for v in cyc)} of length {len(cyc) - 1} has "
            f"sign product {product}, expected {(-1) ** (len(cyc) - 1)}"
        )
        return report
    report.verdict = Verdict.CERTIFIED_EXACT
    report.applied_rule = "edge-sign-cycle-condition"
    report.vertex_signs = _vertex_signs(coloring.parts)
    # shortcut cases, for the record; with all signs +1 the coloring is a bipartition
    if st.forest:
        report.notes.append("shortcut: forest with sign-definite edges")
    if signs and all(s == 1 for s in signs.values()):
        report.notes.append("shortcut: bipartite with all edge signs +1")
    if signs and all(s == -1 for s in signs.values()):
        report.notes.append("shortcut: all edge signs -1")
    return report


def certify_sojoudi(inst: QcqpInstance) -> CertificationReport:
    """Purely sign-based certificate: sign-definite edges, matching cycles.

    Certifies when every edge sign is nonzero and every cycle has sign
    product (-1)^length: one signed 2-coloring finds vertex signs s with
    s_k s_l = -sigma_kl, reported as `vertex_signs`, or one cycle of the
    wrong product, named in a note.  Mixed edges stop it before the
    coloring.  The classic shortcut cases (forest with sign-definite edges,
    bipartite with all +1, arbitrary graph with all -1) are recorded in the
    notes when they hold.
    """
    return _sojoudi(_Structure(inst))


def _sign_corollaries(st: _Structure) -> CertificationReport:
    report = CertificationReport(verdict=Verdict.NOT_CERTIFIED, sign_summary=st.signs)
    signs = set(st.signs.values())  # empty when the graph has no edges
    if signs <= {-1}:
        report.applied_rule = "nonpositive-off-diagonal"
        report.vertex_signs = (1,) * st.graph.n
    elif signs == {1} and st.bip.bipartite:
        report.applied_rule = "bipartite-nonnegative-off-diagonal"
        report.vertex_signs = _vertex_signs(st.bip.parts)
    else:
        report.notes.append("sign-corollary premises not met")
        return report
    report.verdict = Verdict.CERTIFIED_EXACT
    return report


def certify_sign_corollaries(inst: QcqpInstance) -> CertificationReport:
    """Direct sign rules: nonpositive off-diagonals, or bipartite + nonnegative.

    Both are special cases of the edge-sign cycle condition and, like it,
    primal: the relaxation value is exact, and a rank-1 optimum exists
    whenever the relaxation attains its optimum.  No SDP is solved.  The
    vertex signs are all +1 for nonpositive data, and +1/-1 on the two
    sides of the bipartition for nonnegative data.
    """
    return _sign_corollaries(_Structure(inst))


def _labelled(label: str, sub: CertificationReport) -> CertificationReport:
    """sub with its notes prefixed by label, closed by a note when it did not certify."""
    sub.notes = [f"{label}: {note}" for note in sub.notes]
    if sub.verdict is not Verdict.CERTIFIED_EXACT:
        sub.notes.append(f"{label}: did not certify")
    return sub


def _rules(st: _Structure):
    """The labelled report of each rule `certify` runs, cheapest first, on demand."""
    yield _labelled("sign-corollaries", _sign_corollaries(st))
    yield _labelled("edge-sign-cycle-condition", _sojoudi(st))
    if st.forest:
        forest = _labelled("forest-edge-systems", _edge_systems(st, want_max=True))
        # forests are bipartite: the one-sided systems are the forest's minima
        bip_certifies = (
            bool(forest.per_edge)
            and forest.assumption_check.holds
            and all(
                _refutes(res.mu_min, res.min_attained, st.tol)
                for res in forest.per_edge.values()
            )
        )
        forest.notes.append(
            "bipartite-edge-systems: "
            + ("also certifies" if bip_certifies else "did not certify")
        )
        yield forest
    elif st.bip.bipartite:
        yield _labelled("bipartite-edge-systems", _edge_systems(st, want_max=False))


def _merge(into: CertificationReport, other: CertificationReport) -> None:
    """Keep evidence from an evaluated rule in the pipeline report, and its
    verdict and rule name when it certified."""
    into.assumption_check = into.assumption_check or other.assumption_check
    for edge, res in other.per_edge.items():
        into.per_edge.setdefault(edge, res)
    into.vertex_signs = into.vertex_signs or other.vertex_signs
    into.notes.extend(other.notes)
    if other.verdict is Verdict.CERTIFIED_EXACT:
        into.verdict, into.applied_rule = other.verdict, other.applied_rule


def certify(
    inst: QcqpInstance,
    tol: float = MU_POSITIVITY_TOL,
    y_cap: float = DEFAULT_Y_CAP,
    solver_tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> CertificationReport:
    """Run all certification rules, cheapest first; first success wins.

    Order: sign corollaries, edge-sign cycle condition, then the forest or
    (for a bipartite graph with cycles) the bipartite edge systems, and
    finally an observational fallback that solves the relaxation and
    reports the numerical rank (NumericallyExactOnly / InexactObserved —
    evidence, not a proof).  The sign-split reduction adds nothing to the
    cycle condition and is not run.  The structure and the assumption check
    (of rules 3-4 only: one eigenvalue per cheap candidate, an SDP at
    DEFAULT_TOL only when every candidate fails) are computed once and
    shared by the rules.  Raises
    ValueError for tol <= 0, y_cap <= 0, solver_tol outside (0, 1e-4] or
    rank_tol outside (0, 1).
    """
    check_rank_tol(rank_tol)
    st = _Structure(inst, tol, y_cap, solver_tol)
    report = CertificationReport(verdict=Verdict.NOT_CERTIFIED, sign_summary=st.signs)
    for sub in _rules(st):
        _merge(report, sub)
        if report.verdict is Verdict.CERTIFIED_EXACT:
            return report

    # observational fallback
    res = solve_relaxation(inst, tol=solver_tol, rank_tol=rank_tol)
    if res.status.value != "Optimal":
        report.notes.append(
            f"fallback relaxation solve failed: {res.status.value} {res.message}"
        )
        return report
    report.applied_rule = "relaxation-rank-check"
    if res.numeric_rank <= 1:
        report.verdict = Verdict.NUMERICALLY_EXACT_ONLY
        report.notes.append(
            f"relaxation solved with numerical rank {res.numeric_rank}; "
            "exactness observed, not certified"
        )
    else:
        report.verdict = Verdict.INEXACT_OBSERVED
        report.notes.append(
            f"relaxation solution has numerical rank {res.numeric_rank} > 1"
        )
    return report
