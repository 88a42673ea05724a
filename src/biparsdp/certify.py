"""A-priori exactness certification for the semidefinite relaxation.

Each rule here proves, from the structure of the data alone, that the
relaxation of a QCQP must have a rank-1 optimal solution:

* sign corollaries — all off-diagonals nonpositive (any graph), or the
  graph is bipartite with all off-diagonals nonnegative;
* the edge-sign cycle condition — every edge sign-definite and every
  basis cycle's sign product equal to (-1)^length;
* per-edge feasibility systems — for forests, no dual-feasible y makes
  S(y)_{kl} = 0; for bipartite graphs, none makes S(y)_{kl} <= 0.  Both
  reduce to small SDPs over the dual feasible set;
* sign-split reduction — a sign-definite but non-bipartite instance is
  transformed to an equivalent bipartite nonnegative-off-diagonal one.

The system-based rules additionally need the relaxation and its dual to
behave (attained optima, bounded solution sets).  That is undecidable from
the data in general, so the pipeline verifies the checkable sufficient
condition — some nonnegative combination of the constraint matrices is
positive definite — and refuses to certify when it cannot.

`certify` runs the rules from cheapest to most expensive and stops at the
first one that fires; everything evaluated along the way is kept in the
report.  When no rule applies it falls back to solving the relaxation and
reporting the observed rank, which is evidence, not a certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from .graph import (
    BipartitionResult,
    CycleBasis,
    Edge,
    bipartition,
    build_graph,
    connected_components,
    cycle_basis,
    edge_signs,
)
from .model import GeneralQcqpInstance, InstanceError, QcqpInstance
from .sdp import (
    DEFAULT_TOL,
    DualSideEmpty,
    max_min_eigen_combination,
    minimize_linear_functional_over_dual_cone,
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
    t_star: float | None
    holds: bool
    note: str = ""


@dataclass
class CycleCheck:
    cycle: tuple[Edge, ...]
    product: int
    ok: bool  # product == (-1)^length


@dataclass
class CertificationReport:
    verdict: Verdict
    applied_rule: str | None = None
    assumption_check: AssumptionCheck | None = None
    per_edge: dict[Edge, EdgeSystemResult] = field(default_factory=dict)
    sign_summary: dict[Edge, int] = field(default_factory=dict)
    cycle_checks: list[CycleCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _check_assumption(inst: QcqpInstance, tol: float, solver_tol: float) -> AssumptionCheck:
    """Sufficient condition: some y >= 0, sum y_p = 1 has sum y_p Qp > t*I, t > 0."""
    try:
        t_star, _ = max_min_eigen_combination(inst, tol=solver_tol)
    except RuntimeError as exc:
        return AssumptionCheck(None, False, f"assumption check failed to solve: {exc}")
    if t_star > tol:
        return AssumptionCheck(t_star, True)
    return AssumptionCheck(
        t_star, False,
        "assumption unverified: no strictly positive-definite nonnegative "
        "combination of constraint matrices found",
    )


class _Structure:
    """What every rule reads, built once per call of `certify` or a rule.

    Graph and edge signs are built eagerly; the bipartition, components,
    cycle basis and the assumption check only when a rule first asks.  The
    assumption check keeps the tolerances of that first request, which are
    the same for every rule of one call.
    """

    def __init__(self, inst: QcqpInstance):
        if isinstance(inst, GeneralQcqpInstance):
            raise InstanceError(
                "instance has linear terms; certify homogenize(instance) instead"
            )
        self.inst = inst
        self.graph = build_graph(inst)
        self.signs = edge_signs(inst, self.graph)
        self._assumption: AssumptionCheck | None = None

    @cached_property
    def bip(self) -> BipartitionResult:
        return bipartition(self.graph)

    @cached_property
    def components(self) -> list[frozenset[int]]:
        return connected_components(self.graph)

    @cached_property
    def basis(self) -> CycleBasis:
        return cycle_basis(self.graph)

    @property
    def forest(self) -> bool:
        return len(self.graph.edges) == self.graph.n - len(self.components)

    def assumption(self, tol: float, solver_tol: float) -> AssumptionCheck:
        if self._assumption is None:
            self._assumption = _check_assumption(self.inst, tol, solver_tol)
        return self._assumption


def _refutes(mu: float, attained: bool, tol: float) -> bool:
    """An edge system is infeasible when its attained minimum clears tol."""
    return bool(mu > tol and attained)


def check_edge_system_nonpositive(
    inst: QcqpInstance,
    k: int,
    ell: int,
    tol: float = MU_POSITIVITY_TOL,
    y_cap: float = DEFAULT_Y_CAP,
    solver_tol: float = DEFAULT_TOL,
) -> tuple[bool, float, bool]:
    """Decide whether {y >= 0, S(y) PSD, S(y)_{k,ell} <= 0} is infeasible.

    Returns (infeasible, mu_star, attained) with mu_star the minimum of
    S(y)_{k,ell} over the dual feasible set (boxed by y <= y_cap).  The
    system is declared infeasible only when mu_star > tol and the minimum
    was attained inside the box; otherwise the answer is a conservative
    False.  k and ell are 0-based.
    """
    mu, attained, _ = minimize_linear_functional_over_dual_cone(
        inst, k, ell, y_cap=y_cap, tol=solver_tol
    )
    return _refutes(mu, attained, tol), mu, attained


def _edge_system(
    inst: QcqpInstance, edge: Edge, y_cap: float, solver_tol: float, want_max: bool
) -> EdgeSystemResult:
    """Minimum (and, for forests, maximum) of S(y)_{k,ell}."""
    k, ell = edge
    res = EdgeSystemResult()
    res.mu_min, res.min_attained, _ = minimize_linear_functional_over_dual_cone(
        inst, k, ell, y_cap=y_cap, tol=solver_tol
    )
    if want_max:
        res.mu_max, res.max_attained, _ = minimize_linear_functional_over_dual_cone(
            inst, k, ell, y_cap=y_cap, tol=solver_tol, maximize=True
        )
    return res


def _edge_systems(
    st: _Structure, tol: float, y_cap: float, solver_tol: float, want_max: bool
) -> CertificationReport:
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
            if len(st.components) <= 1
            else "disconnected-bipartite-edge-systems"
        )
    report.assumption_check = st.assumption(tol, solver_tol)
    try:
        report.per_edge = {
            edge: _edge_system(st.inst, edge, y_cap, solver_tol, want_max)
            for edge in sorted(st.graph.edges)
        }
    except DualSideEmpty as exc:
        report.notes.append(f"edge systems unavailable: {exc}")
        return report
    except RuntimeError as exc:
        report.notes.append(f"edge-system solver failure: {exc}")
        return report
    all_pass = True
    for edge, res in report.per_edge.items():
        res.infeasible = _refutes(res.mu_min, res.min_attained, tol) or (
            want_max and _refutes(-res.mu_max, res.max_attained, tol)
        )
        if not res.infeasible:
            all_pass = False
            if not want_max and not res.min_attained:
                report.notes.append(
                    f"edge {tuple(v + 1 for v in edge)}: minimum hit the "
                    f"y <= {y_cap:g} box; treating as unresolved"
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
    return _edge_systems(_Structure(inst), tol, y_cap, solver_tol, want_max=False)


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
    return _edge_systems(_Structure(inst), tol, y_cap, solver_tol, want_max=True)


def _sojoudi(st: _Structure) -> CertificationReport:
    signs = st.signs
    report = CertificationReport(
        verdict=Verdict.NOT_CERTIFIED, sign_summary=signs
    )
    mixed = sorted(e for e, s in signs.items() if s == 0)
    if mixed:
        report.notes.append(
            "mixed-sign edges (sigma = 0): "
            + ", ".join(str(tuple(v + 1 for v in e)) for e in mixed)
        )
    cycles_ok = True
    for cyc in st.basis.cycles:
        product = 1
        for e in cyc:
            product *= signs[e]
        ok = product == (-1) ** len(cyc)
        report.cycle_checks.append(CycleCheck(cyc, product, ok))
        if not ok:
            cycles_ok = False
            report.notes.append(
                f"cycle of length {len(cyc)} has sign product {product}, "
                f"expected {(-1) ** len(cyc)}"
            )
    if not mixed and cycles_ok:
        report.verdict = Verdict.CERTIFIED_EXACT
        report.applied_rule = "edge-sign-cycle-condition"
        # shortcut cases, for the record
        if st.forest:
            report.notes.append("shortcut: forest with sign-definite edges")
        if all(s == 1 for s in signs.values()) and st.bip.bipartite:
            report.notes.append("shortcut: bipartite with all edge signs +1")
        if all(s == -1 for s in signs.values()):
            report.notes.append("shortcut: all edge signs -1")
    return report


def certify_sojoudi(inst: QcqpInstance) -> CertificationReport:
    """Purely sign-based certificate: sign-definite edges, matching cycles.

    Certifies when every edge sign is nonzero and every basis cycle has
    sign product (-1)^length.  The classic shortcut cases (forest with
    sign-definite edges, bipartite with all +1, arbitrary graph with all
    -1) are recorded in the notes when they hold.
    """
    return _sojoudi(_Structure(inst))


def _sign_corollaries(st: _Structure, tol: float, solver_tol: float) -> CertificationReport:
    signs = st.signs
    report = CertificationReport(
        verdict=Verdict.NOT_CERTIFIED, sign_summary=signs
    )
    offdiag_nonneg = all(s == 1 for s in signs.values())
    offdiag_nonpos = all(s == -1 for s in signs.values())
    rule = None
    if st.graph.edges and offdiag_nonpos:
        rule = "nonpositive-off-diagonal"
    elif offdiag_nonneg and st.graph.edges and st.bip.bipartite:
        rule = "bipartite-nonnegative-off-diagonal"
    if rule is None:
        report.notes.append("sign-corollary premises not met")
        return report
    report.assumption_check = st.assumption(tol, solver_tol)
    if report.assumption_check.holds:
        report.verdict = Verdict.CERTIFIED_EXACT
        report.applied_rule = rule
    else:
        report.notes.append(report.assumption_check.note)
    return report


def certify_sign_corollaries(
    inst: QcqpInstance,
    tol: float = MU_POSITIVITY_TOL,
    solver_tol: float = DEFAULT_TOL,
) -> CertificationReport:
    """Direct sign rules: nonpositive off-diagonals, or bipartite + nonnegative.

    Both are consequences of the per-edge systems (any dual-feasible y
    keeps S(y)_{kl} pinned on one side), so they inherit the assumption
    check but need no SDP solves for the edges themselves.
    """
    return _sign_corollaries(_Structure(inst), tol, solver_tol)


def _merge(into: CertificationReport, other: CertificationReport, label: str) -> None:
    """Keep evidence from an evaluated rule in the pipeline report."""
    if other.assumption_check is not None and into.assumption_check is None:
        into.assumption_check = other.assumption_check
    for edge, res in other.per_edge.items():
        into.per_edge.setdefault(edge, res)
    if other.cycle_checks and not into.cycle_checks:
        into.cycle_checks = other.cycle_checks
    for note in other.notes:
        into.notes.append(f"{label}: {note}")
    if other.verdict is not Verdict.CERTIFIED_EXACT:
        into.notes.append(f"{label}: did not certify")


def certify(
    inst: QcqpInstance,
    tol: float = MU_POSITIVITY_TOL,
    y_cap: float = DEFAULT_Y_CAP,
    solver_tol: float = DEFAULT_TOL,
    rank_tol: float = 1e-6,
) -> CertificationReport:
    """Run all certification rules, cheapest first; first success wins.

    Order: sign corollaries, edge-sign cycle condition, forest systems,
    bipartite systems, sign-split reduction, and finally an observational
    fallback that solves the relaxation and reports the numerical rank
    (NumericallyExactOnly / InexactObserved — evidence, not a proof).
    The structure and the assumption check are computed once and shared
    by the rules.
    """
    st = _Structure(inst)
    report = CertificationReport(verdict=Verdict.NOT_CERTIFIED, sign_summary=st.signs)

    sub = _sign_corollaries(st, tol, solver_tol)
    _merge(report, sub, "sign-corollaries")
    if sub.verdict is Verdict.CERTIFIED_EXACT:
        report.verdict, report.applied_rule = sub.verdict, sub.applied_rule
        return report

    sub = _sojoudi(st)
    _merge(report, sub, "edge-sign-cycle-condition")
    if sub.verdict is Verdict.CERTIFIED_EXACT:
        report.verdict, report.applied_rule = sub.verdict, sub.applied_rule
        return report

    if st.forest:
        forest = _edge_systems(st, tol, y_cap, solver_tol, want_max=True)
        _merge(report, forest, "forest-edge-systems")
        # forests are bipartite: the one-sided systems are the forest's minima
        bip_certifies = (
            bool(forest.per_edge)
            and forest.assumption_check.holds
            and all(
                _refutes(res.mu_min, res.min_attained, tol)
                for res in forest.per_edge.values()
            )
        )
        report.notes.append(
            "bipartite-edge-systems: "
            + ("also certifies" if bip_certifies else "did not certify")
        )
        if forest.verdict is Verdict.CERTIFIED_EXACT:
            report.verdict, report.applied_rule = forest.verdict, forest.applied_rule
            return report
    elif st.bip.bipartite:
        sub = _edge_systems(st, tol, y_cap, solver_tol, want_max=False)
        _merge(report, sub, "bipartite-edge-systems")
        if sub.verdict is Verdict.CERTIFIED_EXACT:
            report.verdict, report.applied_rule = sub.verdict, sub.applied_rule
            return report
    elif all(s != 0 for s in st.signs.values()):
        from .transform import sign_split_transform

        doubled = sign_split_transform(inst).transformed
        sub = certify_sign_corollaries(doubled, tol=tol, solver_tol=solver_tol)
        if sub.verdict is Verdict.CERTIFIED_EXACT:
            report.verdict = Verdict.CERTIFIED_EXACT
            report.applied_rule = "sign-split-bipartite-reduction"
            report.assumption_check = sub.assumption_check
            report.notes.append(
                "sign-split reduction: doubled instance certified via "
                + str(sub.applied_rule)
            )
            return report
        _merge(report, sub, "sign-split-reduction")

    # observational fallback
    from .relaxation import solve_relaxation

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
