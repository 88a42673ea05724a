"""Correctness checks on the outputs the benchmark collects.

Operations are reduced to plain-data digests right after they return; the
checks here run on digests after the timed pass.  A digest built by hand (the
self-test builds wrong ones) is checked exactly like one from the library.

Seed-independent checks:

* a CertifiedExact verdict implies the relaxation has numerical rank <= 1,
  computed by an independent interior-point solve (engine only, no KKT
  polish), so a polish change cannot hide a wrong verdict;
* an extracted x* is feasible and its objective matches the relaxation
  value (|gap| <= tolerance);
* every edge behind an edge-system certificate has mu* > MU_POSITIVITY_TOL;
* each family certifies by the rule its construction guarantees, and
  never by a rule whose premise it violates.

For the default seed the digests are also compared with a committed
reference produced before any optimisation.
"""

from __future__ import annotations

import numpy as np

from biparsdp import sdp
from biparsdp.certify import MU_POSITIVITY_TOL

RANK_TOL = 1e-6  # same rule as biparsdp.relaxation.numerical_rank
ORACLE_TOL = 1e-10
FEAS_TOL = 1e-6
GAP_TOL = 1e-6
REF_RTOL = 1e-6  # BLAS thread count and build change the last bits
REF_ATOL = 1e-7

FAILURE_MARKERS = ("solver failure", "unavailable", "failed")

# applied_rule values each family may end with; anything else is wrong
ALLOWED_RULES = {
    "forest": {"forest-edge-systems"},
    "bipartite": {"connected-bipartite-edge-systems"},
    "forest-fallback": {"relaxation-rank-check"},
    "bipartite-fallback": {"relaxation-rank-check"},
    "potential": {"edge-sign-cycle-condition"},
    "nonpositive": {"nonpositive-off-diagonal"},
}
EDGE_SYSTEM_RULES = {
    "forest-edge-systems",
    "connected-bipartite-edge-systems",
    "disconnected-bipartite-edge-systems",
}


def _num(x) -> float | None:
    return None if x is None else float(x)


def certify_digest(report) -> dict:
    return {
        "kind": "certify",
        "verdict": report.verdict.value,
        "applied_rule": report.applied_rule,
        "per_edge": [
            [k, l, _num(r.mu_min), r.min_attained, _num(r.mu_max), r.max_attained,
             bool(r.infeasible)]
            for (k, l), r in sorted(report.per_edge.items())
        ],
        "notes": list(report.notes),
    }


def relaxation_digest(result) -> dict:
    return {
        "kind": "relaxation",
        "status": result.status.value,
        "numeric_rank": int(result.numeric_rank),
        "primal_value": float(result.primal_value),
        "dual_value": float(result.dual_value),
        "x_star": None if result.x_star is None else [float(v) for v in result.x_star],
        "gap": _num(result.gap),
        "message": result.message,
    }


def error_digest(exc: BaseException) -> dict:
    return {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}


def is_failure(digest: dict) -> bool:
    """Exception, non-Optimal status, or a solver-failure/unavailable note."""
    if digest["kind"] == "error":
        return True
    if digest["kind"] == "relaxation":
        return digest["status"] != "Optimal"
    return any(m in note for note in digest["notes"] for m in FAILURE_MARKERS)


class RelaxationOracle:
    """Independent relaxation solves, one per instance, for the checks.

    Without the KKT polish the iterate's spurious eigenvalues shrink only
    with the tolerance: on a nearly degenerate instance (second-smallest
    eigenvalue of S(y*) ~ 1e-5) a 1e-8 solve shows a second eigenvalue of X
    at 1e-5 relative, where the exact optimum has rank 1.  The oracle asks
    for ORACLE_TOL and falls back to the library default if the engine
    cannot reach it.
    """

    def __init__(self):
        self._cache: dict[str, tuple[int, float]] = {}

    def rank_and_value(self, key: str, inst) -> tuple[int, float]:
        if key not in self._cache:
            n, m = inst.n, inst.m
            c = np.concatenate([np.zeros(m), sdp.svec(inst.objective)])
            A = np.zeros((m, m + n * (n + 1) // 2))
            for p, Qp in enumerate(inst.constraint_matrices):
                A[p, p] = 1.0
                A[p, m:] = sdp.svec(Qp)
            for tol in (ORACLE_TOL, sdp.DEFAULT_TOL):
                res = sdp.solve_standard_form(c, A, inst.rhs, l=m, d=n,
                                              feas_tol=tol, gap_tol=tol)
                if res.status is sdp.SolverStatus.OPTIMAL:
                    break
            else:
                raise RuntimeError(f"oracle relaxation solve: {res.status.value}")
            lam = np.linalg.eigvalsh(sdp.smat(res.u[m:], n))
            rank = int(np.sum(lam > RANK_TOL * max(lam[-1], 1.0)))
            self._cache[key] = (rank, float(res.pobj))
        return self._cache[key]


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_certify(family: str, key: str, inst, d: dict, oracle) -> list[str]:
    errors = []
    verdict, rule = d["verdict"], d["applied_rule"]
    if rule not in ALLOWED_RULES[family]:
        errors.append(f"{family} instance: verdict {verdict} by rule {rule!r}, "
                      f"expected one of {sorted(ALLOWED_RULES[family])}")
    if verdict in ("CertifiedExact", "NumericallyExactOnly", "InexactObserved"):
        rank, _ = oracle.rank_and_value(key, inst)
        if verdict == "InexactObserved" and rank <= 1:
            errors.append(f"InexactObserved but the relaxation has rank {rank}")
        if verdict != "InexactObserved" and rank > 1:
            errors.append(f"{verdict} but the relaxation has rank {rank}")
    if verdict == "CertifiedExact" and rule in EDGE_SYSTEM_RULES:
        if not d["per_edge"]:
            errors.append("edge-system certificate without per-edge results")
        for k, l, mu_min, min_att, mu_max, max_att, _ in d["per_edge"]:
            below = mu_min is not None and mu_min > MU_POSITIVITY_TOL and min_att
            above = (rule == "forest-edge-systems" and mu_max is not None
                     and mu_max < -MU_POSITIVITY_TOL and max_att)
            if not (below or above):
                errors.append(f"certified edge ({k + 1}, {l + 1}) has mu_min={mu_min}, "
                              f"mu_max={mu_max}: not beyond {MU_POSITIVITY_TOL}")
    return errors


def check_relaxation(key: str, inst, d: dict, oracle) -> list[str]:
    errors = []
    rank, value = oracle.rank_and_value(key, inst)
    scale = max(1.0, abs(value))
    if not _close(d["primal_value"], value, GAP_TOL, GAP_TOL):
        errors.append(f"relaxation value {d['primal_value']!r} != independent {value!r}")
    if (d["numeric_rank"] <= 1) != (rank <= 1):
        errors.append(f"numeric_rank {d['numeric_rank']} but independent rank {rank}")
    if d["numeric_rank"] <= 1 and d["x_star"] is None:
        errors.append("rank <= 1 but no x* extracted")
    if d["x_star"] is not None:
        x = np.array(d["x_star"])
        if x.shape != (inst.n,) or not np.all(np.isfinite(x)):
            return errors + [f"x* has shape {x.shape} or non-finite entries"]
        for p, (Qp, b) in enumerate(zip(inst.constraint_matrices, inst.rhs)):
            lhs = float(x @ Qp @ x)
            if lhs > b + FEAS_TOL * max(1.0, abs(b)):
                errors.append(f"x* violates constraint {p + 1}: {lhs!r} > {b!r}")
        gap = float(x @ inst.objective @ x) - value
        if abs(gap) > GAP_TOL * scale:
            errors.append(f"x* objective gap {gap:.3e} exceeds {GAP_TOL:g} * {scale:.3g}")
    return errors


def reference_entry(d: dict) -> dict:
    """The part of a digest the committed reference pins."""
    if d["kind"] == "certify":
        return {
            "verdict": d["verdict"],
            "applied_rule": d["applied_rule"],
            "per_edge": {f"{k + 1},{l + 1}": [mu_min, mu_max]
                         for k, l, mu_min, _, mu_max, _, _ in d["per_edge"]},
        }
    if d["kind"] == "relaxation":
        return {"status": d["status"], "numeric_rank": d["numeric_rank"],
                "value": d["primal_value"]}
    return {"error": d["error"]}


def compare_reference(now: dict, ref: dict) -> list[str]:
    errors = []
    for field in ("verdict", "applied_rule", "status", "numeric_rank", "error"):
        if now.get(field) != ref.get(field):
            errors.append(f"{field}: {now.get(field)!r} != reference {ref.get(field)!r}")
    if "value" in ref and not _close(now["value"], ref["value"], REF_RTOL, REF_ATOL):
        errors.append(f"value {now['value']!r} != reference {ref['value']!r}")
    if "per_edge" in ref:
        if set(now["per_edge"]) != set(ref["per_edge"]):
            errors.append("per-edge results cover other edges than the reference")
        for edge in sorted(set(now["per_edge"]) & set(ref["per_edge"])):
            for label, a, b in zip(("mu_min", "mu_max"), now["per_edge"][edge],
                                   ref["per_edge"][edge]):
                if (a is None) != (b is None) or (
                        a is not None and not _close(a, b, REF_RTOL, REF_ATOL)):
                    errors.append(f"edge ({edge}) {label} {a!r} != reference {b!r}")
    return errors
