"""Command-line interface.

Subcommands: certify (exactness pipeline), solve (relaxation + extraction),
graph (structure queries), transform (sign splitting / perturbations).
Reports are JSON; a one-line human summary goes to stderr.  Vertex indices
in all output are 1-based, matching the instance file format.

Exit codes for certify: 0 CertifiedExact, 2 NotCertified,
3 NumericallyExactOnly, 4 InexactObserved; 1 for any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .certify import (
    DEFAULT_Y_CAP,
    MU_POSITIVITY_TOL,
    Verdict,
    certify,
)
from .graph import bipartition, build_graph, connected_components, cycle_basis, edge_signs, is_forest
from .model import (
    GeneralQcqpInstance,
    InstanceError,
    QcqpInstance,
    _instance_doc,
    dehomogenize,
    homogenize,
    load_instance,
    save_instance,
)
from .relaxation import DEFAULT_RANK_TOL, solve_relaxation
from .sdp import DEFAULT_TOL, SolverStatus
from .transform import PERTURBATIONS, sign_split_transform

_EXIT_CODES = {
    Verdict.CERTIFIED_EXACT: 0,
    Verdict.NOT_CERTIFIED: 2,
    Verdict.NUMERICALLY_EXACT_ONLY: 3,
    Verdict.INEXACT_OBSERVED: 4,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biparsdp",
        description="Certify and solve semidefinite relaxations of QCQPs "
        "with bipartite sparsity structure.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="instance JSON file")
        p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")

    def solver(p):
        common(p)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="solver tolerance (default 1e-8)")
        p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)

    p = sub.add_parser("certify", help="run the exactness certification pipeline")
    solver(p)
    p.add_argument("--y-cap", type=float, default=DEFAULT_Y_CAP,
                   help="box bound on dual multipliers in the edge systems")
    p.add_argument("--mu-tol", type=float, default=MU_POSITIVITY_TOL,
                   help="positivity threshold for the edge-system values")

    p = sub.add_parser("solve", help="solve the relaxation and extract the optimizer")
    solver(p)

    p = sub.add_parser("graph", help="report the aggregated sparsity structure")
    common(p)

    p = sub.add_parser("transform", help="sign-split or perturb an instance")
    common(p)
    p.add_argument("--mode", choices=["sign-split", *PERTURBATIONS],
                   default="sign-split")
    p.add_argument("--delta", type=float, default=1.0,
                   help="diagonal shift for the sign-splitting transformation")
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="perturbation magnitude for the Laplacian modes")
    return parser


def _report_header(tols: dict) -> dict:
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "tolerances": tols,
    }


def _edge_1based(edge) -> list[int]:
    return [edge[0] + 1, edge[1] + 1]


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=1, default=_json_default) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


_HOMOGENIZED_NOTE = (
    "linear terms homogenized: vertex 1 is x0 (x0^2 = 1), vertex i + 1 is x_i"
)


def _load_homogeneous(path) -> tuple[QcqpInstance, bool]:
    """The instance, homogenized when it has linear terms; and whether it was."""
    inst = load_instance(path)
    if isinstance(inst, GeneralQcqpInstance):
        return homogenize(inst), True
    return inst, False


def _run_certify(args) -> int:
    inst, homogenized = _load_homogeneous(args.input)
    report = certify(
        inst,
        tol=args.mu_tol,
        y_cap=args.y_cap,
        solver_tol=args.tol,
        rank_tol=args.rank_tol,
    )
    if homogenized:
        report.notes.insert(0, _HOMOGENIZED_NOTE)
    doc = _report_header({
        "solver_tol": args.tol,
        "mu_positivity_tol": args.mu_tol,
        "rank_tol": args.rank_tol,
        "y_cap": args.y_cap,
    })
    doc.update({
        "verdict": report.verdict.value,
        "applied_rule": report.applied_rule,
        "assumption_check": None if report.assumption_check is None else {
            "t_star": report.assumption_check.t_star,
            "holds": report.assumption_check.holds,
            "note": report.assumption_check.note,
        },
        "per_edge": [
            {
                "edge": _edge_1based(edge),
                "mu_min": res.mu_min,
                "min_attained": res.min_attained,
                "mu_max": res.mu_max,
                "max_attained": res.max_attained,
                "system_infeasible": res.infeasible,
            }
            for edge, res in sorted(report.per_edge.items())
        ],
        "edge_signs": [
            {"edge": _edge_1based(e), "sign": s}
            for e, s in sorted(report.sign_summary.items())
        ],
        "vertex_signs": report.vertex_signs,
        "notes": report.notes,
    })
    _emit(doc, args.output)
    print(
        f"verdict: {report.verdict.value}"
        + (f" (rule: {report.applied_rule})" if report.applied_rule else ""),
        file=sys.stderr,
    )
    return _EXIT_CODES[report.verdict]


def _run_solve(args) -> int:
    inst, homogenized = _load_homogeneous(args.input)
    res = solve_relaxation(inst, tol=args.tol, rank_tol=args.rank_tol)
    x = res.x_star
    if homogenized and x is not None:
        x = dehomogenize(x)
    # the rank of a failed solve's last iterate means nothing, and rank 0
    # would read as "x* = 0 is optimal"
    optimal = res.status is SolverStatus.OPTIMAL
    doc = _report_header({"solver_tol": args.tol, "rank_tol": args.rank_tol})
    doc.update({
        "status": res.status.value,
        "primal_value": res.primal_value,
        "dual_value": res.dual_value,
        "rank": res.numeric_rank if optimal else None,
        "x": x,
        "X": res.X_star,
        "y": res.y_star,
        "gap": res.gap,
        "ipm_iterations": res.ipm_iterations,
        "polish_steps": res.polish_steps,
        "status_from": res.status_from,
        "dual_path_steps": res.dual_path_steps,
    })
    _emit(doc, args.output)
    print(
        f"status: {res.status.value}, value {res.primal_value:.9g}"
        + (f", rank {res.numeric_rank}" if optimal else ""),
        file=sys.stderr,
    )
    return 0 if optimal else 1


def _run_graph(args) -> int:
    inst, homogenized = _load_homogeneous(args.input)
    if homogenized:
        print(_HOMOGENIZED_NOTE, file=sys.stderr)
    graph = build_graph(inst)
    signs = edge_signs(inst, graph)
    bip = bipartition(graph)
    basis = cycle_basis(graph)
    doc = _report_header({})
    doc.update({
        "n": graph.n,
        "edges": [_edge_1based(e) for e in graph.sorted_edges[0]],
        "signs": [
            {"edge": _edge_1based(e), "sign": s} for e, s in sorted(signs.items())
        ],
        "bipartite": bip.bipartite,
        "parts": None if bip.parts is None else [
            sorted(v + 1 for v in part) for part in bip.parts
        ],
        "odd_walk": None if bip.witness is None else [v + 1 for v in bip.witness],
        "components": [
            sorted(v + 1 for v in comp) for comp in connected_components(graph)
        ],
        "cycle_basis": [
            [_edge_1based(e) for e in cyc] for cyc in basis.cycles
        ],
        "forest": is_forest(graph),
    })
    _emit(doc, args.output)
    print(
        f"{graph.n} vertices, {len(graph.edges)} edges, "
        f"{'bipartite' if bip.bipartite else 'not bipartite'}",
        file=sys.stderr,
    )
    return 0


def _run_transform(args) -> int:
    inst, homogenized = _load_homogeneous(args.input)
    if homogenized:
        print(_HOMOGENIZED_NOTE, file=sys.stderr)
    if args.mode == "sign-split":
        result = sign_split_transform(inst, delta=args.delta)
        out_inst = result.transformed
        mapping = {
            "mode": "sign-split",
            "delta": result.delta,
            "n_original": result.n_original,
            "variables": "1..n keep x; n+1..2n carry z = -x",
            "coupling_constraint": result.coupling_index + 1,
        }
    else:
        result = PERTURBATIONS[args.mode](inst, args.epsilon)
        out_inst = result.instance
        mapping = {
            "mode": args.mode,
            "epsilon": result.epsilon,
            "connecting_edges": [_edge_1based(e) for e in sorted(result.F)],
        }
    if homogenized:
        mapping["homogenized"] = True
    if args.output:
        save_instance(out_inst, args.output)
        with open(args.output + ".mapping.json", "w") as fh:
            json.dump(mapping, fh, indent=1)
            fh.write("\n")
    else:
        _emit({"instance": _instance_doc(out_inst), "mapping": mapping}, None)
    print(f"transformed ({args.mode}): n={out_inst.n}, m={out_inst.m}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "certify": _run_certify,
        "solve": _run_solve,
        "graph": _run_graph,
        "transform": _run_transform,
    }
    try:
        return handlers[args.command](args)
    except (InstanceError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
