"""Tests for the command-line interface: reports, exit codes, environment."""

import json

import numpy as np
import pytest

from biparsdp import (
    QcqpInstance,
    Verdict,
    certify,
    homogenize,
    load_instance,
    save_instance,
)
from biparsdp.cli import _json_default, main
from biparsdp.graph import build_graph
from biparsdp.transform import build_full_graph_perturbation

from conftest import DATA_DIR, SMALL_XSTAR, max_sign_error


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _save_triangle(tmp_path, offdiag, name="tri.json"):
    Q0 = np.zeros((3, 3))
    (Q0[0, 1], Q0[0, 2], Q0[1, 2]) = offdiag
    Q0 = Q0 + Q0.T
    inst = QcqpInstance(
        objective=Q0, constraint_matrices=(np.eye(3),), rhs=np.array([1.0])
    )
    path = tmp_path / name
    save_instance(inst, path)
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "biparsdp" in capsys.readouterr().out


def test_certify_certified_exit0(capsys, cycle4_path):
    code, out, err = _run(capsys, ["certify", cycle4_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "CertifiedExact"
    assert doc["applied_rule"] == "connected-bipartite-edge-systems"
    assert doc["assumption_check"]["holds"]
    mus = {tuple(e["edge"]): e["mu_min"] for e in doc["per_edge"]}
    assert abs(mus[(1, 2)] - 18.58) < 5e-3
    assert abs(mus[(2, 3)] - 12.84) < 5e-3
    assert abs(mus[(1, 4)] - 8.897) < 5e-3
    assert abs(mus[(3, 4)] - 0.3215) < 5e-3
    assert doc["vertex_signs"] is None  # an edge-system certificate
    assert "cycle_checks" not in doc
    assert "CertifiedExact" in err


def test_certify_reports_vertex_signs(capsys, tmp_path):
    """A rule-2 certificate lists its vertex signs, s_k s_l = -sigma_kl:
    edges (1, 2) and (1, 3) are +1, edge (2, 3) is -1."""
    code, out, _ = _run(capsys, ["certify", _save_triangle(tmp_path, (1.0, 1.0, -1.0))])
    assert code == 0
    doc = json.loads(out)
    assert doc["applied_rule"] == "edge-sign-cycle-condition"
    assert doc["vertex_signs"] == [1, -1, -1]


def test_certify_exit_codes(capsys, tmp_path):
    """NumericallyExactOnly -> 3, InexactObserved -> 4."""
    code, out, _ = _run(capsys, ["certify", _save_triangle(tmp_path, (1.0, 0.5, 1.0))])
    assert code == 3
    assert json.loads(out)["verdict"] == "NumericallyExactOnly"

    code, out, _ = _run(
        capsys, ["certify", _save_triangle(tmp_path, (1.0, 1.0, 1.0), "tri2.json")]
    )
    assert code == 4
    assert json.loads(out)["verdict"] == "InexactObserved"


def test_certify_not_certified_exit2(capsys, tmp_path):
    """A mixed edge, an empty dual side and an unbounded relaxation: exit 2."""
    inst = QcqpInstance(
        objective=np.array([[0.0, 1.0], [1.0, -1.0]]),
        constraint_matrices=(np.array([[1.0, -1.0], [-1.0, 0.0]]),),
        rhs=np.array([1.0]),
    )
    path = tmp_path / "gate.json"
    save_instance(inst, path)
    code, out, _ = _run(capsys, ["certify", str(path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "NotCertified"
    assert any("fallback relaxation solve failed" in n for n in doc["notes"])


def test_missing_file_exit1(capsys):
    code, _, err = _run(capsys, ["certify", "/nonexistent/inst.json"])
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    lambda d, small: ["certify", d],
    lambda d, small: ["solve", small, "-o", d],
], ids=["read-directory", "write-directory"])
def test_os_errors_exit1(capsys, tmp_path, small_path, argv):
    """A directory where the input or the report file should be is an
    error line and exit 1, not a traceback."""
    code, _, err = _run(capsys, argv(str(tmp_path), small_path))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["graph", "transform"])
def test_tol_only_where_a_solver_runs(capsys, small_path, command):
    """graph and transform solve nothing, so they take no --tol."""
    with pytest.raises(SystemExit) as exc:
        main([command, small_path, "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


_ONE_CONSTRAINT = {"matrix": [[1, 1, 1.0]], "rhs": 1.0}


@pytest.mark.parametrize(
    "doc",
    [
        {"constraints": [{"matrix": [[1, 1, 1.0]]}]},
        {"constraints": [{"rhs": 1.0}]},
        {"constraints": [7]},
        {"constraints": [_ONE_CONSTRAINT], "linear": {"constraints": [[0.0]]}},
        {"constraints": [_ONE_CONSTRAINT], "linear": {"objective": [0.0]}},
        {"constraints": [_ONE_CONSTRAINT], "objective": [5]},
        {"constraints": 5},
        {"constraints": [_ONE_CONSTRAINT], "objective": [[1, 1, None]]},
        {"constraints": [_ONE_CONSTRAINT], "objective": [[1, 1, "x"]]},
        {"constraints": [_ONE_CONSTRAINT], "objective": [[1.7, 1, 1.0]]},
        {"constraints": [_ONE_CONSTRAINT], "n": 1.5},
        {"constraints": [_ONE_CONSTRAINT], "n": "abc"},
        {"constraints": [_ONE_CONSTRAINT], "objective": [[float("inf"), 1, 1.0]]},
        {"constraints": [_ONE_CONSTRAINT], "objective": [[1, 1, 1.0, 2.0]]},
        {"constraints": [_ONE_CONSTRAINT], "objective": [[1, 1, "2.5"]]},
        {"constraints": [{"matrix": [[1, 1, 1.0]], "rhs": "1.5"}]},
        {"constraints": [_ONE_CONSTRAINT],
         "linear": {"objective": ["0.5"], "constraints": [[0.0]]}},
        {"constraints": [_ONE_CONSTRAINT], "n": 10**8},
        {"constraints": [_ONE_CONSTRAINT], "objective": {}},
    ],
    ids=["no-rhs", "no-matrix", "not-an-object", "linear-no-objective",
         "linear-no-constraints", "triplet-not-a-list", "constraints-not-a-list",
         "null-value", "string-value", "fractional-index", "fractional-n", "string-n",
         "infinite-index", "four-entry-triplet", "numeric-string-value",
         "numeric-string-rhs", "numeric-string-linear", "unallocatable-n",
         "objective-not-a-list"],
)
def test_malformed_instance_exit1(capsys, tmp_path, doc):
    """A missing or malformed field is an error line that names the file."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "m": 1, "objective": [[1, 1, 1.0]], **doc}))
    code, out, err = _run(capsys, ["certify", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(path) in err
    assert "Traceback" not in err


def test_solve_report(capsys, small_path):
    code, out, err = _run(capsys, ["solve", small_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Optimal"
    assert doc["rank"] == 1
    assert max_sign_error(np.array(doc["x"]), SMALL_XSTAR) < 5e-3
    assert abs(doc["gap"]) < 1e-6
    assert "rank 1" in err


def test_solve_rank_tol_extracts(capsys, tmp_path):
    """--rank-tol decides extraction too: X* = diag(1, 1e-4) is rank 1 at 1e-3."""
    path = tmp_path / "diag.json"
    save_instance(
        QcqpInstance(
            objective=-np.eye(2),
            constraint_matrices=(np.diag([1.0, 0.0]), np.diag([0.0, 1e4])),
            rhs=np.ones(2),
        ),
        path,
    )
    code, out, err = _run(capsys, ["solve", str(path), "--rank-tol", "1e-3"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["rank"] == 1
    assert np.allclose(doc["x"], [1.0, 0.0], atol=1e-6)


def test_solve_reports_engine_and_polish(capsys):
    """The solve report carries the engine's iteration count, the dual
    path's Newton steps, the polish steps kept and the test that set the
    status.  The breakdown instance solves at 1e-12 by the dual path, with
    no engine run."""
    path = str(DATA_DIR / "bipartite_breakdown_n16.json")
    code, out, err = _run(capsys, ["solve", path, "--tol", "1e-12"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "Optimal" and doc["status_from"] == "dual-path"
    assert doc["dual_path_steps"] > 0 and doc["polish_steps"] > 0
    assert doc["ipm_iterations"] == 0


def test_solve_failure_reports_no_rank(capsys):
    """A solve that ends short of Optimal has no meaningful rank: "rank" is
    null, not 0 (which reads as "x* = 0 is optimal"), and stderr names none.
    A 1e-16 target is below the unit roundoff, so neither the engine nor
    the Newton polish meets it."""
    path = str(DATA_DIR / "bipartite_breakdown_n16.json")
    code, out, err = _run(capsys, ["solve", path, "--tol", "1e-16"])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "NumericalLimit"
    assert doc["rank"] is None and doc["x"] is None
    assert err.startswith("status: NumericalLimit, value ") and "rank" not in err


def test_solve_reports_an_engine_certificate(capsys):
    """trace X <= -1 has no PSD solution: the dual path gives no point, and
    the engine's run certifies PrimalInfeasible, which exits 1."""
    code, out, err = _run(capsys, ["solve", str(DATA_DIR / "trace_infeasible.json")])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "PrimalInfeasible" and doc["status_from"] == "full-run"
    assert doc["ipm_iterations"] > 0 and doc["rank"] is None


_RANGE_ERRORS = {
    "--mu-tol": "tol must be positive and finite",
    "--y-cap": "y_cap must be positive and finite",
    "--rank-tol": "rank_tol must lie in (0, 1)",
}


@pytest.mark.parametrize(
    "flag",
    [["--mu-tol", "-1"], ["--mu-tol", "0"], ["--y-cap", "0"],
     ["--rank-tol", "2"], ["--rank-tol", "0"], ["solve", "--rank-tol", "0"],
     ["solve", "--rank-tol", "1"], ["--mu-tol", "inf"], ["--y-cap", "inf"]],
)
def test_certify_rejects_nonpositive_tolerances(capsys, cycle4_path, flag):
    """A tolerance outside its range exits 1 with an error line before any
    solve; a leading "solve" runs that subcommand instead of certify."""
    command, *flag = flag if flag[0] == "solve" else ["certify", *flag]
    code, out, err = _run(capsys, [command, cycle4_path, *flag])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and _RANGE_ERRORS[flag[0]] in err


@pytest.mark.parametrize("tol", ["0", "0.5"])
def test_certify_rejects_solver_tol_out_of_range(capsys, cycle4_path, tol):
    """--tol outside (0, 1e-4] exits 1 before any solve; at 0.5 cycle4 used
    to certify from edge SDPs stopped at a 50 % gap."""
    code, out, err = _run(capsys, ["certify", cycle4_path, "--tol", tol])
    assert code == 1
    assert out == ""
    assert err.startswith("error: solver_tol must lie in (0, 1e-4]")


# small.json with linear terms q0 = (1, -2) and q1 = (0.5, 0)
SMALL_LINEAR = str(DATA_DIR / "small_linear.json")


def test_certify_homogenizes_linear_terms(capsys):
    """Linear terms are certified through the homogenization, not dropped."""
    path = SMALL_LINEAR
    expected = certify(homogenize(load_instance(path)))
    assert expected.verdict is Verdict.NUMERICALLY_EXACT_ONLY
    code, out, _ = _run(capsys, ["certify", path])
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == expected.verdict.value
    assert doc["notes"][0].startswith("linear terms homogenized")
    assert doc["notes"][1:] == expected.notes


def test_solve_homogenizes_linear_terms(capsys):
    """solve maps the homogenized optimizer back to the original variables."""
    path = SMALL_LINEAR
    g = load_instance(path)
    code, out, _ = _run(capsys, ["solve", path])
    assert code == 0
    doc = json.loads(out)
    x = np.array(doc["x"])
    assert x.shape == (2,)
    value = x @ g.objective @ x + g.linear_objective @ x
    assert abs(value - doc["primal_value"]) < 1e-6
    lhs = x @ g.constraint_matrices[0] @ x + g.linear_constraints[0] @ x
    assert lhs <= g.rhs[0] + 1e-6


def test_graph_report(capsys, cycle4_path):
    code, out, _ = _run(capsys, ["graph", cycle4_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert [tuple(e) for e in doc["edges"]] == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert doc["bipartite"] and not doc["forest"]
    assert doc["parts"] == [[1, 3], [2, 4]]
    assert len(doc["cycle_basis"]) == 1


def test_graph_homogenizes_linear_terms(capsys):
    """graph reports the homogenized graph that certify works on."""
    path = SMALL_LINEAR
    expected = build_graph(homogenize(load_instance(path)))
    code, out, err = _run(capsys, ["graph", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["edges"] == [[a + 1, b + 1] for a, b in sorted(expected.edges)]
    assert "vertex 1 is x0" in err


def test_transform_homogenizes_linear_terms(capsys, tmp_path):
    """transform keeps the linear terms, via the homogenization."""
    path = SMALL_LINEAR
    expected = build_full_graph_perturbation(homogenize(load_instance(path)), 0.1).instance
    code, out, err = _run(
        capsys, ["transform", path, "--mode", "full-laplacian", "--epsilon", "0.1"]
    )
    assert code == 0
    assert "vertex 1 is x0" in err
    doc = json.loads(out)
    assert doc["mapping"]["homogenized"] is True
    assert doc["instance"]["n"] == 3

    out_path = tmp_path / "perturbed.json"
    code, _, _ = _run(
        capsys,
        ["transform", path, "--mode", "full-laplacian", "--epsilon", "0.1", "-o", str(out_path)],
    )
    assert code == 0
    written = load_instance(out_path)
    assert np.allclose(written.objective, expected.objective, atol=1e-12)
    for Qw, Qe in zip(written.constraint_matrices, expected.constraint_matrices, strict=True):
        assert np.allclose(Qw, Qe, atol=1e-12)
    mapping = json.loads((tmp_path / "perturbed.json.mapping.json").read_text())
    assert mapping["homogenized"] is True


def test_output_file_and_determinism(capsys, tmp_path, cycle4_path):
    """Reports are identical across runs apart from the timestamp."""
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["certify", cycle4_path, "-o", str(out1)]) == 0
    assert main(["certify", cycle4_path, "-o", str(out2)]) == 0
    capsys.readouterr()
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


def test_tol_reflected(capsys, small_path):
    """--tol defaults to 1e-8, and the report names the tolerance it ran at."""
    code, out, _ = _run(capsys, ["solve", small_path])
    assert code == 0
    assert json.loads(out)["tolerances"]["solver_tol"] == 1e-8
    code, out, _ = _run(capsys, ["solve", small_path, "--tol", "1e-6"])
    assert code == 0
    assert json.loads(out)["tolerances"]["solver_tol"] == 1e-6


def test_transform_sign_split_cli(capsys, tmp_path):
    path = _save_triangle(tmp_path, (-1.0, -1.0, -2.0))
    out_path = tmp_path / "doubled.json"
    code, _, err = _run(
        capsys, ["transform", path, "--mode", "sign-split", "-o", str(out_path)]
    )
    assert code == 0
    assert "n=6" in err
    doubled = load_instance(out_path)
    assert doubled.n == 6 and doubled.m == 2
    mapping = json.loads((tmp_path / "doubled.json.mapping.json").read_text())
    assert mapping["mode"] == "sign-split"
    assert mapping["coupling_constraint"] == 2


def test_transform_sign_split_rejects_mixed_edge(capsys, small_path):
    code, _, err = _run(capsys, ["transform", small_path])
    assert code == 1
    assert "(1, 2)" in err


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "nan"), ("--epsilon", "inf"), ("--delta", "nan"), ("--delta", "inf"),
])
def test_transform_rejects_non_finite_scales(capsys, tmp_path, cycle4_path, flag, value):
    """A NaN or infinite --epsilon/--delta exits 1 naming the option's
    parameter, not with a complaint about the transformed data."""
    mode, path = (
        ("sign-split", _save_triangle(tmp_path, (-1.0, -1.0, -2.0)))
        if flag == "--delta" else ("full-laplacian", cycle4_path)
    )
    code, out, err = _run(capsys, ["transform", path, "--mode", mode, flag, value])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag[2:]} must be positive and finite")


def test_transform_connect_cli(capsys, tmp_path, small):
    from test_certify import _blkdiag_double

    path = tmp_path / "double.json"
    save_instance(_blkdiag_double(small), path)
    code, out, _ = _run(
        capsys, ["transform", str(path), "--mode", "connect", "--epsilon", "0.01"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mapping"]["connecting_edges"] == [[1, 3]]
    assert doc["instance"]["n"] == 4

    # nonexistent input: an error, exit 1
    code, _, err = _run(
        capsys, ["transform", str(tmp_path / "missing.json"), "--mode", "connect"]
    )
    assert code == 1


def test_transform_full_laplacian_cli(capsys, cycle4_path):
    code, out, _ = _run(
        capsys, ["transform", cycle4_path, "--mode", "full-laplacian", "--epsilon", "0.1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mapping"]["mode"] == "full-laplacian"
    assert doc["instance"]["n"] == 4


def test_json_default_reads_numpy_scalars():
    """The report serializer turns numpy arrays and scalars into Python
    values, and refuses any other object with TypeError."""
    values = [_json_default(v) for v in (np.float64(0.5), np.float32(0.25), np.int64(3))]
    assert values == [0.5, 0.25, 3]
    assert [type(v) for v in values] == [float, float, int]
    assert _json_default(np.arange(2)) == [0, 1]
    with pytest.raises(TypeError, match="not JSON serializable"):
        _json_default(object())
