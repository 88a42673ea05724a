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
from biparsdp.cli import main
from biparsdp.graph import build_graph
from biparsdp.transform import build_full_graph_perturbation

from conftest import SMALL_XSTAR, max_sign_error


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
    assert "CertifiedExact" in err


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


_ONE_CONSTRAINT = {"matrix": [[1, 1, 1.0]], "rhs": 1.0}


@pytest.mark.parametrize(
    "doc",
    [
        {"constraints": [{"matrix": [[1, 1, 1.0]]}]},
        {"constraints": [{"rhs": 1.0}]},
        {"constraints": [7]},
        {"constraints": [_ONE_CONSTRAINT], "linear": {"constraints": [[0.0]]}},
        {"constraints": [_ONE_CONSTRAINT], "linear": {"objective": [0.0]}},
    ],
    ids=["no-rhs", "no-matrix", "not-an-object", "linear-no-objective",
         "linear-no-constraints"],
)
def test_malformed_instance_exit1(capsys, tmp_path, doc):
    """A missing field inside a constraint or the linear section is an error line."""
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


def _save_small_with_linear_terms(tmp_path, small_path):
    with open(small_path) as fh:
        doc = json.load(fh)
    doc["linear"] = {"objective": [1.0, -2.0], "constraints": [[0.5, 0.0]]}
    path = tmp_path / "small_linear.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_certify_homogenizes_linear_terms(capsys, tmp_path, small_path):
    """Linear terms are certified through the homogenization, not dropped."""
    path = _save_small_with_linear_terms(tmp_path, small_path)
    expected = certify(homogenize(load_instance(path)))
    assert expected.verdict is Verdict.NUMERICALLY_EXACT_ONLY
    code, out, _ = _run(capsys, ["certify", path])
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == expected.verdict.value
    assert doc["notes"][0].startswith("linear terms homogenized")
    assert doc["notes"][1:] == expected.notes


def test_solve_homogenizes_linear_terms(capsys, tmp_path, small_path):
    """solve maps the homogenized optimizer back to the original variables."""
    path = _save_small_with_linear_terms(tmp_path, small_path)
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


def test_graph_homogenizes_linear_terms(capsys, tmp_path, small_path):
    """graph reports the homogenized graph that certify works on."""
    path = _save_small_with_linear_terms(tmp_path, small_path)
    expected = build_graph(homogenize(load_instance(path)))
    code, out, err = _run(capsys, ["graph", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["edges"] == [[a + 1, b + 1] for a, b in sorted(expected.edges)]
    assert "vertex 1 is x0" in err


def test_transform_homogenizes_linear_terms(capsys, tmp_path, small_path):
    """transform keeps the linear terms, via the homogenization."""
    path = _save_small_with_linear_terms(tmp_path, small_path)
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


def test_env_tolerance_reflected(capsys, small_path, monkeypatch):
    monkeypatch.setenv("BIPARSDP_TOL", "1e-7")
    code, out, _ = _run(capsys, ["solve", small_path])
    assert code == 0
    assert json.loads(out)["tolerances"]["solver_tol"] == 1e-7

    monkeypatch.setenv("BIPARSDP_TOL", "not-a-number")
    code, _, err = _run(capsys, ["solve", small_path])
    assert code == 1 and "BIPARSDP_TOL" in err

    monkeypatch.setenv("BIPARSDP_TOL", "0.5")
    code, _, err = _run(capsys, ["solve", small_path])
    assert code == 1 and "BIPARSDP_TOL" in err


def test_explicit_tol_overrides_env(capsys, small_path, monkeypatch):
    monkeypatch.setenv("BIPARSDP_TOL", "1e-7")
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
