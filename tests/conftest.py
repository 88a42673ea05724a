import importlib.util
import json
import pathlib

import numpy as np
import pytest

from biparsdp import load_instance

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"


def benchmark_module(name):
    """perfbench/<name>.py, loaded from its file: perfbench is not a package."""
    path = INSTANCE_DIR.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_draws(workload, seed, folder):
    """The instances of one round of the benchmark workload (generated by
    perfbench/workloads.py), each written to a file in `folder` and loaded
    from it."""
    workloads = benchmark_module("workloads")
    draws = []
    for draw in workloads.generate(workload, seed):
        (folder / "draw.json").write_text(json.dumps(draw.doc))
        draws.append(load_instance(folder / "draw.json"))
    return draws


def forbid_engine(monkeypatch, message="an SDP was solved"):
    """Fail the test with `message` at any engine run from now on.  The
    patch is on the module whose functions make the runs (`_engine`), so
    that no run slips past it."""
    def no_engine(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr(importlib.import_module("biparsdp._engine"), "solve_standard_form",
                        no_engine)


@pytest.fixture(scope="session")
def small():
    """Two-variable instance with a single sign-indefinite edge."""
    return load_instance(INSTANCE_DIR / "small.json")


@pytest.fixture(scope="session")
def cycle4():
    """Four-variable instance whose sparsity graph is a 4-cycle."""
    return load_instance(INSTANCE_DIR / "cycle4.json")


@pytest.fixture(scope="session")
def small_path():
    return str(INSTANCE_DIR / "small.json")


@pytest.fixture(scope="session")
def cycle4_path():
    return str(INSTANCE_DIR / "cycle4.json")


# reference optimizers for the two bundled instances
SMALL_XSTAR = np.array([1.731, -1.167])
CYCLE4_XSTAR = np.array([7.818, -8.331, 1.721, -7.019])
CYCLE4_XMAT = np.array([
    [61.12, -65.13, 13.45, -54.87],
    [-65.13, 69.41, -14.34, 58.48],
    [13.45, -14.34, 2.961, -12.08],
    [-54.87, 58.48, -12.08, 49.27],
])
CYCLE4_MU = {(0, 1): 18.58, (1, 2): 12.84, (0, 3): 8.897, (2, 3): 0.3215}


def max_sign_error(x, ref):
    """Max coordinate error of x against ref, up to a global sign."""
    x = np.asarray(x)
    ref = np.asarray(ref)
    return min(np.max(np.abs(x - ref)), np.max(np.abs(x + ref)))


def bipartite_by_exhaustion(g):
    """Brute-force 2-colorability of a SparsityGraph over all colorings."""
    for bits in range(2 ** g.n):
        colors = [(bits >> v) & 1 for v in range(g.n)]
        if all(colors[a] != colors[b] for a, b in g.edges):
            return True
    return False


def vertex_signs_hold(report, n):
    """The report's vertex signs are n entries of +-1 with s_k s_l = -sigma_kl
    on every edge of its sign summary."""
    s = report.vertex_signs
    return (
        s is not None
        and len(s) == n
        and set(s) <= {1, -1}
        and all(s[k] * s[l] == -sigma for (k, l), sigma in report.sign_summary.items())
    )
