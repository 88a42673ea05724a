import pathlib

import numpy as np
import pytest

from biparsdp import load_instance

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"


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
