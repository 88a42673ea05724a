"""Tests for the aggregated sparsity graph and its structural queries."""

import itertools

import numpy as np
import pytest

from biparsdp import (
    QcqpInstance,
    SparsityGraph,
    bipartition,
    build_graph,
    connected_components,
    cycle_basis,
    edge_signs,
    is_forest,
)

from conftest import bipartite_by_exhaustion


def _instance_from_pattern(M):
    """Instance with a single constraint carrying the given symmetric pattern."""
    M = np.asarray(M, dtype=float)
    return QcqpInstance(
        objective=np.zeros_like(M),
        constraint_matrices=(M,),
        rhs=np.array([1.0]),
    )


def test_build_graph_cycle4(cycle4):
    """The 4-variable instance aggregates to a 4-cycle."""
    g = build_graph(cycle4)
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_build_graph_union_over_all_matrices():
    """An edge appears if any matrix, including the objective, has the entry."""
    Q0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = QcqpInstance(
        objective=Q0, constraint_matrices=(np.eye(2),), rhs=np.array([1.0])
    )
    assert build_graph(inst).edges == frozenset({(0, 1)})


def test_build_graph_diagonal_only():
    """Diagonal data gives an empty edge set."""
    inst = _instance_from_pattern(np.diag([1.0, 2.0, 3.0]))
    g = build_graph(inst)
    assert g.edges == frozenset()
    assert is_forest(g)
    assert bipartition(g).parts == (frozenset({0, 1, 2}), frozenset())


def test_edge_signs(small, cycle4):
    """Signs are +1/-1 when all entries agree and 0 for mixed edges."""
    signs = edge_signs(small, build_graph(small))
    assert signs == {(0, 1): 0}  # -1 in the objective, +4 in the constraint

    signs = edge_signs(cycle4, build_graph(cycle4))
    assert signs[(0, 1)] == 0 and signs[(1, 2)] == 0

    M = np.array([[0.0, -2.0, 0.0], [-2.0, 0.0, 3.0], [0.0, 3.0, 0.0]])
    signs = edge_signs(_instance_from_pattern(M), build_graph(_instance_from_pattern(M)))
    assert signs == {(0, 1): -1, (1, 2): 1}


def test_bipartition_cycle4(cycle4):
    """The 4-cycle splits into {0, 2} and {1, 3}."""
    bip = bipartition(build_graph(cycle4))
    assert bip.bipartite
    assert set(map(frozenset, bip.parts)) == {frozenset({0, 2}), frozenset({1, 3})}


def test_bipartition_triangle_witness():
    """A triangle is rejected with a valid odd closed walk."""
    g = SparsityGraph(n=3, edges=frozenset({(0, 1), (1, 2), (0, 2)}))
    bip = bipartition(g)
    assert not bip.bipartite
    walk = bip.witness
    assert walk[0] == walk[-1]
    assert len(walk) % 2 == 0  # k+1 vertices listed for an odd closed walk
    for a, b in zip(walk, walk[1:]):
        assert (min(a, b), max(a, b)) in g.edges
    assert walk == (1, 0, 2, 1)  # first same-depth edge in BFS order

    pentagon = SparsityGraph(
        n=7, edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6), (1, 5)})
    )
    assert bipartition(pentagon).witness == (2, 1, 0, 4, 3, 2)
    assert cycle_basis(pentagon).cycles == (((1, 2), (0, 1), (0, 4), (3, 4), (2, 3)),)


def test_connected_components_ordering():
    """Components come back ordered by smallest vertex."""
    g = SparsityGraph(n=5, edges=frozenset({(1, 3), (0, 4)}))
    comps = connected_components(g)
    assert comps == [frozenset({0, 4}), frozenset({1, 3}), frozenset({2})]


def test_cycle_basis_counts():
    """|E| - n + #components fundamental cycles; each closes a non-tree edge."""
    k4 = SparsityGraph(
        n=4, edges=frozenset(itertools.combinations(range(4), 2))
    )
    basis = cycle_basis(k4)
    assert basis.cycles == (
        ((0, 1), (0, 2), (1, 2)),
        ((0, 1), (0, 3), (1, 3)),
        ((0, 2), (0, 3), (2, 3)),
    )
    for cyc in basis.cycles:
        assert len(cyc) >= 3
        # consecutive edges chain into a closed walk: each vertex seen twice
        count = {}
        for a, b in cyc:
            count[a] = count.get(a, 0) + 1
            count[b] = count.get(b, 0) + 1
        assert all(c == 2 for c in count.values())

    tree = SparsityGraph(n=4, edges=frozenset({(0, 1), (1, 2), (1, 3)}))
    assert cycle_basis(tree).cycles == ()
    assert is_forest(tree)
    assert not is_forest(k4)


def test_bipartite_iff_even_basis_cycles():
    """A graph is bipartite exactly when every fundamental cycle is even."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        }
        g = SparsityGraph(n=n, edges=frozenset(edges))
        basis = cycle_basis(g)
        all_even = all(len(c) % 2 == 0 for c in basis.cycles)
        assert bipartition(g).bipartite == all_even


def test_bipartition_matches_exhaustive_coloring():
    """BFS 2-coloring agrees with exhaustive search on small random graphs."""
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 11))
        p = rng.uniform(0.1, 0.6)
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        }
        g = SparsityGraph(n=n, edges=frozenset(edges))
        assert bipartition(g).bipartite == bipartite_by_exhaustion(g)


def _union_find(g):
    """(components ordered by smallest vertex, acyclic) of a SparsityGraph:
    an edge inside one set closes a cycle."""
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    acyclic = True
    for a, b in sorted(g.edges):
        ra, rb = find(a), find(b)
        acyclic &= ra != rb
        root[ra] = rb
    comps = {}
    for v in range(g.n):
        comps.setdefault(find(v), set()).add(v)
    return sorted(map(frozenset, comps.values()), key=min), acyclic


def test_components_and_forest_match_union_find():
    """Components and the forest test agree with a union-find oracle on
    random graphs, isolated vertices included."""
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 12))
        p = rng.uniform(0.0, 0.5)
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        )
        g = SparsityGraph(n=n, edges=edges)
        comps, acyclic = _union_find(g)
        assert connected_components(g) == comps
        assert is_forest(g) == acyclic
        seen.add((acyclic, any(len(c) == 1 for c in comps)))
    assert len(seen) == 4  # forests and not, with and without isolated vertices


def test_build_graph_and_signs_match_entrywise_definition():
    """The vectorised queries agree with a loop over entries and matrices."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        mats = []
        for _ in range(int(rng.integers(1, 4))):
            M = rng.choice([-1.5, 0.0, 0.0, 2.0], size=(n, n))
            mats.append(M + M.T)
        inst = QcqpInstance(
            objective=mats[0],
            constraint_matrices=tuple(mats[1:]) or (np.eye(n),),
            rhs=np.ones(max(len(mats) - 1, 1)),
        )
        Qs = inst.all_matrices()
        edges = {
            (i, j) for i in range(n) for j in range(i + 1, n)
            if any(Q[i, j] != 0 for Q in Qs)
        }
        g = build_graph(inst)
        assert g.edges == frozenset(edges)
        signs = edge_signs(inst, g)
        assert list(signs) == sorted(edges)
        for (i, j), sign in signs.items():
            vals = [Q[i, j] for Q in Qs]
            expected = 1 if min(vals) >= 0 else -1 if max(vals) <= 0 else 0
            assert sign == expected and type(sign) is int


def test_build_graph_keeps_tiny_entries():
    """The data are taken exactly: an entry of 1e-12 is an edge."""
    M = np.array([[0.0, 1e-12], [1e-12, 0.0]])
    assert build_graph(_instance_from_pattern(M)).edges == frozenset({(0, 1)})


def _random_signed_graph(rng):
    """Random graph on up to 10 vertices (isolated vertices and several
    components included) with random +-1 edge signs."""
    n = int(rng.integers(1, 11))
    p = rng.uniform(0.05, 0.6)
    edges = sorted(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    signs = {e: int(rng.choice([-1, 1])) for e in edges}
    return SparsityGraph(n=n, edges=frozenset(edges)), signs


def _sign_product(signs, walk):
    return int(np.prod([signs[min(a, b), max(a, b)] for a, b in zip(walk, walk[1:])]))


def _first_broken_edge_by_loop(g, signs):
    """The loop the vectorized edge check replaced: vertex signs along the
    BFS forest, then the first edge (v, w), v in BFS order and w along v's
    sorted neighbours, with s_v s_w != -sigma_vw; None when there is none."""
    order, parent, _, adj = g.bfs_forest
    s = [1] * g.n
    for v in order:
        if parent[v] != -1:
            s[v] = -signs[min(parent[v], v), max(parent[v], v)] * s[parent[v]]
    for v in order:
        for w in adj[v]:
            if s[v] * s[w] != -signs[min(v, w), max(v, w)]:
                return v, w
    return None


def test_signed_bipartition_decides_the_cycle_condition():
    """The signed coloring succeeds exactly when every basis cycle has sign
    product (-1)^length.  On success its parts give vertex signs with
    s_k s_l = -sigma_kl; on failure the witness is a closed walk along edges
    whose product is not (-1)^length, closed by the first broken edge the
    per-edge loop meets."""
    rng = np.random.default_rng(23)
    outcomes = set()
    for _ in range(400):
        g, signs = _random_signed_graph(rng)
        res = bipartition(g, signs)
        broken = _first_broken_edge_by_loop(g, signs)
        assert res.bipartite == (broken is None)
        if broken is not None:  # the witness is closed by that edge
            assert (res.witness[0], res.witness[-2]) == broken
        condition = all(
            np.prod([signs[e] for e in cyc]) == (-1) ** len(cyc)
            for cyc in cycle_basis(g).cycles
        )
        assert res.bipartite == condition
        outcomes.add(res.bipartite)
        if res.bipartite:
            left, right = res.parts
            assert left | right == set(range(g.n)) and not left & right
            s = [1 if v in left else -1 for v in range(g.n)]
            assert all(s[k] * s[l] == -sigma for (k, l), sigma in signs.items())
        else:
            walk = res.witness
            assert walk[0] == walk[-1]
            assert all((min(a, b), max(a, b)) in g.edges for a, b in zip(walk, walk[1:]))
            assert _sign_product(signs, walk) != (-1) ** (len(walk) - 1)
    assert outcomes == {True, False}


def test_bipartition_default_signs_are_plus_one():
    """signs=None is sigma = +1 on every edge: the same parts and witness."""
    rng = np.random.default_rng(29)
    for _ in range(100):
        g, _ = _random_signed_graph(rng)
        assert bipartition(g) == bipartition(g, dict.fromkeys(g.edges, 1))


def test_bipartition_refuses_signs_other_than_plus_minus_one():
    """A mixed edge (sigma = 0), any other value or a missing edge raises."""
    g = SparsityGraph(n=3, edges=frozenset({(0, 1), (1, 2)}))
    for bad in ({(0, 1): 1, (1, 2): 0}, {(0, 1): 2, (1, 2): -1}, {(0, 1): 1}):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            bipartition(g, bad)
