"""Aggregated sparsity pattern graph and its structural queries.

The graph has a vertex per variable and an edge (i, j) wherever some data
matrix has a nonzero off-diagonal entry at (i, j).  The queries implemented
here (edge signs, signed bipartition, connectivity, cycle basis, forest
test) decide which exactness condition applies to an instance; one signed
2-coloring decides both bipartiteness and the edge-sign cycle condition.
Each graph walks its BFS spanning forest once, on first use, and every
structural query reads that one walk.

Vertices are 0-based internally; the CLI layer converts to 1-based output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import QcqpInstance

Edge = tuple[int, int]


def _norm_edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class SparsityGraph:
    """Vertices 0..n-1, edges (i, j) with i < j, and the BFS spanning forest,
    walked once on first use; every structural query reads that walk."""

    n: int
    edges: frozenset[Edge]

    @cached_property
    def bfs_forest(self) -> tuple[list[int], list[int], list[int], list[list[int]]]:
        """(order, parent, depth, adj) of the breadth-first spanning forest.

        Each unvisited vertex, in increasing order, roots a tree; the queue
        is FIFO and neighbours are visited in increasing order.  order lists
        the vertices as visited, so each tree is a run from its root (depth
        0); parent is -1 at a root; the adjacency lists come out sorted, as
        the edges are added in sorted order.
        """
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in sorted(self.edges):
            adj[a].append(b)
            adj[b].append(a)
        parent = [-1] * self.n
        depth = [-1] * self.n
        order: list[int] = []
        for start in range(self.n):
            if depth[start] != -1:
                continue
            depth[start] = 0
            head = len(order)
            order.append(start)
            while head < len(order):
                v = order[head]
                head += 1
                for w in adj[v]:
                    if depth[w] == -1:
                        depth[w], parent[w] = depth[v] + 1, v
                        order.append(w)
        return order, parent, depth, adj


@dataclass(frozen=True)
class BipartitionResult:
    parts: tuple[frozenset[int], frozenset[int]] | None
    witness: tuple[int, ...] | None  # cycle v0, ..., vk = v0 of the wrong sign product

    @property
    def bipartite(self) -> bool:
        return self.parts is not None


@dataclass(frozen=True)
class CycleBasis:
    cycles: tuple[tuple[Edge, ...], ...]


def build_graph(inst: QcqpInstance) -> SparsityGraph:
    """Edge (i, j) present iff Qp_ij != 0 for some p in 0..m: the data are
    taken exactly, so an entry of 1e-12 is an edge."""
    n = inst.n
    mask = np.zeros((n, n), dtype=bool)
    for Q in inst.all_matrices():
        mask |= Q != 0
    rows, cols = np.nonzero(np.triu(mask, 1))
    return SparsityGraph(n=n, edges=frozenset(zip(rows.tolist(), cols.tolist())))


def edge_signs(inst: QcqpInstance, graph: SparsityGraph) -> dict[Edge, int]:
    """Per-edge sign: +1 if every Qp_ij >= 0, -1 if every <= 0, else 0.

    The sign is nonzero exactly when {Q0_ij, ..., Qm_ij} is sign-definite.
    Exact sign tests are used; the data carries no tolerance.
    """
    edges = sorted(graph.edges)
    if not edges:
        return {}
    rows, cols = np.array(edges).T
    vals = np.array([Q[rows, cols] for Q in inst.all_matrices()])
    signs = np.where(np.all(vals >= 0, axis=0), 1,
                     np.where(np.all(vals <= 0, axis=0), -1, 0))
    return dict(zip(edges, signs.tolist()))


def _tree_path(a: int, b: int, parent: list[int]) -> list[int]:
    """Vertices of the tree path a, ..., lca(a, b), ..., b."""
    up_a = [a]
    while parent[up_a[-1]] != -1:
        up_a.append(parent[up_a[-1]])
    index = {v: i for i, v in enumerate(up_a)}
    up_b = [b]
    while up_b[-1] not in index:
        up_b.append(parent[up_b[-1]])
    return up_a[: index[up_b[-1]] + 1] + up_b[-2::-1]


def connected_components(graph: SparsityGraph) -> list[frozenset[int]]:
    """Components ordered by their smallest vertex."""
    order, _, depth, _ = graph.bfs_forest
    comps: list[list[int]] = []
    for v in order:
        if depth[v] == 0:
            comps.append([])
        comps[-1].append(v)
    return [frozenset(c) for c in comps]


def bipartition(
    graph: SparsityGraph, signs: dict[Edge, int] | None = None
) -> BipartitionResult:
    """Signed BFS 2-coloring per component; parts, or a witness cycle.

    Vertex signs run along the BFS forest: s = +1 at each root, s_child =
    -sigma * s_parent.  signs gives each edge's sigma, +1 or -1 (else
    ValueError); None is sigma = +1, a plain 2-coloring.  By Harary's
    balance theorem, s_k s_l = -sigma_kl can hold on every edge exactly when
    every cycle has sign product (-1)^length.  The first edge (v, w), in BFS
    order of v and then of w, that breaks it closes the witness v, ..., lca,
    ..., w, v, a cycle of the wrong product.  Parts are {s = +1}, {s = -1};
    isolated vertices land in the left part, so no edges gives (V, {}).
    """
    if signs is None:
        signs = dict.fromkeys(graph.edges, 1)
    elif any(signs.get(e) not in (1, -1) for e in graph.edges):
        raise ValueError("every edge sign must be +1 or -1")
    order, parent, _, adj = graph.bfs_forest
    s = [1] * graph.n
    for v in order:
        if parent[v] != -1:
            s[v] = -signs[_norm_edge(parent[v], v)] * s[parent[v]]
    for v in order:
        for w in adj[v]:
            if s[v] * s[w] != -signs[_norm_edge(v, w)]:
                return BipartitionResult(None, (*_tree_path(v, w, parent), v))
    left = frozenset(i for i in range(graph.n) if s[i] == 1)
    right = frozenset(i for i in range(graph.n) if s[i] == -1)
    return BipartitionResult((left, right), None)


def cycle_basis(graph: SparsityGraph) -> CycleBasis:
    """Fundamental cycles of a BFS spanning forest.

    Each non-tree edge closes exactly one cycle against the forest, so the
    basis has |E| - n + (#components) cycles.
    """
    _, parent, _, _ = graph.bfs_forest
    cycles = []
    for (a, b) in sorted(graph.edges):
        if parent[a] == b or parent[b] == a:
            continue
        verts = _tree_path(a, b, parent)
        cyc = [_norm_edge(u, w) for u, w in zip(verts, verts[1:])]
        cyc.append((a, b))
        cycles.append(tuple(cyc))
    return CycleBasis(cycles=tuple(cycles))


def is_forest(graph: SparsityGraph) -> bool:
    """True iff every edge is one of the n - (#roots) BFS forest edges."""
    _, parent, _, _ = graph.bfs_forest
    return len(graph.edges) == graph.n - parent.count(-1)
