"""Aggregated sparsity pattern graph and its structural queries.

The graph has a vertex per variable and an edge (i, j) wherever some data
matrix has a nonzero off-diagonal entry at (i, j).  The queries implemented
here (edge signs, signed bipartition, connectivity, cycle basis, forest
test) decide which exactness condition applies to an instance; one signed
2-coloring decides both bipartiteness and the edge-sign cycle condition.
Each graph sorts its edges and walks its BFS spanning forest once, on first
use (`build_graph` hands over the sorted edges it found), and every
structural query reads that one sort and that one walk.

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
    """Vertices 0..n-1, edges (i, j) with i < j, the edges in sorted order
    and the BFS spanning forest, each built once on first use; every
    structural query reads them."""

    n: int
    edges: frozenset[Edge]

    @cached_property
    def sorted_edges(self) -> tuple[tuple[Edge, ...], np.ndarray, np.ndarray]:
        """(edges, rows, cols): the edges in increasing order, as (i, j)
        tuples and as the arrays of their i and of their j."""
        edges = tuple(sorted(self.edges))
        rows, cols = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        return edges, rows, cols

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
        for a, b in self.sorted_edges[0]:
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
    # row-major, so the edges come out sorted (a 2-D nonzero is much slower)
    rows, cols = np.divmod(np.flatnonzero(mask), n)
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    edges = tuple(zip(rows.tolist(), cols.tolist()))
    graph = SparsityGraph(n=n, edges=frozenset(edges))
    graph.__dict__["sorted_edges"] = (edges, rows, cols)  # fills the cached property
    return graph


def edge_signs(inst: QcqpInstance, graph: SparsityGraph) -> dict[Edge, int]:
    """Per-edge sign: +1 if every Qp_ij >= 0, -1 if every <= 0, else 0.

    The sign is nonzero exactly when {Q0_ij, ..., Qm_ij} is sign-definite.
    Exact sign tests are used; the data carries no tolerance.
    """
    edges, rows, cols = graph.sorted_edges
    if not edges:
        return {}
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
    every cycle has sign product (-1)^length.  The first edge (v, w), v in
    BFS order and then w in increasing order, that breaks it closes the
    witness v, ..., lca, ..., w, v, a cycle of the wrong product.  Parts are {s = +1}, {s = -1};
    isolated vertices land in the left part, so no edges gives (V, {}).
    """
    edges, rows, cols = graph.sorted_edges
    if signs is None:
        sigma = np.ones(len(edges), dtype=int)
    else:
        sigma = [signs.get(e) for e in edges]
        if not set(sigma) <= {1, -1}:
            raise ValueError("every edge sign must be +1 or -1")
        sigma = np.array(sigma, dtype=int)
    order, parent, _, _ = graph.bfs_forest
    s = [1] * graph.n
    for v in order:
        p = parent[v]
        if p != -1:
            s[v] = -s[p] if signs is None else -signs[_norm_edge(p, v)] * s[p]
    s = np.array(s)
    broken = s[rows] * s[cols] != -sigma
    if broken.any():
        # each broken edge is met first from its end earlier in BFS order
        rank = np.empty(graph.n, dtype=int)
        rank[order] = np.arange(graph.n)
        a, b = rows[broken], cols[broken]
        a_first = rank[a] < rank[b]
        v, w = np.where(a_first, a, b), np.where(a_first, b, a)
        k = np.lexsort((w, rank[v]))[0]
        v, w = int(v[k]), int(w[k])
        return BipartitionResult(None, (*_tree_path(v, w, parent), v))
    left = frozenset(np.flatnonzero(s == 1).tolist())
    right = frozenset(np.flatnonzero(s == -1).tolist())
    return BipartitionResult((left, right), None)


def cycle_basis(graph: SparsityGraph) -> CycleBasis:
    """Fundamental cycles of a BFS spanning forest.

    Each non-tree edge closes exactly one cycle against the forest, so the
    basis has |E| - n + (#components) cycles.
    """
    _, parent, _, _ = graph.bfs_forest
    cycles = []
    for (a, b) in graph.sorted_edges[0]:
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
