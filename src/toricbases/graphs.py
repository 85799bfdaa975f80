"""Column and row graphs of sparse matrices, elimination orderings, chordal
completions, elimination trees, and treewidth/treedepth estimates.

The elimination structure computed here is the backbone of the kernel-lattice
join tree: the clique of each vertex becomes a bag, and the elimination-tree
parent relation becomes the tree.
"""

from __future__ import annotations

import heapq
import operator
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .core import Frozen, SparseIntMatrix, data_lines, int_from_text


class Graph(Frozen):
    """Simple undirected graph on vertices 0..num_vertices-1.  The edges, any
    iterable of vertex pairs, are checked and stored as ``(a, b)`` with a < b."""

    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]]):
        num_vertices = operator.index(num_vertices)
        if num_vertices < 0:
            raise ValueError(f"vertex count must be nonnegative, got {num_vertices}")
        norm = set()
        for a, b in edges:
            a, b = operator.index(a), operator.index(b)
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise ValueError(f"edge ({a},{b}) out of range")
            norm.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(num_vertices, edges)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def num_edges(self) -> int:
        return len(self.edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def column_graph(A: SparseIntMatrix) -> Graph:
    """Graph on the columns of A; two columns are adjacent when some row has
    nonzeros in both."""
    edges = set()
    for i in range(A.num_rows):
        support = [j for j, _ in A.row(i)]
        edges.update(combinations(support, 2))
    return Graph(A.num_cols, edges)


def row_graph(A: SparseIntMatrix) -> Graph:
    """Graph on the rows of A; equals the column graph of the transpose."""
    return column_graph(A.transpose())


# ---------------------------------------------------------------------------
# elimination


class EliminationStructure(Frozen):
    """Result of eliminating a graph along a fixed vertex ordering.

    ``cliques[l]`` is ``(v, *later)``: the vertex v eliminated at step l,
    then its not-yet-eliminated neighbours in the completed graph, in
    elimination order; each is a clique of the completion.  ``position`` and
    ``parent`` are indexed by vertex: ``parent[v]`` is the first of v's later
    neighbours, or None when there is none and v is a root (the completion
    of a disconnected graph yields a forest).
    """

    __slots__ = ("ordering", "position", "cliques", "fill_edges", "clique_number", "parent", "height")

    def __init__(
        self,
        ordering: tuple[int, ...],
        position: tuple[int, ...],
        cliques: tuple[tuple[int, ...], ...],
        fill_edges: frozenset[tuple[int, int]],
        clique_number: int,
        parent: tuple[int | None, ...],
        height: int,
    ):
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "cliques", cliques)
        object.__setattr__(self, "fill_edges", fill_edges)
        object.__setattr__(self, "clique_number", clique_number)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "height", height)


def eliminate(graph: Graph, ordering: Sequence[int]) -> EliminationStructure:
    """Chordally complete the graph along the ordering and build the
    elimination tree."""
    n = graph.num_vertices
    ordering = tuple(map(operator.index, ordering))
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of the vertices")
    position = [0] * n
    for l, v in enumerate(ordering):
        position[v] = l

    adj = graph.adjacency()
    fill: set[tuple[int, int]] = set()
    cliques: list[tuple[int, ...]] = []
    parent: list[int | None] = [None] * n
    for v in ordering:
        later = sorted(adj[v], key=position.__getitem__)
        cliques.append((v, *later))
        parent[v] = later[0] if later else None
        for a, b in combinations(later, 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fill.add((a, b) if a < b else (b, a))
        for w in later:
            adj[w].discard(v)
        adj[v].clear()

    depth = [0] * n
    for v in reversed(ordering):
        depth[v] = 1 if parent[v] is None else depth[parent[v]] + 1

    return EliminationStructure(
        ordering=ordering,
        position=tuple(position),
        cliques=tuple(cliques),
        fill_edges=frozenset(fill),
        clique_number=max(map(len, cliques), default=0),
        parent=tuple(parent),
        height=max(depth, default=0),
    )


# ---------------------------------------------------------------------------
# ordering heuristics

MIN_DEGREE = "min-degree"
MIN_FILL = "min-fill"


def _greedy_ordering(graph: Graph, score: Callable[[list[set[int]], int], int]) -> tuple[int, ...]:
    """Eliminate, at every step, the remaining vertex with the least
    (score, vertex index) in the current filled graph.

    Eliminating v changes the adjacency of v's neighbours only, and adds
    edges only among them, so a score that reads a vertex's neighbourhood
    can change only for them and their neighbours; just those are re-scored.
    Scores live in a heap whose outdated entries are skipped when popped.
    """
    adj = graph.adjacency()
    current = [score(adj, u) for u in range(graph.num_vertices)]
    heap = [(key, u) for u, key in enumerate(current)]
    heapq.heapify(heap)
    eliminated = [False] * graph.num_vertices
    order = []
    while heap:
        key, v = heapq.heappop(heap)
        if eliminated[v] or key != current[v]:
            continue
        eliminated[v] = True
        order.append(v)
        nbrs = adj[v]
        for a in nbrs:
            adj[a] |= nbrs
            adj[a].discard(a)
            adj[a].discard(v)
        adj[v] = set()
        touched = set(nbrs)
        for a in nbrs:
            touched |= adj[a]
        for u in touched:
            key = score(adj, u)
            if key != current[u]:
                current[u] = key
                heapq.heappush(heap, (key, u))
    return tuple(order)


def _degree(adj: list[set[int]], u: int) -> int:
    return len(adj[u])


def _fill(adj: list[set[int]], u: int) -> int:
    """Number of non-adjacent pairs among u's neighbours."""
    nbrs = adj[u]
    k = len(nbrs)
    return (k * (k - 1) - sum(len(adj[a] & nbrs) for a in nbrs)) // 2


def min_degree_ordering(graph: Graph) -> tuple[int, ...]:
    """Greedy minimum-degree elimination; ties broken by lowest vertex index."""
    return _greedy_ordering(graph, _degree)


def min_fill_ordering(graph: Graph) -> tuple[int, ...]:
    """Greedy minimum-fill elimination; ties broken by lowest vertex index."""
    return _greedy_ordering(graph, _fill)


def heuristic_ordering(graph: Graph, strategy: str) -> tuple[int, ...]:
    """The ordering of a named strategy, MIN_DEGREE or MIN_FILL."""
    if strategy == MIN_DEGREE:
        return min_degree_ordering(graph)
    if strategy == MIN_FILL:
        return min_fill_ordering(graph)
    raise ValueError(f"unknown ordering strategy {strategy!r}")


def treewidth_estimate(graph: Graph, ordering: Sequence[int]) -> int:
    """Upper bound on the treewidth: clique number of the completion, minus one."""
    return eliminate(graph, ordering).clique_number - 1


def treedepth_estimate(graph: Graph, ordering: Sequence[int]) -> int:
    """Upper bound on the treedepth: height of the elimination tree."""
    return eliminate(graph, ordering).height


# ---------------------------------------------------------------------------
# graph file format (one 0-based edge "u v" per line)


def edge_list_from_text(text: str) -> Graph:
    edges = []
    for parts in data_lines(text):
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {' '.join(parts)!r}")
        edges.append(tuple(map(int_from_text, parts)))
    return Graph(max(map(max, edges), default=-1) + 1, edges)
