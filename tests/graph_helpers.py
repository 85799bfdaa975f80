"""Graph helpers only the tests use: small fixed graphs, seeded random
ones, exact and constructed orderings, and the quadratic greedy orderings
that the library's incremental ones are checked against."""

import random
from functools import lru_cache
from itertools import combinations

from toricbases.graphs import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(a, b) for a, b in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def exact_width_ordering(graph: Graph, k: int) -> tuple[int, ...] | None:
    """An elimination ordering whose completion has clique number <= k+1, or
    None if no such ordering exists.

    Branch-and-bound over elimination prefixes with memoisation on the set of
    eliminated vertices (the filled graph depends only on that set, not on
    the order within it).  Intended for graphs with at most ~20 vertices.
    """
    n = graph.num_vertices
    if n == 0:
        return ()
    base = graph.adjacency()
    failed: set[int] = set()

    def search(adj: list[set[int]], mask: int, prefix: list[int]) -> tuple[int, ...] | None:
        if len(prefix) == n:
            return tuple(prefix)
        if mask in failed:
            return None
        for v in range(n):
            if mask >> v & 1:
                continue
            nbrs = adj[v]
            if len(nbrs) > k:
                continue
            nxt = [s.copy() for s in adj]
            ordered = sorted(nbrs)
            for a, b in combinations(ordered, 2):
                nxt[a].add(b)
                nxt[b].add(a)
            for w in ordered:
                nxt[w].discard(v)
            nxt[v].clear()
            prefix.append(v)
            found = search(nxt, mask | (1 << v), prefix)
            if found is not None:
                return found
            prefix.pop()
        failed.add(mask)
        return None

    return search(base, 0, [])


def exact_depth_ordering(graph: Graph, k: int) -> tuple[int, ...] | None:
    """An elimination ordering whose elimination tree has height <= k, or None.

    Exhaustive recursion on connected subgraphs, memoised on vertex subsets;
    limited to 12 vertices (beyond that, use the heuristics).
    """
    n = graph.num_vertices
    if n > 12:
        raise ValueError("exact treedepth search is limited to 12 vertices")
    if n == 0:
        return ()
    adj = graph.adjacency()

    def components(mask: int) -> list[int]:
        comps = []
        todo = mask
        while todo:
            start = (todo & -todo).bit_length() - 1
            comp = 1 << start
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    bit = 1 << w
                    if mask & bit and not comp & bit:
                        comp |= bit
                        stack.append(w)
            comps.append(comp)
            todo &= ~comp
        return comps

    @lru_cache(maxsize=None)
    def best(mask: int) -> tuple[int, tuple[int, ...]]:
        if mask == 0:
            return 0, ()
        comps = components(mask)
        if len(comps) > 1:
            depth = 0
            order: tuple[int, ...] = ()
            for comp in sorted(comps):
                d, o = best(comp)
                depth = max(depth, d)
                order = order + o
            return depth, order
        best_depth, best_order = None, None
        for v in range(n):
            if not mask >> v & 1:
                continue
            d, o = best(mask & ~(1 << v))
            if best_depth is None or d + 1 < best_depth:
                best_depth, best_order = d + 1, o + (v,)
        assert best_depth is not None and best_order is not None
        return best_depth, best_order

    depth, order = best((1 << n) - 1)
    return order if depth <= k else None


def recursive_median_ordering(n: int) -> tuple[int, ...]:
    """Elimination ordering of the n-vertex path 0-1-...-(n-1) that realises
    elimination-tree height ceil(log2(n+1)): recurse into the two halves and
    eliminate the midpoint last."""

    def rec(lo: int, hi: int) -> list[int]:
        if lo > hi:
            return []
        mid = (lo + hi) // 2
        return rec(lo, mid - 1) + rec(mid + 1, hi) + [mid]

    return tuple(rec(0, n - 1))


def ladder_graph(k: int) -> Graph:
    """2 x k grid: top vertices 0..k-1, bottom vertices k..2k-1."""
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def _reference_greedy(graph: Graph, score) -> tuple[int, ...]:
    """Re-score every remaining vertex at every step and eliminate the one
    with the least (score, vertex index)."""
    adj = graph.adjacency()
    remaining = set(range(graph.num_vertices))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (score(adj, u), u))
        order.append(v)
        nbrs = sorted(adj[v])
        for a, b in combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
        for w in nbrs:
            adj[w].discard(v)
        adj[v].clear()
        remaining.discard(v)
    return tuple(order)


def reference_min_degree_ordering(graph: Graph) -> tuple[int, ...]:
    return _reference_greedy(graph, lambda adj, u: len(adj[u]))


def reference_min_fill_ordering(graph: Graph) -> tuple[int, ...]:
    def fill_count(adj, u):
        nbrs = sorted(adj[u])
        return sum(1 for a, b in combinations(nbrs, 2) if b not in adj[a])

    return _reference_greedy(graph, fill_count)
