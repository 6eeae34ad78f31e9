"""Deficiency (non-collinearity) graphs and their classification.

The deficiency graph of a design joins two points exactly when no line
contains both.  For a pentagonal geometry it decomposes into complete
bipartite K_{k,k} components (one per opposite line pair) plus k-regular
components of girth at least 5.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .core import Design, PairCoverage, ParseError, Schema, kind_is, read_records

INFINITE_GIRTH = math.inf


class MoorePreconditionError(ValueError):
    """Input graph fails one of the Moore graph properties."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        seen = set()
        for u, w in edges:
            if u == w:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"edge ({u},{w}) out of range for n={n}")
            seen.add((min(u, w), max(u, w)))
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, w in seen:
            nbrs[u].append(w)
            nbrs[w].append(u)
        return cls(n=n,
                   edges=tuple(sorted(seen)),
                   neighbors=tuple(tuple(sorted(ns)) for ns in nbrs))

    def degrees(self) -> list[int]:
        return [len(ns) for ns in self.neighbors]

    def is_regular(self, k: int | None = None) -> bool:
        degs = set(self.degrees())
        if len(degs) > 1:
            return False
        if k is None:
            return True
        return not degs or degs == {k}


def build_deficiency(d: Design) -> Graph:
    """Graph on the points with an edge exactly where no line covers the pair."""
    cov = PairCoverage.of(d)
    edges = [(x, y) for x in range(d.v) for y in range(x + 1, d.v)
             if cov.count(x, y) == 0]
    return Graph.from_edges(d.v, edges)


def _bfs_shortest_cycle_through(g: Graph, root: int, cutoff: float) -> float:
    # Shortest cycle through root via BFS; edges between equal/adjacent levels
    # close a cycle of length dist[u]+dist[w]+1.
    dist = {root: 0}
    parent = {root: -1}
    best = cutoff
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if 2 * dist[u] + 1 >= best:
            break
        for w in g.neighbors[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
            elif parent[u] != w and parent[w] != u:
                best = min(best, dist[u] + dist[w] + 1)
    return best


def girth(g: Graph) -> int | float:
    """Length of the shortest cycle; math.inf for forests."""
    best: float = INFINITE_GIRTH
    for root in range(g.n):
        best = _bfs_shortest_cycle_through(g, root, best)
        if best == 3:
            break
    return int(best) if best != INFINITE_GIRTH else INFINITE_GIRTH


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def subgraph(g: Graph, vertices: tuple[int, ...]) -> Graph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[u], index[w]) for u, w in g.edges
             if u in index and w in index]
    return Graph.from_edges(len(vertices), edges)


def _is_complete_bipartite_kk(comp_graph: Graph, k: int) -> bool:
    if comp_graph.n != 2 * k:
        return False
    # 2-color by BFS, then demand both sides of size k and all k*k cross edges.
    color = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in comp_graph.neighbors[u]:
            if w not in color:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return False
    if len(color) != comp_graph.n:
        return False
    side = sum(color.values())
    return side == k and len(comp_graph.edges) == k * k


@dataclass(frozen=True)
class ComponentClassification:
    components: tuple[tuple[tuple[int, ...], str, object], ...]
    k_kk_count: int
    girth5plus_count: int
    other_count: int

    @property
    def clean(self) -> bool:
        return self.other_count == 0


def classify(g: Graph, k: int) -> ComponentClassification:
    """Tag each component as K_{k,k}, girth >= 5, or other (with its girth)."""
    tagged = []
    kk = g5 = other = 0
    for comp in components(g):
        sub = subgraph(g, comp)
        if _is_complete_bipartite_kk(sub, k):
            tagged.append((comp, "K_kk", k))
            kk += 1
        else:
            gir = girth(sub)
            if gir >= 5 and sub.is_regular(k):
                tagged.append((comp, "girth5plus", gir))
                g5 += 1
            else:
                tagged.append((comp, "other", gir))
                other += 1
    return ComponentClassification(components=tuple(tagged), k_kk_count=kk,
                                   girth5plus_count=g5, other_count=other)


def moore_pent(g: Graph, k: int) -> Design:
    """Turn a Moore graph into a pentagonal geometry: lines = neighborhoods."""
    if g.n != k * k + 1:
        raise MoorePreconditionError(
            f"need {k * k + 1} vertices for k={k}, got {g.n}")
    if not g.is_regular(k):
        raise MoorePreconditionError(f"graph is not {k}-regular")
    gir = girth(g)
    if gir != 5:
        raise MoorePreconditionError(f"girth is {gir}, need 5")
    return Design.make(v=g.n, k=k, lines=[ns for ns in g.neighbors],
                       r_claimed=k, kind="pent")


def petersen() -> Graph:
    """The Petersen graph on 0..9: outer C5, inner pentagram, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _edge(value: str) -> tuple[int, int]:
    u, w = map(int, value.split())
    return u, w


GRAPH = Schema("graph", header={"kind": (kind_is("graph"), True), "v": (int, True)},
               repeated={"edge": _edge})


def parse_graph(text: str) -> Graph:
    """Parse the graph file format: kind/v header plus edge records."""
    f = read_records(text, GRAPH)
    try:
        return Graph.from_edges(f["v"], f["edge"])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_graph(g: Graph) -> str:
    out = ["kind: graph", f"v: {g.n}"]
    out += [f"edge: {u} {w}" for u, w in g.edges]
    return "\n".join(out) + "\n"
