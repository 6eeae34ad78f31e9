"""Deficiency (non-collinearity) graphs and their classification.

The deficiency graph of a design joins two points exactly when no line
contains both.  For a pentagonal geometry it decomposes into complete
bipartite K_{k,k} components (one per opposite line pair) plus k-regular
components of girth at least 5.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple

from .core import Design, DesignError, Schema, kind_is, read_file

INFINITE_GIRTH = math.inf


class MoorePreconditionError(ValueError):
    """Input graph fails one of the Moore graph properties."""


class Graph(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        seen = set()
        for i, (u, w) in enumerate(edges):
            if u == w:
                raise DesignError(f"loop at vertex {u}", where=i)
            if not (0 <= u < n and 0 <= w < n):
                raise DesignError(f"edge ({u},{w}) out of range for n={n}", where=i)
            seen.add((min(u, w), max(u, w)))
        # Only the endpoints of edges get a list; the other vertices share the
        # one empty tuple, so a large n with few edges costs n references.
        nbrs: dict[int, list[int]] = {}
        for u, w in seen:
            nbrs.setdefault(u, []).append(w)
            nbrs.setdefault(w, []).append(u)
        neighbors: list[tuple[int, ...]] = [()] * n
        for u, ns in nbrs.items():
            neighbors[u] = tuple(sorted(ns))
        return cls(n=n, edges=tuple(sorted(seen)), neighbors=tuple(neighbors))

    def is_regular(self, k: int) -> bool:
        return set(map(len, self.neighbors)) <= {k}


def build_deficiency(d: Design) -> Graph:
    """Graph on the points with an edge exactly where no line covers the pair.

    A point's neighbours are its opposite set, read from the design's
    incidence index; the graph is made once and kept on that index, so later
    calls return the same Graph.
    """
    incidence = d.incidence
    if incidence.deficiency is None:
        opposites = incidence.opposites
        edges = tuple((x, y) for x, opp in enumerate(opposites) for y in opp if x < y)
        incidence.deficiency = Graph(n=d.v, edges=edges, neighbors=opposites)
    return incidence.deficiency


class _Masks(dict):
    """Each vertex's neighbours as a bitmask, made on first use, so a BFS
    that stays in one component reads only that component's vertices."""

    def __init__(self, neighbors: tuple[tuple[int, ...], ...]):
        self.neighbors = neighbors

    def __missing__(self, u: int) -> int:
        mask = self[u] = sum(map((1).__lshift__, self.neighbors[u]))
        return mask


def _shortest_cycle_through(adj: _Masks, root: int, cutoff: float) -> float:
    """The shortest cycle a BFS from `root` closes, or `cutoff` if none is
    shorter.  `adj` holds each vertex's neighbours as a bitmask.  Of the BFS
    layers, an edge inside layer d closes a cycle of length 2d+1, and a
    vertex of layer d+1 with two neighbours in layer d one of length 2d+2."""
    seen = layer = 1 << root
    depth = 0
    while layer and 2 * depth + 1 < cutoff:
        below = twice = 0
        rest = layer
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1]
            if nbrs & layer:
                return 2 * depth + 1
            fresh = nbrs & ~seen
            twice |= below & fresh
            below |= fresh
        if twice:
            return 2 * depth + 2  # at most cutoff, as 2 * depth + 1 < cutoff
        seen |= below
        layer = below
        depth += 1
    return cutoff


def girth(g: Graph, roots: Iterable[int] | None = None) -> int | float:
    """Length of the shortest cycle through any of `roots` (every vertex by
    default), so the roots of one component give its girth; math.inf for
    forests."""
    adj = _Masks(g.neighbors)
    best: float = INFINITE_GIRTH
    for root in range(g.n) if roots is None else roots:
        best = _shortest_cycle_through(adj, root, best)
        if best == 3:
            break
    return int(best) if best != INFINITE_GIRTH else INFINITE_GIRTH


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    seen, neighbors = [False] * g.n, g.neighbors
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in neighbors[u]:
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
    edges = [(index[u], index[w]) for u in vertices for w in g.neighbors[u]
             if u < w and w in index]
    return Graph.from_edges(len(vertices), edges)


class ComponentClassification(NamedTuple):
    """Each component with its tag and girth, the tag counts, the least
    component girth (the girth of the whole graph) and whether there is at
    most one component."""
    components: tuple[tuple[tuple[int, ...], str, int | float], ...]
    k_kk_count: int
    girth5plus_count: int
    other_count: int
    girth: int | float
    connected: bool

    @property
    def clean(self) -> bool:
        return self.other_count == 0


def classify(g: Graph, k: int) -> ComponentClassification:
    """Tag each component as K_kk, girth5plus or other, with its girth.

    A component with 2k vertices, k*k edges and no triangle is K_{k,k}: by
    Mantel's theorem a triangle-free graph on 2k vertices has at most k*k
    edges, and only K_{k,k} attains that.  A component is closed under
    adjacency, so it is read in place: its degrees are its vertices'
    degrees in g and its edges half their sum.
    """
    tagged = []
    counts = {"K_kk": 0, "girth5plus": 0, "other": 0}
    neighbors = g.neighbors
    for comp in components(g):
        degrees = [len(neighbors[u]) for u in comp]
        gir = girth(g, roots=comp)
        if len(comp) == 2 * k and sum(degrees) == 2 * k * k and gir >= 4:
            tag = "K_kk"
        elif gir >= 5 and set(degrees) <= {k}:
            tag = "girth5plus"
        else:
            tag = "other"
        tagged.append((comp, tag, gir))
        counts[tag] += 1
    return ComponentClassification(
        components=tuple(tagged), k_kk_count=counts["K_kk"],
        girth5plus_count=counts["girth5plus"], other_count=counts["other"],
        girth=min((gir for _, _, gir in tagged), default=INFINITE_GIRTH),
        connected=len(tagged) <= 1)


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
    return Design.make(v=g.n, k=k, lines=[ns for ns in g.neighbors], r_claimed=k)


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
    return read_file(text, GRAPH, lambda f: Graph.from_edges(f["v"], f["edge"]), key="edge")


def serialize_graph(g: Graph) -> str:
    out = ["kind: graph", f"v: {g.n}"]
    out += [f"edge: {u} {w}" for u, w in g.edges]
    return "\n".join(out) + "\n"
