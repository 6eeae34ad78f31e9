import io
import itertools
import math
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from pentforge import catalog, defgraph
from pentforge.cli import run
from pentforge.analysis import count_olps, verify_pentagonal
from pentforge.core import Design
from pentforge.defgraph import (Graph, MoorePreconditionError, build_deficiency,
                                classify, cycle_graph, girth, is_connected,
                                moore_pent, parse_graph, petersen,
                                serialize_graph)


def complete_bipartite(k: int) -> Graph:
    return Graph.from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(k)])


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.is_regular(3) and girth(g) == 5


def test_deficiency_of_desargues_is_petersen():
    d = moore_pent(petersen(), 3)
    g = build_deficiency(d)
    assert g.edges == petersen().edges


def test_deficiency_of_complete_design_is_empty():
    d = Design.make(v=4, k=2, lines=[(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert build_deficiency(d).edges == ()


def test_deficiency_pent3_24_girth_7():
    d = catalog.catalog_load("pent3_24")
    g = build_deficiency(d)
    assert g.is_regular(3) and is_connected(g) and girth(g) == 7


@pytest.mark.parametrize("graph,expected", [
    (complete_bipartite(3), 4),
    (petersen(), 5),
    (cycle_graph(8), 8),
    (Graph.from_edges(4, [(0, 1), (1, 2)]), math.inf),
])
def test_girth(graph, expected):
    assert girth(graph) == expected


def test_girth_through_roots_is_the_girth_of_their_component():
    """Petersen on 0..9 beside a 4-cycle on 10..13."""
    g = Graph.from_edges(14, list(petersen().edges) + [(10 + u, 10 + w)
                                                        for u, w in cycle_graph(4).edges])
    assert girth(g) == girth(g, roots=(12,)) == 4
    assert girth(g, roots=range(10)) == 5
    assert girth(g, roots=()) == math.inf


def test_girth_pent3_27():
    g = build_deficiency(catalog.catalog_load("pent3_27"))
    assert girth(g) == 6


def test_classify_one_olp_system(pent3_9_olp1):
    g = build_deficiency(pent3_9_olp1)
    cls = classify(g, 3)
    assert cls.k_kk_count == 1 and cls.girth5plus_count == 1 and cls.clean
    sizes = sorted(len(comp) for comp, _, _ in cls.components)
    assert sizes == [6, 16]


def test_classify_empty_graph():
    cls = classify(Graph.from_edges(0, []), 3)
    assert cls.k_kk_count == 0 and cls.girth5plus_count == 0


def test_classify_requires_complete_bipartition():
    # C8 has 8 vertices like K_{4,4} would need 8... use k=4: C8 is bipartite
    # with sides of 4 but not complete, so it must not be tagged K_kk.
    cls = classify(cycle_graph(8), 4)
    [(comp, tag, detail)] = cls.components
    assert tag == "other" and detail == 8


def test_kkk_count_matches_olp_count():
    for entry_id in ("pent3_9_olp1", "pent3_10_olp1", "pent3_12_olp1"):
        d = catalog.catalog_load(entry_id)
        cls = classify(build_deficiency(d), 3)
        assert cls.k_kk_count == count_olps(d).q == 1


def test_moore_pent_petersen():
    d = moore_pent(petersen(), 3)
    assert d.v == 10 and d.b == 10
    assert verify_pentagonal(d).ok


def test_moore_pent_pentagon():
    d = moore_pent(cycle_graph(5), 2)
    assert d.v == 5 and d.b == 5
    assert verify_pentagonal(d).ok


def test_moore_pent_rejects_girth_4():
    # pentagonal prism: 3-regular on 10 vertices but girth 4
    prism = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                             + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                             + [(i, 5 + i) for i in range(5)])
    with pytest.raises(MoorePreconditionError, match="girth"):
        moore_pent(prism, 3)


def test_moore_pent_rejects_wrong_order():
    with pytest.raises(MoorePreconditionError, match="vertices"):
        moore_pent(cycle_graph(6), 2)


def test_moore_pent_neighborhood_property():
    # Non-adjacent vertex pairs lie in exactly one neighborhood line,
    # adjacent pairs in none.
    g = petersen()
    d = moore_pent(g, 3)
    adj = set(g.edges)
    for x in range(10):
        for y in range(x + 1, 10):
            containing = sum(1 for line in d.lines if x in line and y in line)
            assert containing == (0 if (x, y) in adj else 1)


def test_is_connected():
    assert is_connected(build_deficiency(catalog.catalog_load("pent4_13")))
    two_kkk = Graph.from_edges(12, [(i, 3 + j) for i in range(3) for j in range(3)]
                               + [(6 + i, 9 + j) for i in range(3) for j in range(3)])
    assert not is_connected(two_kkk)
    assert is_connected(Graph.from_edges(1, []))


def test_graph_file_roundtrip():
    g = petersen()
    assert parse_graph(serialize_graph(g)).edges == g.edges


def test_deficiency_regular_on_verified_designs():
    for entry_id in ("pent3_9_olp0", "pent4_13"):
        d = catalog.catalog_load(entry_id)
        assert build_deficiency(d).is_regular(d.k)


# ---------------------------------------------------------------------------
# classify against brute-force references

def ref_components(n: int, edges) -> list[tuple[int, ...]]:
    nbrs = {v: set() for v in range(n)}
    for u, w in edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    seen, comps = set(), []
    for start in range(n):
        if start not in seen:
            comp, stack = {start}, [start]
            while stack:
                for w in nbrs[stack.pop()] - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            comps.append(tuple(sorted(comp)))
    return comps


def ref_is_kkk(vertices, edges, k: int) -> bool:
    """BFS 2-colouring: two sides of k vertices and all k*k edges between."""
    if len(vertices) != 2 * k:
        return False
    nbrs = {v: [] for v in vertices}
    for u, w in edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    colour = {vertices[0]: 0}
    queue = deque([vertices[0]])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if w not in colour:
                colour[w] = 1 - colour[u]
                queue.append(w)
            elif colour[w] == colour[u]:
                return False
    return (len(colour) == 2 * k and sum(colour.values()) == k
            and len(edges) == k * k)


def ref_girth(edges) -> float:
    """Shortest cycle: for each edge, 1 + the distance between its ends
    without it."""
    best = math.inf
    for u, w in edges:
        rest = [e for e in edges if e != (u, w)]
        dist, queue = {u: 0}, deque([u])
        while queue and w not in dist:
            x = queue.popleft()
            for a, b in rest:
                for y in ((b,) if a == x else (a,) if b == x else ()):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
        if w in dist:
            best = min(best, dist[w] + 1)
    return best


def complete_bipartite_minus_edge(k: int) -> Graph:
    return Graph.from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(k)
                                    if (i, j) != (0, 0)])


@st.composite
def graphs_and_k(draw):
    k = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["random", "2k-vertices-k2-edges", "kkk",
                                  "kkk-minus-edge"]))
    if shape == "kkk":
        return complete_bipartite(k), k
    if shape == "kkk-minus-edge":
        return complete_bipartite_minus_edge(k), k
    if shape == "random":
        n, size = draw(st.integers(0, 10)), {}
    else:  # K_{k,k}'s vertex and edge counts, most with a triangle
        n, size = 2 * k, {"min_size": k * k, "max_size": k * k}
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, **size)
                 if pairs else st.just([]))
    return Graph.from_edges(n, edges), k


@settings(max_examples=300, deadline=None)
@given(graphs_and_k())
def test_classify_matches_brute_force(case):
    g, k = case
    cls = classify(g, k)
    expected = []
    for comp in ref_components(g.n, g.edges):
        edges = [(u, w) for u, w in g.edges if u in comp]
        gir = ref_girth(edges)
        degrees = Counter(v for e in edges for v in e)
        if ref_is_kkk(comp, edges, k):
            tag = "K_kk"
        elif gir >= 5 and all(degrees[v] == k for v in comp):
            tag = "girth5plus"
        else:
            tag = "other"
        expected.append((comp, tag, gir))
    assert list(cls.components) == expected
    tags = Counter(tag for _, tag, _ in expected)
    assert (cls.k_kk_count, cls.girth5plus_count, cls.other_count) == (
        tags["K_kk"], tags["girth5plus"], tags["other"])
    assert cls.girth == girth(g) == ref_girth(list(g.edges))
    assert cls.connected == is_connected(g) == (len(expected) <= 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_classify_gives_kkk_its_girth(k):
    [(_, tag, gir)] = classify(complete_bipartite(k), k).components
    assert (tag, gir) == ("K_kk", 4 if k > 1 else math.inf)


def test_analyze_classifies_once(monkeypatch):
    """One `analyze` classifies the deficiency graph once and takes no girth
    or connectivity outside that classification."""
    calls = Counter()
    inside = []
    real_classify, real_girth, real_connected = (defgraph.classify, defgraph.girth,
                                                 defgraph.is_connected)

    def classify_counted(g, k):
        calls["classify"] += 1
        inside.append(True)
        try:
            return real_classify(g, k)
        finally:
            inside.pop()

    def girth_counted(g, roots=None):
        calls["girth" if not inside else "component girth"] += 1
        return real_girth(g, roots)

    def is_connected_counted(g):
        calls["is_connected"] += 1
        return real_connected(g)

    monkeypatch.setattr(defgraph, "classify", classify_counted)
    monkeypatch.setattr(defgraph, "girth", girth_counted)
    monkeypatch.setattr(defgraph, "is_connected", is_connected_counted)
    path = catalog.catalog_dir() / catalog.catalog_entry("pent3_9_olp1").path
    assert run(["analyze", str(path)], out=io.StringIO()) == 0
    assert (calls["classify"], calls["girth"], calls["is_connected"]) == (1, 0, 0)
    assert calls["component girth"] == 2
    calls.clear()
    ok, problems = catalog.verify_entry(catalog.catalog_entry("pent3_24"))
    assert ok, problems
    assert (calls["classify"], calls["girth"], calls["is_connected"]) == (1, 0, 0)
