import hashlib
import inspect
import itertools
import random
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st

from pentforge import catalog, search
from pentforge.analysis import count_olps, verify_pentagonal
from pentforge.core import Design, serialize_design
from pentforge.defgraph import (Graph, build_deficiency, components, girth,
                                moore_pent, petersen)
from pentforge.search import (RESTART_UNIT, BudgetExhausted, SearchBudget,
                              SearchPreconditionError, complete_from_deficiency,
                              cycle_types, luby, partition_p, pent2_count,
                              pent2_enumerate)
from tests.conftest import check_universal


def brute_force_partitions(n: int) -> int:
    """Independent oracle: count partitions by largest-part recursion."""
    def count(remaining: int, cap: int) -> int:
        if remaining == 0:
            return 1
        return sum(count(remaining - part, part)
                   for part in range(min(cap, remaining), 0, -1))
    return count(n, n) if n >= 0 else 0


def brute_force_min4_partitions(n: int) -> list[tuple[int, ...]]:
    """Enumerate partitions into parts >= 4 directly."""
    result = []

    def extend(remaining, cap, acc):
        if remaining == 0:
            result.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 3, -1):
            extend(remaining - part, part, acc + [part])

    extend(n, n, [])
    return sorted(result)


@pytest.mark.parametrize("n,expected", [(0, 1), (5, 7), (10, 42), (-1, 0), (-3, 0)])
def test_partition_small_values(n, expected):
    assert partition_p(n) == expected


def test_partition_matches_brute_force_up_to_40():
    for n in range(41):
        assert partition_p(n) == brute_force_partitions(n)


def test_partition_of_5000_does_not_recurse(monkeypatch):
    monkeypatch.setattr(search, "_PARTITIONS", [1])  # nothing computed yet
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        big = partition_p(5000)
    finally:
        sys.setrecursionlimit(limit)
    assert partition_p(1000) == 24061467864032622473692149727991
    assert big > partition_p(4999) > 0


@pytest.mark.parametrize("r,expected", [(2, 1), (3, 1), (4, 1), (7, 3)])
def test_pent2_count_small(r, expected):
    assert pent2_count(r) == expected


def test_pent2_count_equals_min4_partitions():
    for r in range(2, 21):
        assert pent2_count(r) == len(brute_force_min4_partitions(r + 3))


def test_cycle_types_match_oracle():
    for n in range(4, 24):
        assert list(cycle_types(n)) == brute_force_min4_partitions(n)


def test_cycle_types_start_at_once():
    # 203 has about 1.4e10 such types, so no list of them could ever be built.
    assert list(itertools.islice(cycle_types(203), 3)) == [
        (5,) * 3 + (4,) * 47, (5,) * 7 + (4,) * 42, (5,) * 11 + (4,) * 37]


def test_cycle_types_hold_one_partition_at_a_time():
    # A list of the 16724 types of 63 alone takes about 1.9 MB.
    tracemalloc.start()
    try:
        count = sum(1 for _ in cycle_types(63))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 16724
    assert peak < 64 * 2 ** 10


def test_pent2_enumerate_counts_and_validity():
    for r in range(2, 21):
        systems = list(pent2_enumerate(r))
        assert len(systems) == pent2_count(r)
        types = [ctype for ctype, _ in systems]
        assert len(set(types)) == len(types)  # pairwise non-isomorphic
    for ctype, design in pent2_enumerate(8):
        rep = verify_pentagonal(design)
        assert rep.ok and rep.r == 8


def test_pent2_r5_type_4_4():
    by_type = dict(pent2_enumerate(5))
    d = by_type[(4, 4)]
    assert d.v == 8 and d.b == 20
    assert count_olps(d).q == 2


def test_pent2_deficiency_is_the_deleted_cycles():
    for ctype, design in pent2_enumerate(9):
        g = build_deficiency(design)
        comps = sorted(len(c) for c in components(g))
        assert comps == sorted(ctype)
        assert g.is_regular(2)


def test_pent2_enumerate_rejects_small_r():
    with pytest.raises(SearchPreconditionError):
        pent2_enumerate(1)


@pytest.mark.parametrize("ctype", [(0, 5), (3, 4), (1, 8), (4, 2, 4), (-1, 6), (3,), ()])
def test_design_from_cycle_type_rejects_a_part_below_4(ctype):
    with pytest.raises(SearchPreconditionError, match="at least 4"):
        search.design_from_cycle_type(ctype)


def pent2_digest(rs) -> str:
    return hashlib.sha256("".join(serialize_design(d) for r in rs
                                  for _, d in pent2_enumerate(r)).encode()).hexdigest()


def test_pent2_output_is_pinned_byte_for_byte():
    assert pent2_digest([40]) == "64f6c95fa98562d83d98cb457350ca4014380b55f174be0e3365ab2e4c7b0bd5"
    assert pent2_digest(range(2, 21)) == (
        "34fd8e7642176bea0bac4d1512d9c0d8b22c4909eb9d24537e0a313876f72177")


def test_pent2_enumerate_checks_lines_once(monkeypatch):
    made = []
    make = Design.make

    def counted(cls, *args, **kwargs):
        made.append(kwargs.get("v"))
        return make(*args, **kwargs)
    monkeypatch.setattr(Design, "make", classmethod(counted))
    search._complete.cache_clear()
    assert len(list(pent2_enumerate(40))) == 1067
    assert made == [43]  # K_43, once


# ---------------------------------------------------------------------------
# Completion search

def test_complete_petersen_gives_desargues():
    d = complete_from_deficiency(petersen(), 3, 3)
    assert d is not None and d.b == 10
    assert d == moore_pent(petersen(), 3)
    check_universal(d)


def test_complete_from_one_olp_deficiency(pent3_9_olp1):
    g = build_deficiency(pent3_9_olp1)
    d = complete_from_deficiency(g, 3, 9)
    assert d is not None
    assert verify_pentagonal(d).ok
    assert build_deficiency(d).edges == g.edges


def test_complete_pent2_cycle_union():
    # C4 + C5 on 9 vertices, k=2, r=6
    edges = [(i, (i + 1) % 4) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(9, edges)
    d = complete_from_deficiency(g, 2, 6)
    assert d is not None
    assert verify_pentagonal(d).ok
    assert count_olps(d).q == 1
    # cross-check against the enumeration by cycle type
    by_type = dict(pent2_enumerate(6))
    assert d.b == by_type[(5, 4)].b == 27


def test_complete_deterministic(pent3_9_olp1):
    g = build_deficiency(pent3_9_olp1)
    assert complete_from_deficiency(g, 3, 9) == complete_from_deficiency(g, 3, 9)


def test_complete_rejects_wrong_vertex_count():
    with pytest.raises(SearchPreconditionError, match="vertices"):
        complete_from_deficiency(petersen(), 3, 4)


def test_complete_rejects_irregular_graph():
    g = Graph.from_edges(10, [(0, 1)])
    with pytest.raises(SearchPreconditionError, match="regular"):
        complete_from_deficiency(g, 3, 3)


def test_complete_rejects_bad_component():
    # 3-regular graph of girth 4 that is not K_{3,3}: the cube graph.
    cube = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                (4, 5), (5, 6), (6, 7), (7, 4),
                                (0, 4), (1, 5), (2, 6), (3, 7)])
    assert girth(cube) == 4
    with pytest.raises(SearchPreconditionError, match="component"):
        complete_from_deficiency(cube, 3, 2)


def test_budget_exhaustion_is_distinct(pent3_9_olp1):
    g = build_deficiency(pent3_9_olp1)
    with pytest.raises(BudgetExhausted):
        complete_from_deficiency(g, 3, 9, SearchBudget(max_nodes=1))


def test_time_budget_checked_on_every_node(monkeypatch, pent3_9_olp1):
    # The clock reads 0 for the deadline and the first ten nodes, then jumps
    # past the deadline; the very next node must stop.
    g = build_deficiency(pent3_9_olp1)
    readings = []

    def clock():
        readings.append(0.0 if len(readings) <= 10 else 1e9)
        return readings[-1]

    monkeypatch.setattr(search.time, "monotonic", clock)
    with pytest.raises(BudgetExhausted, match="time budget"):
        complete_from_deficiency(g, 3, 9, SearchBudget(max_seconds=1.0))
    assert readings == [0.0] * 11 + [1e9]


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    # NaN compares false with everything, so it would never pass the deadline.
    for limits in ({"max_seconds": float("nan")}, {"max_nodes": float("nan")}):
        with pytest.raises(ValueError, match="positive"):
            SearchBudget(**limits)


def test_time_budget_covers_initial_count(monkeypatch):
    # Counting the candidate lines of pent4_60 takes about a second; the clock
    # jumps past the deadline right after it is set, so the search must stop
    # during the count.
    g = build_deficiency(catalog.catalog_load("pent4_60"))
    readings = []

    def clock():
        readings.append(0.0 if not readings else 1e9)
        return readings[-1]

    monkeypatch.setattr(search.time, "monotonic", clock)
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted, match="time budget") as info:
        complete_from_deficiency(g, 4, 60, SearchBudget(max_seconds=1.0))
    assert time.perf_counter() - start < 1.0
    assert any(entry.name == "count_candidates" for entry in info.traceback)


@pytest.mark.parametrize("k, n", [(4, 60), (5, 30)])
def test_initial_count_reads_the_clock_as_its_work_grows(k, n):
    # With every pair of n points uncovered, the count reads the clock after
    # each pair, whatever the work of counting its cliques.
    pairs = list(itertools.combinations(range(n), 2))
    reads = []
    search._Cover(n, k, pairs).count_candidates(lambda: reads.append(None))
    assert len(reads) == len(pairs)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    g = build_deficiency(catalog.catalog_load("pent3_27"))
    expected = complete_from_deficiency(g, 3, 27)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        d = complete_from_deficiency(g, 3, 27)
    finally:
        sys.setrecursionlimit(limit)
    assert d is not None and d == expected


# ---------------------------------------------------------------------------
# Completion search against the first fail-first search
#
# ref_exact_cover is the search as first written: it recomputes the candidate
# lines of every uncovered pair at every node, filters points already on r
# lines, and recurses.  The incremental search must find the same completion
# in no more nodes.  Some relabellings take the reference tens of thousands
# of nodes (about half a millisecond each); those examples are drawn again.

def ref_exact_cover(g: Graph, k: int, r: int, max_nodes: int):
    """The lines of the first completion found (or None), and the node count."""
    forced = sorted(search.mandatory_lines(g, k))
    adjacent = set(g.edges)
    covered = {pair for line in forced for pair in itertools.combinations(line, 2)}
    repl = [sum(p in line for line in forced) for p in range(g.n)]
    uncovered = {(x, y) for x in range(g.n) for y in range(x + 1, g.n)
                 if (x, y) not in adjacent and (x, y) not in covered}
    nodes = 0
    chosen = []

    def pair(x, y):
        return (x, y) if x < y else (y, x)

    def candidates_for(x, y):
        result = []
        pool = [z for z in range(g.n) if z != x and z != y
                and repl[z] < r
                and pair(x, z) in uncovered and pair(y, z) in uncovered]

        def grow(acc, rest):
            if len(acc) == k:
                result.append(tuple(sorted(acc)))
                return
            need = k - len(acc)
            for i, z in enumerate(rest):
                if len(rest) - i < need:
                    break
                if all(pair(w, z) in uncovered for w in acc if w not in (x, y)):
                    grow(acc + [z], rest[i + 1:])

        grow([x, y], pool)
        return result

    def solve():
        nonlocal nodes
        if not uncovered:
            return True
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExhausted(f"node budget {max_nodes} exhausted")
        best_cands = None
        for (x, y) in sorted(uncovered):
            cands = candidates_for(x, y)
            if best_cands is None or len(cands) < len(best_cands):
                best_cands = cands
                if not cands:
                    return False
                if len(cands) == 1:
                    break
        for line in best_cands:
            pairs = [pair(a, b) for a, b in itertools.combinations(line, 2)]
            for pr in pairs:
                uncovered.discard(pr)
            for p in line:
                repl[p] += 1
            chosen.append(line)
            if solve():
                return True
            chosen.pop()
            for p in line:
                repl[p] -= 1
            for pr in pairs:
                uncovered.add(pr)
        return False

    return (forced + chosen if solve() else None), nodes


def ref_lines_through(nbr: list[set[int]], a: int, b: int, k: int):
    """Every k-subset through {a, b} whose pairs are all joined in nbr, sorted."""
    others = [z for z in range(len(nbr)) if z not in (a, b)]
    lines = (tuple(sorted((a, b) + rest)) for rest in itertools.combinations(others, k - 2))
    return sorted(line for line in lines
                  if all(y in nbr[x] for x, y in itertools.combinations(line, 2)))


def c4_plus_c5() -> Graph:
    return Graph.from_edges(9, [(i, (i + 1) % 4) for i in range(4)]
                            + [(4 + i, 4 + (i + 1) % 5) for i in range(5)])


@lru_cache(maxsize=None)
def target(name: str) -> tuple[Graph, int, int]:
    if name == "petersen":
        return petersen(), 3, 3
    if name == "c4+c5":
        return c4_plus_c5(), 2, 6
    d = catalog.catalog_load(name)
    return build_deficiency(d), d.k, d.r_claimed


def relabel(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[w]) for u, w in g.edges])


# The trunk alone decides every example the reference decides within this cap.
REFERENCE_NODE_CAP = 2000


def test_trunk_runs_alone_past_the_reference_cap():
    assert RESTART_UNIT >= REFERENCE_NODE_CAP


TARGETS = ("pent3_9_olp1", "pent3_10", "pent3_10_olp1", "pent3_12_olp1",
           "petersen", "c4+c5")
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(TARGETS), seeds)
def test_completion_matches_reference_search(name, seed):
    g, k, r = target(name)
    g = relabel(g, seed)
    try:
        lines, nodes = ref_exact_cover(g, k, r, max_nodes=REFERENCE_NODE_CAP)
    except BudgetExhausted:
        reject()
    expected = Design.make(v=g.n, k=k, lines=lines, r_claimed=r)
    assert complete_from_deficiency(g, k, r) == expected
    budget = SearchBudget(max_nodes=max(nodes, 1))
    assert complete_from_deficiency(g, k, r, budget) == expected


def mid_search(name: str, rng: random.Random):
    """Uncovered pairs as in mid-search: the pairs left by the forced lines,
    less those of a random third of the geometry's other lines.  Returns the
    geometry, their graph as neighbour sets and the sorted pairs."""
    d = catalog.catalog_load(name)
    g = build_deficiency(d)
    taken = set(search.mandatory_lines(g, d.k))
    taken.update(rng.sample([line for line in d.lines if line not in taken], d.b // 3))
    covered = set(g.edges) | {pair for line in taken
                              for pair in itertools.combinations(line, 2)}
    nbr = [set() for _ in range(d.v)]
    for x, y in itertools.combinations(range(d.v), 2):
        if (x, y) not in covered:
            nbr[x].add(y)
            nbr[y].add(x)
    return d, nbr, [(x, y) for x in range(d.v) for y in sorted(nbr[x]) if x < y]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["pent3_10", "pent4_13"]), seeds)
def test_candidate_lines_match_brute_force(name, seed):
    rng = random.Random(seed)
    d, nbr, uncovered = mid_search(name, rng)
    adj = [sum(1 << y for y in ys) for ys in nbr]
    for a, b in rng.sample(uncovered, 5):
        lines = search._lines_through(adj, a, b, d.k)
        assert all(line[:2] == (a, b) for line in lines)
        assert [tuple(sorted(line)) for line in lines] == ref_lines_through(nbr, a, b, d.k)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["pent3_10", "pent4_13"]), seeds)
def test_initial_counts_match_brute_force(name, seed):
    d, nbr, uncovered = mid_search(name, random.Random(seed))
    cover = search._Cover(d.v, d.k, uncovered)
    cover.count_candidates(lambda: None)
    # The k-cliques through {a, b}: (k-2)-subsets of the common neighbours
    # whose pairs are all uncovered.
    expected = [sum(all(w in nbr[z] for z, w in itertools.combinations(rest, 2))
                    for rest in itertools.combinations(sorted(nbr[a] & nbr[b]), d.k - 2))
                for a, b in uncovered]
    assert list(cover.count) == expected


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([3, 4, 5]), seeds)
def test_counts_stay_in_step_as_lines_come_and_go(k, seed):
    # Cover random candidate lines among the pairs of 12 points, then take the
    # last few back as the search does: every count must equal a fresh count
    # over the pairs left uncovered, and restoring the copy taken before those
    # lines must give the state toggling them back gives.
    assert isinstance(check_counts_in_step(12, k, random.Random(seed)), bytearray)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([3, 4, 5]), seeds)
def test_wide_counts_stay_in_step(k, seed):
    # A pair of 26 points lies in C(24, 2) = 276 4-cliques, too many for a
    # byte, so these counts are a list with DONE for a covered pair; for k = 3
    # and 5 the counts of 12 points are widened to a list by hand.
    n = 26 if k == 4 else 12
    assert isinstance(check_counts_in_step(n, k, random.Random(seed), wide=True), list)


def check_counts_in_step(n: int, k: int, rng: random.Random,
                         wide: bool = False) -> list[int] | bytearray:
    """Cover and take back random lines of K_n with `toggle` as the search does,
    check every count against a fresh count after each step and the state
    toggled back against the copy taken before those lines, restore that copy
    over the lines covered again, and return the cover's counts."""
    pairs = list(itertools.combinations(range(n), 2))
    cover = search._Cover(n, k, pairs)
    cover.count_candidates(lambda: None)
    if wide and isinstance(cover.count, bytearray):  # every pair is still uncovered
        cover.count, cover.done = list(cover.count), search.DONE

    def assert_in_step():
        uncovered = [p for i, p in enumerate(pairs) if cover.count[i] != cover.done]
        fresh = search._Cover(n, k, uncovered)
        fresh.count_candidates(lambda: None)
        assert [cover.count[cover.index[x][y]] for x, y in uncovered] == list(fresh.count)

    chosen, copies = [], []  # copies[i] is the state before chosen[i] is covered
    for _ in range(3):
        open_pairs = [p for i, p in enumerate(pairs) if cover.count[i] not in (0, cover.done)]
        if not open_pairs:
            break
        line = rng.choice(search._lines_through(cover.adj, *rng.choice(open_pairs), k))
        copies.append(cover.copy_state())
        cover.toggle(line, -1)
        chosen.append(line)
        assert_in_step()
    copies.append(cover.copy_state())
    cut = rng.randrange(len(chosen) + 1)
    for line in reversed(chosen[cut:]):
        cover.toggle(line, 1)
        assert_in_step()
    toggled = cover.copy_state()
    assert toggled == copies[cut]
    count, adj = cover.count, cover.adj
    for line in chosen[cut:]:
        cover.toggle(line, -1)
    cover.count[:], cover.adj[:] = copies[cut]  # in place, as the search restores
    assert (cover.count, cover.adj) == toggled
    assert cover.count is count and cover.adj is adj
    return cover.count


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_k4_search_splits_the_pairs_of_half_a_geometry(seed):
    # The pairs of a random half of pent4_13's lines split into 4-cliques, and
    # other 4-cliques among them make the search branch and backtrack.
    d = catalog.catalog_load("pent4_13")
    lines = random.Random(seed).sample(d.lines, d.b // 2)
    uncovered = sorted(pair for line in lines for pair in itertools.combinations(line, 2))
    found = search._exact_cover(d.v, 4, uncovered, SearchBudget())
    assert found is not None
    assert sorted(pair for line in found for pair in itertools.combinations(line, 2)) == uncovered


# ---------------------------------------------------------------------------
# Trunk and probes

def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


K3_ENTRIES = [e.id for e in catalog.catalog_entries() if e.k == 3]
# The md5 of each completion's serialize_design and the nodes the search takes
# to find it, as recorded from the search before its cover and restore became
# one `toggle`; the branching pair and trial order have not changed since.
K3_COMPLETIONS = {
    "pent3_9_olp0": ("528997d7a8a33b3c823f8751cba4f2a1", 2718),
    "pent3_9_olp1": ("8826f20e4a9422a6b1bfba02197a6f05", 64),
    "pent3_10": ("55b88d6a0407ab86adc86403ce6158ee", 116),
    "pent3_10_olp1": ("2a5ee53683c92844a41a12c0e26a7f69", 187),
    "pent3_12": ("b1f50242d62060ff23a08f1504f8e599", 11034),
    "pent3_12_olp1": ("a9813694b8738678e1f1f88cab62ace5", 353),
    "pent3_15": ("c47a8168f020ab7c63fa6c799b4bb059", 2817),
    "pent3_16": ("555c656b6559d401e56ab7560cafabf7", 7818),
    "pent3_19": ("68b2bbdd2b804eebf57e132621be4785", 762),
    "pent3_21": ("8a5591369f3058dec04949dec101cdd0", 415),
    "pent3_22": ("c084ef1cf0b78c18b078539ab3083c59", 320),
    "pent3_24": ("a2ec5a36e8a0bf1342e3538b2004527a", 2507),
    "pent3_25": ("a9dad7bed5f36c2b8c90abee03b44b47", 450),
    "pent3_27": ("449e08aedb5fa4cc630215f548a95c42", 558),
}


@pytest.mark.parametrize("name", K3_ENTRIES)
def test_every_k3_catalog_graph_completes(name):
    g, k, r = target(name)
    md5, nodes = K3_COMPLETIONS[name]
    with pytest.raises(BudgetExhausted, match=rf"^node budget {nodes - 1} exhausted"):
        complete_from_deficiency(g, k, r, SearchBudget(max_nodes=nodes - 1))
    d = complete_from_deficiency(g, k, r, SearchBudget(max_nodes=nodes))
    assert d is not None and verify_pentagonal(d).ok
    assert build_deficiency(d).edges == g.edges
    assert hashlib.md5(serialize_design(d).encode()).hexdigest() == md5


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["pent3_12", "pent3_15"]), seeds)
def test_relabelled_pent3_12_and_pent3_15_decide(name, seed):
    g, k, r = target(name)
    g = relabel(g, seed)
    d = complete_from_deficiency(g, k, r, SearchBudget(max_nodes=100_000))
    assert d is not None and build_deficiency(d).edges == g.edges


# A cubic girth-5 graph on 22 vertices with no completion to a PENT(3,9); the
# trunk alone exhausts its space in 5591 nodes.
NO_COMPLETION = Graph.from_edges(22, [tuple(map(int, e.split("-"))) for e in (
    "0-10 0-18 0-21 1-4 1-7 1-20 2-14 2-16 2-19 3-7 3-15 3-19 4-9 4-21 5-8 5-16 "
    "5-17 6-9 6-11 6-16 7-18 8-10 8-19 9-12 10-20 11-13 11-20 12-15 12-17 13-15 "
    "13-21 14-17 14-18").split()])


def test_probes_keep_a_proof_of_non_existence_within_twice_the_trunk():
    with pytest.raises(BudgetExhausted):  # the trunk needs more than its head start
        complete_from_deficiency(NO_COMPLETION, 3, 9, SearchBudget(max_nodes=RESTART_UNIT))
    budget = SearchBudget(max_nodes=2 * 5591 + RESTART_UNIT)
    assert complete_from_deficiency(NO_COMPLETION, 3, 9, budget) is None
    # Exactly: the trunk's 5591 nodes and two probe runs of RESTART_UNIT each.
    needed = 5591 + 2 * RESTART_UNIT
    with pytest.raises(BudgetExhausted, match=f"{needed - 1} nodes, 2 probe runs"):
        complete_from_deficiency(NO_COMPLETION, 3, 9, SearchBudget(max_nodes=needed - 1))
    assert complete_from_deficiency(NO_COMPLETION, 3, 9, SearchBudget(max_nodes=needed)) is None


def test_probes_share_the_node_budget():
    g, k, r = target("pent3_12")
    budget = SearchBudget(max_nodes=RESTART_UNIT + 100)
    message = rf"^node budget {budget.max_nodes} exhausted \({budget.max_nodes} nodes, 1 probe runs\)$"
    with pytest.raises(BudgetExhausted, match=message):
        complete_from_deficiency(g, k, r, budget)


def test_k4_initial_count_leaves_the_budget_to_the_nodes():
    # pent4_60 has 185 points and about 27M 4-cliques among its uncovered
    # pairs; counting them must leave a short time budget to the nodes.
    g, k, r = target("pent4_60")
    budget = SearchBudget(max_nodes=1, max_seconds=10)
    with pytest.raises(BudgetExhausted, match=r"^node budget 1 exhausted \(1 nodes, 0 probe runs\)$"):
        complete_from_deficiency(g, k, r, budget)


class Branched(Exception):
    """Raised by a stand-in for `_lines_through` with the pair it was asked for."""


def branching_pair(cover: search._Cover):
    """The pair the search of `cover` branches on at its root, or None if it
    returns at once with every pair covered."""
    def stand_in(adj, a, b, k):
        raise Branched(a, b)
    run = cover.search()
    try:
        next(run)
    except StopIteration as stop:
        assert stop.value == []
        return None
    with mock.patch.object(search, "_lines_through", stand_in), \
            pytest.raises(Branched) as info:
        next(run)
    return info.value.args


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 300) | st.none(), max_size=40), st.booleans())
def test_fewest_is_min_then_index(values, as_bytes):
    # None stands for a covered pair; a byte count is below 255.  The search
    # branches on the pair of least count, the first of them on a tie.
    done = 255 if as_bytes else search.DONE
    count = [done if x is None else x % 255 if as_bytes else x for x in values]
    pairs = list(itertools.combinations(range(10), 2))[:len(count)]
    cover = search._Cover(10, 3, pairs)
    cover.count, cover.done = bytearray(count) if as_bytes else count, done
    least = min(count, default=done)
    assert branching_pair(cover) == (pairs[count.index(least)] if least != done else None)


@pytest.mark.parametrize("name, nodes", [("pent3_12", 11034), ("pent3_15", 2817)])
def test_byte_counts_keep_the_node_count(name, nodes):
    # The node counts of the search with list counts and min/index selection.
    g, k, r = target(name)
    with pytest.raises(BudgetExhausted, match=rf"^node budget {nodes - 1} exhausted"):
        complete_from_deficiency(g, k, r, SearchBudget(max_nodes=nodes - 1))
    assert complete_from_deficiency(g, k, r, SearchBudget(max_nodes=nodes)) is not None


@pytest.mark.parametrize("name, nodes, probes, width", [("pent4_20", 300, 0, list),
                                                         ("pent4_13", 20000, 4, bytearray)])
def test_k4_budget_messages(monkeypatch, name, nodes, probes, width):
    # pent4_20's root counts reach 488, so they stay a list; pent4_13's reach 86.
    widths = set()
    count_candidates = search._Cover.count_candidates

    def spy(self, check_clock):
        count_candidates(self, check_clock)
        widths.add(type(self.count))
    monkeypatch.setattr(search._Cover, "count_candidates", spy)
    g, k, r = target(name)
    message = rf"^node budget {nodes} exhausted \({nodes} nodes, {probes} probe runs\)$"
    with pytest.raises(BudgetExhausted, match=message):
        complete_from_deficiency(g, k, r, SearchBudget(max_nodes=nodes))
    assert widths == {width}


def test_initial_count_runs_once_however_many_probes(monkeypatch):
    calls = []

    def spy(name):
        method = getattr(search._Cover, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)
        monkeypatch.setattr(search._Cover, name, wrapper)

    spy("count_candidates")
    spy("relabelled")
    g, k, r = target("pent3_12")
    first = complete_from_deficiency(g, k, r)
    assert calls.count("count_candidates") == 1
    assert calls.count("relabelled") > 2  # the trunk's copy and the probes'
    assert complete_from_deficiency(g, k, r) == first


# ---------------------------------------------------------------------------
# Copies of the search state at branch points

@pytest.mark.parametrize("snapshots", [0, 1])
def test_toggle_fallback_keeps_every_k3_completion(monkeypatch, snapshots):
    # With fewer copies than open branch points the nodes left without one
    # take their lines back by toggle: the same completions in as many nodes.
    monkeypatch.setattr(search, "SNAPSHOTS", snapshots)
    for name in K3_ENTRIES:
        test_every_k3_catalog_graph_completes(name)


@pytest.mark.parametrize("snapshots", [0, 1])
def test_toggle_fallback_keeps_the_exhaustion_budget(monkeypatch, snapshots):
    monkeypatch.setattr(search, "SNAPSHOTS", snapshots)
    test_probes_keep_a_proof_of_non_existence_within_twice_the_trunk()


@pytest.mark.parametrize("snapshots", [0, 1])
def test_toggle_fallback_keeps_the_k4_budget_messages(monkeypatch, snapshots):
    monkeypatch.setattr(search, "SNAPSHOTS", snapshots)
    test_k4_budget_messages(monkeypatch, "pent4_20", 300, 0, list)
    test_k4_budget_messages(monkeypatch, "pent4_13", 20000, 4, bytearray)


class TrackedBytes(bytearray):  # a bytearray or list takes no weak reference
    pass


class TrackedList(list):
    pass


@pytest.mark.parametrize("name, nodes, width", [("pent3_12", 11034, bytearray),
                                                ("pent4_20", 300, list)])
def test_a_run_holds_at_most_snapshots_copies(monkeypatch, name, nodes, width):
    # Each copy of the counts is tracked until it is freed, per run (trunk or
    # probe): the deepest branch points fill the cap, and no run exceeds it.
    live, most = Counter(), Counter()
    copy_state = search._Cover.copy_state

    def release(cover):
        live[cover] -= 1

    def spy(self):
        count, adj = copy_state(self)
        assert type(count) is width
        tracked = (TrackedBytes if width is bytearray else TrackedList)(count)
        weakref.finalize(tracked, release, self)
        live[self] += 1
        most[self] = max(most[self], live[self])
        return tracked, adj
    monkeypatch.setattr(search._Cover, "copy_state", spy)
    g, k, r = target(name)
    try:
        complete_from_deficiency(g, k, r, SearchBudget(max_nodes=nodes))
    except BudgetExhausted:
        pass
    assert max(most.values()) == search.SNAPSHOTS
