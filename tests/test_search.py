import pytest

from pentforge import search
from pentforge.analysis import count_olps, verify_pentagonal
from pentforge.defgraph import (Graph, build_deficiency, components, girth,
                                moore_pent, petersen)
from pentforge.search import (BudgetExhausted, SearchBudget,
                              SearchPreconditionError, complete_from_deficiency,
                              cycle_types, partition_p, pent2_count,
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


@pytest.mark.parametrize("r,expected", [(2, 1), (3, 1), (4, 1), (7, 3)])
def test_pent2_count_small(r, expected):
    assert pent2_count(r) == expected


def test_pent2_count_equals_min4_partitions():
    for r in range(2, 21):
        assert pent2_count(r) == len(brute_force_min4_partitions(r + 3))


def test_cycle_types_match_oracle():
    for n in range(4, 24):
        assert cycle_types(n) == brute_force_min4_partitions(n)


def test_pent2_enumerate_counts_and_validity():
    for r in range(2, 21):
        systems = pent2_enumerate(r)
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
