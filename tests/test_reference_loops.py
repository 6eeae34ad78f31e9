"""The Bose developer, the incidence index, the OLP count, `subgraph` and
the ingredients' pair-cover check against the plain loops they replaced.

Each reference below is the earlier implementation, kept here only to pin
its replacement to the same output: the incidence index that counted every
point of every line through a point and scanned those lines for the
opposite line, the OLP count that walked all b lines, the Bose developer
that sorted each triple and relabelled through a dictionary, the subgraph
that scanned every edge of the whole graph, and the exact pair-cover check
that kept its own pair set and walked all v(v-1)/2 pairs.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pentforge import catalog, defgraph
from pentforge.analysis import count_olps
from pentforge.construct import (ConstructionError, Gdd, Pbd, Quasigroup, Sts, bose_pent3,
                                 bose_sts, cyclic_idempotent_quasigroup, pbd_pent3,
                                 steiner_quasigroup, sts_bose, td3)
from pentforge.core import Design

FIELDS = ("replication", "opposites", "opposite_index", "multi_covered")


# ---------------------------------------------------------------------------
# References

def ref_index(d: Design) -> dict:
    lines = d.lines
    through: list[list[int]] = [[] for _ in range(d.v)]
    for i, line in enumerate(lines):
        for p in line:
            through[p].append(i)
    everyone = set(range(d.v))
    opposites = []
    multi_covered = []
    for x, ls in enumerate(through):
        met = [p for i in ls for p in lines[i]]
        collinear = set(met)
        collinear.add(x)
        if len(collinear) < len(met) - len(ls) + 1:
            times = Counter(met)
            multi_covered += [(x, y) for y in sorted(times) if y > x and times[y] > 1]
        opposites.append(tuple(sorted(everyone - collinear)))
    opposite_index = tuple(
        next((i for i in through[opp[0]] if lines[i] == opp), None) if opp else None
        for opp in opposites)
    return {"replication": tuple(map(len, through)), "opposites": tuple(opposites),
            "opposite_index": opposite_index, "multi_covered": tuple(multi_covered)}


def ref_olp_pairs(d: Design) -> tuple:
    index = ref_index(d)
    opposites = index["opposites"]
    pairs = set()
    for line in d.lines:
        opps = {opposites[x] for x in line}
        if len(opps) != 1:
            continue
        m = opps.pop()
        if index["opposite_index"][line[0]] is None:
            continue
        if all(opposites[y] == line for y in m):
            pairs.add(tuple(sorted((line, m))))
    return tuple(sorted(pairs))


def ref_bose_triples(q: Quasigroup) -> list[tuple[int, ...]]:
    n = q.order
    triples = [(x, n + x, 2 * n + x) for x in range(n)]
    for i in range(3):
        for x in range(n):
            for y in range(x + 1, n):
                triples.append(tuple(sorted((i * n + x, i * n + y,
                                             ((i + 1) % 3) * n + q.table[x][y]))))
    return triples


def ref_pent3(q: Quasigroup, a: int) -> Design:
    n = q.order
    dropped = {a, n + a, 2 * n + a}
    relabel = {}
    for old in range(3 * n):
        if old not in dropped:
            relabel[old] = len(relabel)
    lines = [tuple(relabel[p] for p in t) for t in ref_bose_triples(q)
             if not dropped & set(t)]
    return Design.make(v=3 * n - 3, k=3, lines=lines)


def ref_pbd_quasigroup(p: Pbd) -> Quasigroup:
    table = [[x if x == y else -1 for y in range(p.v)] for x in range(p.v)]
    for x, y, z in p.triples:
        table[x][y] = table[y][x] = z
        table[x][z] = table[z][x] = y
        table[y][z] = table[z][y] = x
    dist = tuple(sorted(p.distinguished))
    for i, x in enumerate(dist):
        for j, y in enumerate(dist):
            if x != y:
                table[x][y] = dist[(i + j) * 3 % 5]
    return Quasigroup(order=p.v, table=tuple(map(tuple, table)))


def ref_subgraph(g: defgraph.Graph, vertices: tuple[int, ...]) -> defgraph.Graph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[u], index[w]) for u, w in g.edges if u in index and w in index]
    return defgraph.Graph.from_edges(len(vertices), edges)


def ref_check_exact_pair_cover(v: int, blocks, what: str) -> None:
    covered: set[int] = set()  # pair x < y as x * v + y
    for block in blocks:
        if (not block or len(set(block)) != len(block) or min(block) < 0
                or max(block) >= v):
            raise ConstructionError(f"{what}: bad block {block}")
        for x, y in combinations(block, 2):
            pair = x * v + y if x < y else y * v + x
            if pair in covered:
                raise ConstructionError(f"{what}: pair ({x},{y}) covered twice")
            covered.add(pair)
    for x in range(v):
        for y in range(x + 1, v):
            if x * v + y not in covered:
                raise ConstructionError(f"{what}: pair ({x},{y}) uncovered")


# ---------------------------------------------------------------------------
# Inputs

ENTRIES = tuple(e.id for e in catalog.catalog_entries())


@lru_cache(maxsize=None)
def _entry(entry_id: str) -> Design:
    return catalog.catalog_load(entry_id)


def relabelled(d: Design, seed: int) -> Design:
    perm = list(range(d.v))
    random.Random(seed).shuffle(perm)
    return Design.make(v=d.v, k=d.k, lines=[[perm[p] for p in line] for line in d.lines],
                       r_claimed=d.r_claimed)


def one_point_mutant(d: Design, seed: int) -> Design:
    """`d` with one point of a line moved onto a point already collinear with
    another point of it, so that pair is covered twice."""
    rng = random.Random(seed)
    line = rng.choice(d.lines)
    anchor = rng.choice(line)
    other = rng.choice([m for m in d.lines if anchor in m and m != line])
    moved = rng.choice([p for p in other if p != anchor and p not in line])
    dropped = rng.choice([p for p in line if p != anchor])
    new = tuple(sorted([p for p in line if p != dropped] + [moved]))
    return Design.make(v=d.v, k=d.k, lines={new if m == line else m for m in d.lines})


def assert_index_matches(d: Design) -> None:
    want = ref_index(d)
    assert {f: getattr(d.incidence, f) for f in FIELDS} == want


def assert_olps_match(d: Design) -> None:
    """The same pairs, or the same cross-check failure."""
    pairs = ref_olp_pairs(d)
    classes = defgraph.classify(defgraph.build_deficiency(d), d.k)
    if classes.k_kk_count == len(pairs):
        assert count_olps(d).pairs == pairs
    else:
        with pytest.raises(AssertionError, match="OLP count mismatch"):
            count_olps(d)


# ---------------------------------------------------------------------------
# Incidence index

@pytest.mark.parametrize("entry_id", ENTRIES)
def test_index_matches_reference_on_catalog(entry_id):
    d = _entry(entry_id)
    assert_index_matches(d)
    assert_index_matches(relabelled(d, 7))


@pytest.mark.parametrize("entry_id", ENTRIES)
def test_index_matches_reference_on_one_point_mutants(entry_id):
    for seed in range(2):
        d = one_point_mutant(relabelled(_entry(entry_id), seed), seed)
        assert d.incidence.multi_covered  # the path that counts point by point
        assert_index_matches(d)


@pytest.mark.parametrize("d", [
    Design.make(v=5, k=3, lines=[]),
    Design.make(v=0, k=3, lines=[]),
    Design.make(v=7, k=3, lines=[(0, 1, 2), (0, 3, 4), (2, 5, 6)]),
    Design.make(v=7, k=3, lines=[(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5), (2, 3, 6)]),
], ids=["no-lines", "no-points", "irregular", "pairs-covered-thrice"])
def test_index_matches_reference_on_hand_made_designs(d):
    assert_index_matches(d)


@st.composite
def designs(draw) -> Design:
    k = draw(st.integers(min_value=2, max_value=4))
    v = draw(st.integers(min_value=k, max_value=11))
    line = st.lists(st.integers(min_value=0, max_value=v - 1), min_size=k, max_size=k,
                    unique=True).map(lambda ps: tuple(sorted(ps)))
    return Design.make(v=v, k=k, lines=draw(st.sets(line, max_size=20)))


@settings(max_examples=150, deadline=None)
@given(designs())
def test_index_matches_reference_on_any_design(d):
    assert_index_matches(d)
    assert_olps_match(d)


# ---------------------------------------------------------------------------
# OLP count

@pytest.mark.parametrize("entry_id", ENTRIES)
def test_olp_pairs_match_reference_on_catalog(entry_id):
    d = _entry(entry_id)
    assert_olps_match(d)
    assert_olps_match(relabelled(d, 3))
    assert_olps_match(one_point_mutant(d, 3))


def test_olp_pairs_match_reference_on_bose_designs():
    for d in (bose_pent3(catalog.support_sts("sts13"), 0), bose_pent3(sts_bose(21), 4)):
        assert count_olps(d).q > 0
        assert_olps_match(d)


# ---------------------------------------------------------------------------
# Bose development

STS = {"sts_bose(3)": lambda: sts_bose(3), "sts_bose(9)": lambda: sts_bose(9),
       "sts_bose(15)": lambda: sts_bose(15), "sts7": lambda: catalog.support_sts("sts7"),
       "sts13": lambda: catalog.support_sts("sts13")}


@pytest.mark.parametrize("name", STS)
def test_bose_pent3_matches_reference_at_every_drop_point(name):
    s = STS[name]()
    q = steiner_quasigroup(s)
    for a in range(s.v):
        assert bose_pent3(s, a) == ref_pent3(q, a), a


@pytest.mark.parametrize("name", ["pbd11", "pbd17"])
def test_pbd_pent3_matches_reference_at_every_drop_point(name):
    p = catalog.support_pbd(name)
    q = ref_pbd_quasigroup(p)
    drops = [a for a in range(p.v) if a not in p.distinguished]
    assert len(drops) == p.v - 5
    for a in drops:
        assert pbd_pent3(p, a) == ref_pent3(q, a), a


@pytest.mark.parametrize("q", [cyclic_idempotent_quasigroup(n) for n in (1, 3, 5, 7, 9)]
                         + [steiner_quasigroup(catalog.support_sts(n)) for n in ("sts7", "sts13")],
                         ids=lambda q: f"order{q.order}")
def test_bose_sts_matches_reference(q):
    assert bose_sts(q) == Sts(v=3 * q.order, triples=tuple(sorted(ref_bose_triples(q))))


# ---------------------------------------------------------------------------
# Subgraphs

@pytest.mark.parametrize("entry_id", ENTRIES)
def test_subgraph_matches_reference(entry_id):
    d = one_point_mutant(_entry(entry_id), 5)
    for g in (defgraph.build_deficiency(d), defgraph.build_deficiency(_entry(entry_id))):
        comps = defgraph.components(g)
        for comp in comps + [tuple(range(0, g.n, 2))]:
            assert defgraph.subgraph(g, comp) == ref_subgraph(g, comp)


# ---------------------------------------------------------------------------
# Ingredient pair cover

PBD11 = catalog.support_pbd("pbd11")
TD35 = td3(5)
# name -> (what, v, the blocks that vary, the blocks the reference also covers, builder)
INGREDIENTS = {
    "sts_bose(21)": ("STS", 21, sts_bose(21).triples, (), lambda b: Sts(v=21, triples=b)),
    "pbd11": ("PBD", PBD11.v, PBD11.triples, (tuple(sorted(PBD11.distinguished)),),
              lambda b: Pbd(v=PBD11.v, distinguished=PBD11.distinguished, triples=b)),
    "td3(5)": ("GDD", TD35.v, TD35.blocks, TD35.groups,
               lambda b: Gdd(v=TD35.v, k=TD35.k, groups=TD35.groups, blocks=b)),
}


def mutant(blocks: tuple, v: int, how: str, seed: int) -> tuple:
    rng = random.Random(seed)
    i = rng.randrange(len(blocks))
    block = blocks[i]
    if how == "point-moved":
        moved = tuple(sorted(set(block) - {rng.choice(block)}
                             | {rng.choice([p for p in range(v) if p not in block])}))
        return blocks[:i] + (moved,) + blocks[i + 1:]
    if how == "block-dropped":
        return blocks[:i] + blocks[i + 1:]
    if how == "block-added":  # more pairs than v(v-1)/2, some covered twice
        extra = block
        while extra in blocks:
            extra = tuple(sorted(rng.sample(range(v), len(block))))
        return blocks + (extra,)
    return blocks[:i] + (block,) + blocks[i:]  # block-repeated


def least_fault(v: int, blocks) -> str:
    """The least pair that the blocks cover twice, else the least uncovered."""
    times = Counter(pair for block in blocks for pair in combinations(sorted(block), 2))
    doubled = [pair for pair, n in times.items() if n > 1]
    if doubled:
        return "pair ({},{}) covered twice".format(*min(doubled))
    return "pair ({},{}) uncovered".format(*next(
        (x, y) for x in range(v) for y in range(x + 1, v) if (x, y) not in times))


@pytest.mark.parametrize("name", INGREDIENTS)
def test_pair_cover_accepts_what_the_reference_accepts(name):
    what, v, blocks, fixed, build = INGREDIENTS[name]
    ref_check_exact_pair_cover(v, fixed + blocks, what)
    build(blocks)


@pytest.mark.parametrize("how", ["point-moved", "block-dropped", "block-added",
                                 "block-repeated"])
@pytest.mark.parametrize("name", INGREDIENTS)
def test_pair_cover_rejects_what_the_reference_rejects(name, how):
    what, v, blocks, fixed, build = INGREDIENTS[name]
    for seed in range(6):
        bad = mutant(blocks, v, how, seed)
        with pytest.raises(ConstructionError):
            ref_check_exact_pair_cover(v, fixed + bad, what)
        with pytest.raises(ConstructionError) as info:
            build(bad)
        assert type(info.value) is ConstructionError
        if how == "block-repeated":
            repeated = [b for b in bad if bad.count(b) > 1][0]
            assert str(info.value) == f"{what}: duplicate line {repeated}", seed
        else:
            assert str(info.value) == f"{what}: {least_fault(v, fixed + bad)}", seed
