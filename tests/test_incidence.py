"""The per-design incidence index against brute-force references.

The references below are the definitions, computed the slow way: an
opposite set by scanning every line for the point (O(v*b)), pair coverage
by counting every pair of every line.  The indexed functions must agree
with them on relabelled catalog designs, on broken copies of those, and on
hand-made designs with a pair covered two and three times.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from pentforge import catalog
from pentforge.analysis import (count_olps, opposite_line, opposite_line_map,
                                verify_pentagonal)
from pentforge.core import Design, DesignError, parse_design, serialize_design, verify_pls
from pentforge.defgraph import build_deficiency

SMALL = ("pent3_9_olp0", "pent3_9_olp1", "pent3_10", "pent3_10_olp1", "pent4_13")


# ---------------------------------------------------------------------------
# References

def ref_opposite(d: Design, x: int) -> tuple[int, ...]:
    collinear = {x}
    for line in d.lines:
        if x in line:
            collinear.update(line)
    return tuple(p for p in range(d.v) if p not in collinear)


def ref_pair_counts(d: Design) -> Counter:
    return Counter(pair for line in d.lines for pair in itertools.combinations(line, 2))


def ref_deficiency_edges(d: Design) -> tuple[tuple[int, int], ...]:
    counts = ref_pair_counts(d)
    return tuple((x, y) for x in range(d.v) for y in range(x + 1, d.v)
                 if counts[x, y] == 0)


def ref_pls_violations(d: Design) -> tuple[tuple[str, tuple], ...]:
    counts = ref_pair_counts(d)
    found = [("pair-covered-twice", (x, y)) for x in range(d.v)
             for y in range(x + 1, d.v) if counts[x, y] > 1]
    repl = [sum(p in line for line in d.lines) for p in range(d.v)]
    if len(set(repl)) > 1:
        # The usual count: the most common one, the least of them on a tie.
        usual = min(set(repl), key=lambda r: (-repl.count(r), r))
        found += [("irregular-point", (p, r)) for p, r in enumerate(repl) if r != usual]
    if d.r_claimed is not None and repl and repl[0] != d.r_claimed:
        found.append(("replication-mismatch", (d.r_claimed, repl[0])))
    return tuple(found)


def ref_olp_count(d: Design) -> int:
    opp = [ref_opposite(d, x) for x in range(d.v)]
    lines = set(d.lines)
    return sum(1 for line in d.lines
               if opp[line[0]] in lines and opp[line[0]] > line
               and all(opp[x] == opp[line[0]] for x in line)
               and all(opp[y] == line for y in opp[line[0]]))


# ---------------------------------------------------------------------------
# Inputs

@lru_cache(maxsize=None)
def _entry(entry_id: str) -> Design:
    return catalog.catalog_load(entry_id)


def relabelled(entry_id: str, seed: int) -> Design:
    d = _entry(entry_id)
    perm = list(range(d.v))
    random.Random(seed).shuffle(perm)
    return Design.make(v=d.v, k=d.k, lines=[[perm[p] for p in line] for line in d.lines],
                       r_claimed=d.r_claimed)


def broken(d: Design, seed: int) -> Design:
    """`d` with one line dropped and one point of another line moved onto a
    point already collinear with the rest of it."""
    rng = random.Random(seed)
    lines = [list(line) for line in d.lines]
    lines.pop(rng.randrange(len(lines)))
    line = rng.choice(lines)
    keep = rng.choice(line)
    others = [q for m in d.lines if keep in m for q in m if q not in line]
    line[line.index(rng.choice([p for p in line if p != keep]))] = rng.choice(others)
    return Design.make(v=d.v, k=d.k, lines={tuple(sorted(m)) for m in lines})


entries = st.sampled_from(SMALL)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def assert_matches_reference(d: Design) -> None:
    opposites = [ref_opposite(d, x) for x in range(d.v)]
    assert [opposite_line(d, x) for x in range(d.v)] == opposites
    number = {line: i for i, line in enumerate(d.lines)}
    assert opposite_line_map(d).line_index == tuple(number.get(opp) for opp in opposites)
    assert build_deficiency(d).edges == ref_deficiency_edges(d)
    assert verify_pls(d).violations == ref_pls_violations(d)


@settings(max_examples=20, deadline=None)
@given(entries, seeds)
def test_relabelled_catalog_matches_reference(entry_id, seed):
    d = relabelled(entry_id, seed)
    assert_matches_reference(d)
    assert verify_pentagonal(d).ok
    assert count_olps(d).q == ref_olp_count(d)


@settings(max_examples=20, deadline=None)
@given(entries, seeds)
def test_broken_catalog_copy_matches_reference(entry_id, seed):
    d = broken(relabelled(entry_id, seed), seed)
    assert_matches_reference(d)
    assert not verify_pentagonal(d).ok


def test_pair_covered_twice_and_three_times_reported_once():
    # (0, 1) lies on three lines, (2, 3) on two.
    d = Design.make(v=7, k=3, lines=[(0, 1, 2), (0, 1, 3), (0, 1, 4),
                                     (2, 3, 5), (2, 3, 6)])
    assert_matches_reference(d)
    twice = [w for code, w in verify_pls(d).violations if code == "pair-covered-twice"]
    assert twice == [(0, 1), (2, 3)]
    assert not verify_pentagonal(d).ok


def test_point_on_no_line_is_opposite_to_everyone():
    d = Design.make(v=5, k=2, lines=[(0, 1), (1, 2)])
    assert_matches_reference(d)
    assert opposite_line(d, 4) == (0, 1, 2, 3)


@pytest.mark.parametrize("x", [-1, 22])
def test_opposite_line_rejects_point_outside_design(x):
    d = _entry("pent3_9_olp1")
    with pytest.raises(DesignError, match="outside"):
        opposite_line(d, x)


# ---------------------------------------------------------------------------
# Laziness and caching

def test_index_is_built_on_first_use_only():
    d = Design.make(v=6, k=3, lines=[(0, 1, 2), (3, 4, 5)])
    assert "incidence" not in vars(d)
    serialize_design(d)
    assert "incidence" not in vars(d)
    assert "incidence" not in vars(parse_design(serialize_design(d)))
    index = d.incidence
    assert vars(d)["incidence"] is index and d.incidence is index


def test_index_leaves_equality_and_hash_alone():
    d = relabelled("pent3_9_olp1", 1)
    twin = Design.make(v=d.v, k=d.k, lines=d.lines, r_claimed=d.r_claimed)
    verify_pentagonal(d)
    assert "incidence" in vars(d) and "incidence" not in vars(twin)
    assert d == twin and hash(d) == hash(twin)


def test_deficiency_graph_is_made_once_per_design():
    d = relabelled("pent3_10_olp1", 2)
    graph = build_deficiency(d)
    count_olps(d)
    assert build_deficiency(d) is graph
