import random

import pytest

from pentforge import catalog
from pentforge.analysis import (count_olps, known_spectrum, max_olps_bound,
                                opposite_line, two_olp_counts,
                                two_olp_excluded, verify_pentagonal)
from pentforge.construct import degenerate_pent
from pentforge.core import Design, VerificationReport, parameters
from pentforge.defgraph import cycle_graph, moore_pent


def test_opposite_line_one_olp_listing(pent3_9_olp1):
    assert opposite_line(pent3_9_olp1, 0) == (3, 4, 5)


def test_opposite_line_pentagon():
    pentagon = moore_pent(cycle_graph(5), 2)
    for x in range(5):
        opp = opposite_line(pentagon, x)
        assert len(opp) == 2
        # lines are the distance-2 neighborhoods, so the non-collinear
        # points of x are exactly its two cycle neighbours
        assert all(abs(p - x) % 5 in (1, 4) for p in opp)


def test_opposite_line_one_olp_pent3_10():
    d = catalog.catalog_load("pent3_10_olp1")
    assert opposite_line(d, 18) == (21, 22, 23)


def test_verify_pentagonal_passes(pent3_9_olp0):
    rep = verify_pentagonal(pent3_9_olp0)
    assert rep == VerificationReport(ok=True, r=9, violations=())
    assert parameters(3, rep.r) == (pent3_9_olp0.v, pent3_9_olp0.b)


def test_verify_pentagonal_flags_counts_r_forces():
    # Two disjoint PENT(3,1)s: regular with r = 1, but r = 1 forces 6 points.
    twice = Design.make(v=12, k=3, lines=[(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
    rep = verify_pentagonal(twice)
    assert not rep.ok and rep.r == 1
    assert rep.violations[0] == ("count-mismatch", (12, 4, 6, 2))


@pytest.mark.parametrize("v,k,lines,r,codes", [
    (0, 3, [], None, set()),  # no points: no r and no violation, yet no geometry
    (4, 3, [], 0, {"opposite-not-a-line"}),  # every opposite set is all other points
    (5, 2, [(0, 1), (0, 2)], None, {"irregular-point"}),
])
def test_verify_pentagonal_r_when_it_fails(v, k, lines, r, codes):
    rep = verify_pentagonal(Design.make(v=v, k=k, lines=lines))
    assert not rep.ok and rep.r == r
    assert {code for code, _ in rep.violations} == codes


def test_verify_pentagonal_broken_by_deleting_a_line(pent3_9_olp0):
    d = Design.make(v=22, k=3, lines=pent3_9_olp0.lines[1:])
    rep = verify_pentagonal(d)
    assert not rep.ok


def assert_witnesses_hold(d: Design) -> None:
    """Each violation that `verify_pentagonal` reports, checked by brute force
    against the lines themselves."""
    rep = verify_pentagonal(d)
    assert not rep.ok and rep.violations
    for code, witness in rep.violations:
        if code == "pair-covered-twice":
            x, y = witness
            assert x < y and sum(x in line and y in line for line in d.lines) >= 2
        elif code == "irregular-point":
            p, n = witness
            assert sum(p in line for line in d.lines) == n
        elif code == "opposite-not-a-line":
            x, opp = witness
            collinear = {p for line in d.lines if x in line for p in line} | {x}
            assert opp == tuple(p for p in range(d.v) if p not in collinear)
            assert opp not in d.lines
        elif code == "count-mismatch":
            assert witness == (d.v, d.b, *parameters(d.k, rep.r))
        else:
            assert (code, witness) == ("replication-mismatch", (d.r_claimed, rep.r))


def one_line_changed(d: Design, seed: int) -> Design:
    """`d` with one point of one line replaced by a point off that line."""
    rng = random.Random(seed)
    while True:
        i = rng.randrange(d.b)
        line = d.lines[i]
        new = tuple(sorted(set(line) - {rng.choice(line)}
                           | {rng.choice([p for p in range(d.v) if p not in line])}))
        if new not in d.lines:
            return Design.make(v=d.v, k=d.k, lines=d.lines[:i] + (new,) + d.lines[i + 1:],
                               r_claimed=d.r_claimed)


@pytest.mark.parametrize("entry_id", [e.id for e in catalog.catalog_entries()])
def test_every_witness_of_a_one_line_mutant_holds(entry_id):
    d = catalog.catalog_load(entry_id)
    for seed in range(2):
        assert_witnesses_hold(one_line_changed(d, seed))


FANO = [(0, 1, 3), (0, 2, 6), (0, 4, 5), (1, 2, 4), (1, 5, 6), (2, 3, 5), (3, 4, 6)]


@pytest.mark.parametrize("v,lines,r,codes", [
    (7, FANO, None, {"count-mismatch", "opposite-not-a-line"}),
    (9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], None, {"count-mismatch", "opposite-not-a-line"}),
    (7, FANO, 2, {"count-mismatch", "replication-mismatch"}),
], ids=["fano-plane", "three-parallel-lines", "fano-plane-claimed-r2"])
def test_every_witness_of_a_regular_space_holds(v, lines, r, codes):
    """Regular partial linear spaces that are not pentagonal: r forces other
    counts, and their opposite sets are not lines."""
    d = Design.make(v=v, k=3, lines=lines, r_claimed=r)
    assert {code for code, _ in verify_pentagonal(d).violations} == codes
    assert_witnesses_hold(d)


def test_degenerate_pent_is_pentagonal():
    rep = verify_pentagonal(degenerate_pent(3))
    assert rep.ok and rep.r == 1


def test_count_olps(pent3_9_olp1, pent3_9_olp0):
    assert count_olps(pent3_9_olp1).q == 1
    assert count_olps(pent3_9_olp1).pairs == (((0, 1, 2), (3, 4, 5)),)
    assert count_olps(pent3_9_olp0).q == 0


def test_count_olps_one_olp_pent3_10():
    assert count_olps(catalog.catalog_load("pent3_10")).q == 0


@pytest.mark.parametrize("r,bound", [(10, 4), (12, 3), (9, 2), (7, 3), (13, 5)])
def test_max_olps_bound(r, bound):
    assert max_olps_bound(r) == bound


def test_max_olps_bound_rejects_bad_residue():
    with pytest.raises(ValueError):
        max_olps_bound(8)


def test_two_olp_line_census():
    counts = two_olp_counts(7)
    assert counts["ccc_lines"] == 2 and counts["c_points"] == 6
    counts13 = two_olp_counts(13)
    assert counts13["ccc_lines"] == 18 and counts13["c_points"] == 18


def test_two_olp_excluded_exact_set():
    valid = [r for r in range(7, 31) if r % 3 in (0, 1)]
    assert [r for r in valid if two_olp_excluded(r)] == [7, 9, 10, 12]


@pytest.mark.parametrize("k,r,status", [
    (3, 6, "not-exist"),
    (3, 4, "not-exist"),
    (4, 5, "not-exist"),
    (4, 4, "not-exist"),
    (4, 48, "open"),
    (4, 13, "exists"),
    (3, 9, "exists"),
    (3, 7, "exists-maximal"),
    (2, 2, "exists"),
    (7, 7, "exists"),
    (57, 57, "open"),
    (5, 5, "not-exist"),
    (6, 7, "exists"),
    (3, 5, "not-exist"),   # fails divisibility
    (5, 2, "not-exist"),   # 1 < r < k
])
def test_known_spectrum(k, r, status):
    assert known_spectrum(k, r).status == status


def test_olp_partition_when_r_small(pent3_9_olp1):
    # 1 < r < 3k: either q = 0 or the OLPs partition the point set.
    d = degenerate_pent(3)
    olps = count_olps(d)
    pts = sorted(p for pair in olps.pairs for line in pair for p in line)
    assert pts == list(range(d.v))


def test_opposite_size_identity(pent3_9_olp0):
    # |x_opp| = v - 1 - r(k-1) = k
    for x in range(pent3_9_olp0.v):
        assert len(opposite_line(pent3_9_olp0, x)) == 3
