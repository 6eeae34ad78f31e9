"""End-to-end acceptance suite.

Each test prints a single `criterion N: PASS` / `criterion N: FAIL` line so
the pytest -v transcript doubles as an acceptance report.  All checks are
exact (zero tolerance); the wall-clock budgets are generous upper bounds.
"""

import random
import time
from contextlib import contextmanager

from pentforge import catalog
from pentforge.analysis import (count_olps, max_olps_bound, two_olp_excluded,
                                verify_pentagonal)
from pentforge.construct import degenerate_pent, gdd_compose, td3
from pentforge.defgraph import (build_deficiency, girth, moore_pent, petersen)
from pentforge.search import (complete_from_deficiency, partition_p,
                              pent2_count, pent2_enumerate)
from tests.conftest import check_universal
from tests.test_search import brute_force_partitions


@contextmanager
def criterion(number: int, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"criterion {number}: FAIL")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
    print(f"criterion {number}: PASS")


def test_criterion_1_catalog_reproduction():
    with criterion(1, budget_seconds=10.0):
        rows = catalog.catalog_verify_all()
        assert len(rows) == 23
        assert all(ok for _, ok, _ in rows), [
            (eid, problems) for eid, ok, problems in rows if not ok]
        big = catalog.catalog_load("pent4_60")
        assert (big.v, big.b) == (185, 2775)
        assert girth(build_deficiency(catalog.catalog_load("pent3_24"))) == 7
        olps = count_olps(catalog.catalog_load("pent3_9_olp1"))
        assert olps.pairs == (((0, 1, 2), (3, 4, 5)),)


def test_criterion_2_bose_pipeline():
    with criterion(2, budget_seconds=1.0):
        from pentforge.construct import bose_pent3, sts_bose
        d10 = bose_pent3(sts_bose(9), 0)
        rep = verify_pentagonal(d10)
        assert rep.ok and (d10.v, d10.b, rep.r) == (24, 80, 10)
        assert count_olps(d10).q == 4 == max_olps_bound(10)
        d7 = bose_pent3(catalog.support_sts("sts7"), 0)
        rep7 = verify_pentagonal(d7)
        assert rep7.ok and rep7.r == 7
        olps = count_olps(d7)
        assert olps.q == 3
        covered = sorted(p for l, m in olps.pairs for p in l + m)
        assert covered == list(range(d7.v))  # OLPs partition the points


def test_criterion_3_pbd_pipeline():
    with criterion(3, budget_seconds=1.0):
        from pentforge.construct import pbd_pent3
        p = catalog.support_pbd("pbd11")
        a = min(set(range(p.v)) - set(p.distinguished))
        d = pbd_pent3(p, a)
        rep = verify_pentagonal(d)
        assert rep.ok and (d.v, d.b, rep.r) == (30, 130, 13)


def test_criterion_4_composition_and_olp_additivity():
    with criterion(4, budget_seconds=5.0):
        d7 = gdd_compose(td3(6), [(i, degenerate_pent(3)) for i in range(3)])
        rep = verify_pentagonal(d7)
        assert rep.ok and rep.r == 7 and count_olps(d7).q == 3

        desargues = moore_pent(petersen(), 3)
        d13 = gdd_compose(td3(10), [(i, desargues) for i in range(3)])
        rep = verify_pentagonal(d13)
        assert rep.ok and rep.r == 13 and count_olps(d13).q == 0

        pools = {
            6: [degenerate_pent(3)],
            10: [desargues],
            22: [catalog.catalog_load("pent3_9_olp0"),
                 catalog.catalog_load("pent3_9_olp1")],
            24: [catalog.catalog_load("pent3_10"),
                 catalog.catalog_load("pent3_10_olp1")],
            28: [catalog.catalog_load("pent3_12"),
                 catalog.catalog_load("pent3_12_olp1")],
        }
        rng = random.Random(0)
        for _ in range(20):
            g = rng.choice(sorted(pools))
            parts = [rng.choice(pools[g]) for _ in range(3)]
            composed = gdd_compose(td3(g), list(enumerate(parts)))
            assert verify_pentagonal(composed).ok
            assert count_olps(composed).q == sum(count_olps(p).q for p in parts)


def test_criterion_5_enumeration():
    with criterion(5, budget_seconds=5.0):
        for r in range(2, 21):
            systems = list(pent2_enumerate(r))
            assert pent2_count(r) == len(systems)
            for _, design in systems:
                assert verify_pentagonal(design).ok
        for n in range(41):
            assert partition_p(n) == brute_force_partitions(n)


def test_criterion_6_two_olp_exclusion():
    with criterion(6):
        valid = [r for r in range(7, 31) if r % 3 in (0, 1)]
        assert [r for r in valid if two_olp_excluded(r)] == [7, 9, 10, 12]


def test_criterion_7_moore_pathway():
    with criterion(7, budget_seconds=1.0):
        g = petersen()
        d = moore_pent(g, 3)
        rep = verify_pentagonal(d)
        assert rep.ok and rep.r == 3 and d.b == 10
        assert build_deficiency(d).edges == g.edges


def test_criterion_8_completion_search(pent3_9_olp1):
    with criterion(8, budget_seconds=60.0):
        g = build_deficiency(pent3_9_olp1)
        d = complete_from_deficiency(g, 3, 9)
        assert d is not None
        assert verify_pentagonal(d).ok
        assert build_deficiency(d).edges == g.edges


def test_criterion_9_universal_property_suite():
    with criterion(9):
        from pentforge.construct import bose_pent3, pbd_pent3, sts_bose
        designs = [catalog.catalog_load(e.id) for e in catalog.catalog_entries()]
        designs += [moore_pent(petersen(), 3), degenerate_pent(3),
                    bose_pent3(sts_bose(9), 0),
                    pbd_pent3(catalog.support_pbd("pbd11"), 5),
                    gdd_compose(td3(6),
                                [(i, degenerate_pent(3)) for i in range(3)])]
        designs += [d for _, d in pent2_enumerate(9)]
        for design in designs:
            check_universal(design)
