import io
import time

import pytest

from pentforge import catalog
from pentforge.analysis import count_olps, max_olps_bound, verify_pentagonal
from pentforge import construct
from pentforge.construct import (ConstructionError, Gdd, OrbitSpec, Pbd, Quasigroup,
                                 Sts, bose_pent3, cyclic_idempotent_quasigroup,
                                 degenerate_pent, expand_orbits, gdd_compose,
                                 parse_gdd, parse_orbit, parse_pbd, parse_sts,
                                 pbd_pent3, serialize_gdd, serialize_orbit,
                                 steiner_quasigroup, sts_bose, td3)
from pentforge.cli import run
from pentforge.defgraph import build_deficiency, moore_pent, petersen
from tests.conftest import check_universal


# ---------------------------------------------------------------------------
# Orbit expansion

def test_expand_trivial_orbit():
    d = expand_orbits(OrbitSpec(modulus=3, step=3, k=3, bases=((0, 1, 2),)))
    assert d.lines == ((0, 1, 2),)


def test_expand_pent4_13():
    d = catalog.catalog_load("pent4_13")
    assert d.v == 44 and d.b == 143
    check_universal(d)


def test_expand_pent3_27():
    d = catalog.catalog_load("pent3_27")
    assert d.v == 58 and d.b == 522


def test_expand_detects_duplicates():
    spec = OrbitSpec(modulus=4, step=2, k=2, bases=((0, 2),))
    with pytest.raises(ConstructionError, match="duplicate"):
        expand_orbits(spec)


def test_expand_count_mismatch():
    spec = OrbitSpec(modulus=5, step=1, k=2, bases=((0, 1),), expected_lines=4)
    with pytest.raises(ConstructionError, match="expected 4 lines"):
        expand_orbits(spec)


def test_expand_checks_count_before_developing():
    # A million-line orbit is never developed to learn it is not 3 lines.
    spec = OrbitSpec(modulus=1_000_000, step=1, k=3, bases=((0, 1, 3),), expected_lines=3)
    start = time.perf_counter()
    with pytest.raises(ConstructionError) as exc:
        expand_orbits(spec)
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == "expected 3 lines, generated 1000000"


def test_expand_count_reported_before_duplicates():
    spec = OrbitSpec(modulus=4, step=2, k=2, bases=((0, 2),), expected_lines=5)
    with pytest.raises(ConstructionError, match="^expected 5 lines, generated 2$"):
        expand_orbits(spec)


def test_orbit_spec_rejects_bad_step():
    with pytest.raises(ConstructionError):
        OrbitSpec(modulus=10, step=3, k=2, bases=((0, 1),))


def test_orbit_file_roundtrip():
    spec = OrbitSpec(modulus=44, step=4, k=4, bases=((20, 24, 25, 31),), r=13)
    assert parse_orbit(serialize_orbit(spec)) == spec


# ---------------------------------------------------------------------------
# Quasigroups

def test_cyclic_quasigroup_small_values():
    q3 = cyclic_idempotent_quasigroup(3)
    assert q3.table[0][1] == 2
    q5 = cyclic_idempotent_quasigroup(5)
    assert q5.table[1][3] == 2


def test_cyclic_quasigroup_rejects_even_order():
    with pytest.raises(ConstructionError):
        cyclic_idempotent_quasigroup(4)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 27])
def test_cyclic_quasigroup_axioms(n):
    cyclic_idempotent_quasigroup(n).check()


def test_steiner_quasigroup_fano():
    s = catalog.support_sts("sts7")
    q = steiner_quasigroup(s)
    assert q.table[0][1] == 3
    for x in range(7):
        assert q.table[x][x] == x


def test_steiner_quasigroup_axioms_order_9():
    steiner_quasigroup(sts_bose(9)).check()


# ---------------------------------------------------------------------------
# Steiner triple systems

@pytest.mark.parametrize("n,triples", [(9, 12), (15, 35), (21, 70), (27, 117)])
def test_sts_bose(n, triples):
    s = sts_bose(n)
    s.check()
    assert len(s.triples) == triples


def test_sts_bose_rejects_wrong_residue():
    with pytest.raises(ConstructionError):
        sts_bose(7)


def test_sts_invariant_rejects_missing_pair():
    with pytest.raises(ConstructionError, match="uncovered"):
        Sts(v=7, triples=((0, 1, 3),))


@pytest.mark.parametrize("build,message", [
    (lambda: Sts(v=3, triples=()), "STS: pair (0,1) uncovered"),
    (lambda: Sts(v=9, triples=((0, 1, 2),)), "STS: pair (0,3) uncovered"),
    (lambda: Pbd(v=11, distinguished=(0, 1, 2, 3, 4), triples=()), "PBD: pair (0,5) uncovered"),
], ids=["sts-no-triples", "sts-one-triple", "pbd-no-triples"])
def test_ingredient_short_of_its_order_names_a_pair_with_a_point_on_no_block(build, message):
    """The points above every given one are on no block; the least uncovered
    pair pairs 0 with the least of them."""
    with pytest.raises(ConstructionError) as info:
        build()
    assert str(info.value) == message


def test_bundled_sts_files():
    assert len(catalog.support_sts("sts7").triples) == 7
    assert len(catalog.support_sts("sts13").triples) == 26


# ---------------------------------------------------------------------------
# Bose and PBD pipelines

def test_bose_pent3_from_sts7():
    d = bose_pent3(catalog.support_sts("sts7"), 0)
    rep = verify_pentagonal(d)
    assert (d.v, d.b, rep.r) == (18, 42, 7)
    assert count_olps(d).q == 3
    check_universal(d)


def test_bose_pent3_from_sts9():
    d = bose_pent3(sts_bose(9), 0)
    rep = verify_pentagonal(d)
    assert (d.v, d.b, rep.r) == (24, 80, 10)
    assert count_olps(d).q == 4 == max_olps_bound(10)


def test_bose_pent3_from_sts13_is_maximal():
    d = bose_pent3(catalog.support_sts("sts13"), 0)
    rep = verify_pentagonal(d)
    assert (d.v, d.b, rep.r) == (36, 192, 16)
    assert count_olps(d).q == 6 == max_olps_bound(16)


def test_bose_pent3_replication_formula():
    for n, a in ((9, 4), (15, 2)):
        s = sts_bose(n)
        rep = verify_pentagonal(bose_pent3(s, a))
        assert rep.r == (3 * n - 1) // 2 - 3


def test_pbd_pent3_from_pbd11():
    p = catalog.support_pbd("pbd11")
    a = min(set(range(p.v)) - set(p.distinguished))
    d = pbd_pent3(p, a)
    rep = verify_pentagonal(d)
    assert (d.v, d.b, rep.r) == (30, 130, 13)
    check_universal(d)


def test_pbd_pent3_from_pbd17_matches_catalog_scale():
    p = catalog.support_pbd("pbd17")
    d = pbd_pent3(p, 5)
    rep = verify_pentagonal(d)
    assert (d.v, d.b, rep.r) == (48, 352, 22)
    ref = catalog.catalog_entry("pent3_22")
    assert (d.v, d.b) == (ref.v, ref.b)


def test_pbd_pent3_rejects_drop_in_distinguished():
    p = catalog.support_pbd("pbd11")
    with pytest.raises(ConstructionError, match="distinguished"):
        pbd_pent3(p, p.distinguished[0])


def test_pbd_invariant_rejects_double_cover():
    with pytest.raises(ConstructionError):
        Pbd(v=11, distinguished=(0, 1, 2, 3, 4), triples=((0, 1, 5),))


@pytest.mark.parametrize("build,match", [
    (lambda: Quasigroup(order=2, table=((0, 0), (1, 1))), "permutation"),
    (lambda: Quasigroup(order=3, table=((0, 1, 2), (1, 2, 0), (2, 0, 1))), "idempotent"),
    (lambda: Gdd(v=6, k=3, groups=((0, 1), (2, 3), (4, 5)), blocks=((0, 1, 2),)),
     "covered twice"),
    (lambda: Gdd(v=4, k=2, groups=((0, 1), (2,)), blocks=()), "partition"),
    # The pairs add up to v(v-1)/2 and no two blocks share one: only the
    # opposite sets show the blocks that lie inside groups.
    (lambda: Gdd(v=4, k=2, groups=((0, 1), (2, 3)), blocks=((0, 1), (0, 2), (1, 3), (2, 3))),
     r"^GDD: pair \(0,1\) covered twice$"),
], ids=["quasigroup-not-latin", "quasigroup-not-idempotent", "gdd-pair-twice",
        "gdd-groups-not-a-partition", "gdd-block-in-group-at-full-count"])
def test_invalid_quasigroup_and_gdd_rejected_when_built(build, match):
    with pytest.raises(ConstructionError, match=match):
        build()


def test_bose_build_checks_the_sts_once(monkeypatch):
    """`build bose` checks its STS once, when it is parsed; the Bose STS on
    three times the points is never built."""
    checked = []
    real_check = Sts.check

    def check_counted(self):
        checked.append(self.v)
        real_check(self)

    monkeypatch.setattr(construct.Sts, "check", check_counted)
    sts = catalog.catalog_dir() / "support" / "sts13.sts"
    assert run(["build", "bose", "--sts", str(sts), "--drop", "0"], out=io.StringIO()) == 0
    assert checked == [13]


# ---------------------------------------------------------------------------
# GDDs and composition

@pytest.mark.parametrize("g,blocks", [(2, 4), (6, 36), (10, 100)])
def test_td3(g, blocks):
    gdd = td3(g)
    assert len(gdd.blocks) == blocks and len(gdd.groups) == 3
    gdd.check()


def test_degenerate_pent():
    d = degenerate_pent(3)
    assert d.lines == ((0, 1, 2), (3, 4, 5))
    for k in range(2, 8):
        dk = degenerate_pent(k)
        assert dk.v == 2 * k and dk.b == 2
        assert count_olps(dk).q == 1


def test_compose_three_degenerates_gives_pent3_7():
    d = gdd_compose(td3(6), [(i, degenerate_pent(3)) for i in range(3)])
    rep = verify_pentagonal(d)
    assert (d.v, rep.r) == (18, 7)
    assert count_olps(d).q == 3
    check_universal(d)


def test_compose_three_desargues_gives_pent3_13():
    desargues = moore_pent(petersen(), 3)
    d = gdd_compose(td3(10), [(i, desargues) for i in range(3)])
    rep = verify_pentagonal(d)
    assert (d.v, rep.r) == (30, 13)
    assert count_olps(d).q == 0


def test_compose_group_size_mismatch():
    parts = [(0, degenerate_pent(3)), (1, moore_pent(petersen(), 3)),
             (2, moore_pent(petersen(), 3))]
    with pytest.raises(ConstructionError, match="group"):
        gdd_compose(td3(10), parts)


def test_compose_deficiency_is_disjoint_union_of_parts():
    desargues = moore_pent(petersen(), 3)
    d = gdd_compose(td3(10), [(i, desargues) for i in range(3)])
    g = build_deficiency(d)
    # cross-group pairs are all covered by GDD blocks
    assert all(u // 10 == w // 10 for u, w in g.edges)
    assert len(g.edges) == 3 * len(petersen().edges)


def test_gdd_parser_rejects_overlapping_pair():
    text = ("kind: gdd\nv: 6\nk: 3\ngroup: 0 1\ngroup: 2 3\ngroup: 4 5\n"
            "block: 0 1 2\n")
    with pytest.raises(ConstructionError):
        parse_gdd(text)


def test_gdd_file_roundtrip():
    gdd = td3(4)
    assert parse_gdd(serialize_gdd(gdd)) == gdd


def test_sts_pbd_parsers_reject_unknown_kind():
    from pentforge.core import ParseError
    with pytest.raises(ParseError):
        parse_sts("kind: pbd\nv: 7\n")
    with pytest.raises(ParseError):
        parse_pbd("kind: sts\nv: 11\n")


def test_orbit_spec_rejects_base_point_outside_families():
    with pytest.raises(ConstructionError, match="bad base block"):
        OrbitSpec(modulus=7, step=1, k=3, bases=((0, 1, 7),))
    OrbitSpec(modulus=7, step=1, k=3, bases=((0, 1, 7),), families=2)


def test_orbit_development_keeps_families_apart():
    d = expand_orbits(OrbitSpec(modulus=4, step=2, k=2, bases=((1, 6),), families=2))
    assert d.v == 8 and d.lines == ((1, 6), (3, 4))


def test_serialize_orbit_refuses_several_families():
    spec = OrbitSpec(modulus=3, step=1, k=2, bases=((0, 3),), families=2)
    with pytest.raises(ConstructionError, match="single family"):
        serialize_orbit(spec)
