from collections import Counter
from functools import lru_cache
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from pentforge import catalog, core
from pentforge.core import (DESIGN, KINDS, Design, DesignError, ParseError, VerificationReport,
                            divisibility_ok, parameters, parse_design, read_records,
                            records, serialize_design, verify_pls)
from pentforge.search import cycle_types, design_from_cycle_type, pent2_enumerate


def ref_make(v, k, lines):
    """`Design.make`'s former line-by-line loop, the reference for its
    bulk checks."""
    canon = []
    for raw in lines:
        line = tuple(sorted(raw))
        if len(line) != k or len(set(line)) != k:
            raise DesignError(f"line {tuple(raw)} does not have {k} distinct points")
        if line[0] < 0 or line[-1] >= v:
            raise DesignError(f"line {line} has a point outside 0..{v - 1}")
        canon.append(line)
    canon.sort()
    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise DesignError(f"duplicate line {a}")
    return Design(v=v, k=k, lines=tuple(canon))


def ref_rejected_record(text, f):
    """The file line of the record `Design.make` rejected in the design file
    `text`, read into `f`, found by validating the file again (how
    `parse_design` once named it): the `v:` or `k:` record, else the first
    `line:` record bad on its own, else the second record of the least
    repeated line."""
    recs = records(text)
    if f["v"] < 0 or f["k"] < 2:
        return next(n for n, key, _ in recs if key == ("v" if f["v"] < 0 else "k"))
    numbered = [(n, tuple(sorted(line))) for n, line in
                zip((n for n, key, _ in recs if key == "line"), f["line"])]
    for n, line in numbered:
        try:
            Design.make(v=f["v"], k=f["k"], lines=[line])
        except DesignError:
            return n
    counts = Counter(line for _, line in numbered)
    least = min(line for line, count in counts.items() if count > 1)
    return [n for n, line in numbered if line == least][1]


def ref_serialize(d):
    """`serialize_design`'s former per-line join, the reference for its template."""
    out = [f"kind: {d.kind}", f"v: {d.v}", f"k: {d.k}"]
    if d.r_claimed is not None:
        out.append(f"r: {d.r_claimed}")
    for line in d.lines:
        out.append("line: " + " ".join(str(p) for p in line))
    return "\n".join(out) + "\n"


def test_parse_minimal_design():
    d = parse_design("kind: pls\nv: 6\nk: 3\nline: 0 1 2\n")
    assert d.v == 6 and d.k == 3 and d.lines == ((0, 1, 2),)


def test_parse_rejects_duplicate_line():
    text = "v: 6\nk: 3\nline: 0 1 2\nline: 2 1 0\n"
    with pytest.raises(DesignError, match="duplicate line"):
        parse_design(text)


@pytest.mark.parametrize("text", [
    "v: 6\nk: 3\nline: 0 1\n",            # wrong line size
    "v: 6\nk: 3\nline: 0 1 6\n",          # point out of range
    "v: 6\nk: 3\nline: 0 1 x\n",          # non-integer point
    "v: 6\nk: 3\nnot a record\n",         # malformed record
    "v: 6\nk: 3\nwidth: 3\n",             # unknown field
    "k: 3\nline: 0 1 2\n",                # missing v
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_design(text)


def test_comments_and_blank_lines_ignored():
    d = parse_design("# a comment\nv: 6\nk: 3\n\nline: 0 1 2  # trailing\n")
    assert d.lines == ((0, 1, 2),)


def test_canonicalization_sorts_lines():
    d = Design.make(v=6, k=3, lines=[(5, 4, 3), (2, 0, 1)])
    assert d.lines == ((0, 1, 2), (3, 4, 5))


def test_roundtrip_serialize_parse(pent3_9_olp1):
    assert parse_design(serialize_design(pent3_9_olp1)) == pent3_9_olp1


def test_serialize_empty_design_is_header_only():
    d = Design.make(v=4, k=2, lines=[])
    assert serialize_design(d) == "kind: pent\nv: 4\nk: 2\n"


def test_verify_pls_two_disjoint_lines():
    d = Design.make(v=6, k=3, lines=[(0, 1, 2), (3, 4, 5)])
    rep = verify_pls(d)
    assert rep == VerificationReport(ok=True, r=1, violations=())
    assert d.incidence.replication == (1,) * 6


def test_verify_pls_flags_double_covered_pair():
    d = Design.make(v=4, k=3, lines=[(0, 1, 2), (0, 1, 3)])
    rep = verify_pls(d)
    assert not rep.ok
    assert [w for code, w in rep.violations if code == "pair-covered-twice"] == [(0, 1)]


def test_verify_pls_on_catalog_system(pent3_9_olp0):
    rep = verify_pls(pent3_9_olp0)
    assert rep == VerificationReport(ok=True, r=9, violations=())
    assert pent3_9_olp0.incidence.replication == (9,) * 22


def test_verify_pls_irregular():
    d = Design.make(v=5, k=2, lines=[(0, 1), (0, 2)])
    rep = verify_pls(d)
    assert not rep.ok and rep.r is None
    assert rep.violations == (("irregular-point", (0, 2)), ("irregular-point", (1, 1)),
                              ("irregular-point", (2, 1)))


def test_verify_pls_r_without_points_or_lines():
    # No points: no common r.  Points but no lines: every point is on 0 lines.
    assert verify_pls(Design.make(v=0, k=3, lines=[])) == VerificationReport(
        ok=True, r=None, violations=())
    assert verify_pls(Design.make(v=4, k=3, lines=[])) == VerificationReport(
        ok=True, r=0, violations=())


def test_replication_claim_checked():
    d = Design.make(v=6, k=3, lines=[(0, 1, 2), (3, 4, 5)], r_claimed=2)
    rep = verify_pls(d)
    assert ("replication-mismatch", (2, 1)) in rep.violations


def test_replication_claim_needs_a_common_r():
    # The same irregular design twice, its two-line point labelled 0, then 1.
    reports = [verify_pls(Design.make(v=3, k=2, lines=lines, r_claimed=1))
               for lines in ([(0, 1), (0, 2)], [(1, 0), (1, 2)])]
    for rep in reports:
        assert not rep.ok and rep.r is None
        assert {code for code, _ in rep.violations} == {"irregular-point"}


@pytest.mark.parametrize("k,r,v,b", [
    (3, 9, 22, 66),
    (4, 13, 44, 143),
    (2, 2, 5, 5),
])
def test_parameters(k, r, v, b):
    assert parameters(k, r) == (v, b)


def test_parameters_non_integral_flagged():
    v, b = parameters(3, 5)
    assert v == 14 and b is None


@pytest.mark.parametrize("k,r,expected", [
    (3, 10, True),
    (3, 5, False),
    (4, 7, False),
    (4, 13, True),
])
def test_divisibility(k, r, expected):
    assert divisibility_ok(k, r) is expected


def test_verify_order_invariance(pent3_9_olp1):
    # Reversing line order and scrambling points within lines must not
    # change any flag after canonicalization.
    scrambled = [tuple(reversed(line)) for line in reversed(pent3_9_olp1.lines)]
    d = Design.make(v=22, k=3, lines=scrambled)
    assert d == Design.make(v=22, k=3, lines=pent3_9_olp1.lines)
    assert verify_pls(d).ok


def test_flag_double_count_identity(pent3_9_olp1):
    rep = verify_pls(pent3_9_olp1)
    assert rep.r is not None
    assert pent3_9_olp1.b * pent3_9_olp1.k == pent3_9_olp1.v * rep.r


# ---------------------------------------------------------------------------
# Bulk checks in Design.make and the serialization template, against the
# references above

FORMS = ("sorted tuple", "tuple", "list", "generator")
DEFECTS = ("none",) * 6 + ("short", "repeated point", "below 0", "above v-1")


@st.composite
def line_specs(draw):
    """(v, k, [(points, form)], outer form): lines that are sound or short,
    repeat a point, leave 0..v-1, or copy an earlier line in another order."""
    k = draw(st.integers(2, 4))
    v = draw(st.integers(k, k + 5))
    specs = []
    for _ in range(draw(st.integers(0, 8))):
        if specs and draw(st.integers(0, 4)) == 0:
            points = draw(st.permutations(draw(st.sampled_from(specs))[0]))
        else:
            points = draw(st.lists(st.integers(0, v - 1), min_size=k, max_size=k,
                                   unique=True))
            defect = draw(st.sampled_from(DEFECTS))
            i = draw(st.integers(0, k - 1))
            if defect == "short":
                del points[i]
            elif defect == "repeated point":
                points[i] = points[i - 1]
            elif defect == "below 0":
                points[i] = -1
            elif defect == "above v-1":
                points[i] = v
        specs.append((list(points), draw(st.sampled_from(FORMS))))
    return v, k, specs, draw(st.sampled_from(("list", "generator")))


def materialize(specs, outer):
    """Fresh line objects for one call; generators can be read only once."""
    def as_form(points, form):
        if form == "sorted tuple":
            return tuple(sorted(points))
        if form == "tuple":
            return tuple(points)
        if form == "list":
            return list(points)
        return (p for p in points)
    lines = [as_form(points, form) for points, form in specs]
    return iter(lines) if outer == "generator" else lines


def outcome(make, v, k, lines):
    try:
        return make(v, k, lines)
    except DesignError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(line_specs())
def test_make_matches_line_by_line_reference(case):
    v, k, specs, outer = case
    got = outcome(lambda v, k, lines: Design.make(v=v, k=k, lines=lines),
                  v, k, materialize(specs, outer))
    want = outcome(ref_make, v, k, materialize(specs, outer))
    assert got == want
    if isinstance(got, Design):
        assert all(type(line) is tuple for line in got.lines)
        assert serialize_design(got) == ref_serialize(got)
        assert parse_design(serialize_design(got)) == got


def test_make_keeps_canonical_tuples():
    raw = [(3, 4, 5), (0, 1, 2)]
    d = Design.make(v=6, k=3, lines=raw)
    assert d.lines[0] is raw[1] and d.lines[1] is raw[0]


@pytest.mark.parametrize("lines,message", [
    ([(0, 1, 2), (0, 1)], r"^line \(0, 1\) does not have 3 distinct points$"),
    ([(4, 2, 9), (0, 0, 1)], r"^line \(2, 4, 9\) has a point outside 0..5$"),
    ([iter((5, 4, 4))], r"^line \(\) does not have 3 distinct points$"),
    ([(1, 2, 3), (0, 1, 2), [3, 2, 1]], r"^duplicate line \(1, 2, 3\)$"),
])
def test_make_names_the_first_bad_line(lines, message):
    with pytest.raises(DesignError, match=message):
        Design.make(v=6, k=3, lines=lines)


def test_make_unsortable_line_after_a_bad_one():
    with pytest.raises(DesignError, match="outside"):
        Design.make(v=6, k=3, lines=[(0, 1, 9), (0, "a", 1)])
    with pytest.raises(TypeError):
        Design.make(v=6, k=3, lines=[(2, 1, 0), (0, "a", 1)])


@pytest.mark.parametrize("entry", ["pent3_9_olp1", "pent3_12", "pent4_13"])
def test_serialize_matches_reference_on_catalog(entry):
    d = catalog.catalog_load(entry)
    text = serialize_design(d)
    assert text == ref_serialize(d)
    assert parse_design(text) == d


def test_serialize_matches_reference_on_pent2_and_odd_points():
    for _, d in pent2_enumerate(9):
        assert serialize_design(d) == ref_serialize(d)
    d = Design.make(v=5, k=2, lines=[(0.5, 1), (2, 3.0), (True, 4)], r_claimed=2)
    assert serialize_design(d) == ref_serialize(d)
    assert serialize_design(d).endswith("\nline: 0.5 1\nline: True 4\nline: 2 3.0\n")


def test_cycle_type_designs_share_line_tuples():
    a = design_from_cycle_type((4, 5))
    b = design_from_cycle_type((9,))
    common = set(a.lines) & set(b.lines)
    assert len(common) == 36 - 9 - 9 + 7  # the two cycles share 7 edges
    ids_a = {id(line) for line in a.lines if line in common}
    ids_b = {id(line) for line in b.lines if line in common}
    assert ids_a == ids_b


@lru_cache(maxsize=None)
def loaded(entry_id):
    return catalog.catalog_load(entry_id)


@st.composite
def kept_designs(draw):
    """A catalog design or a PENT(2,r), of any kind, and a mask over its lines
    that may be shorter or longer than them."""
    if draw(st.booleans()):
        d = loaded(draw(st.sampled_from([e.id for e in catalog.catalog_entries()])))
    else:
        d = design_from_cycle_type(draw(st.integers(4, 24).flatmap(
            lambda n: st.sampled_from(list(cycle_types(n))))))
    d = d._replace(kind=draw(st.sampled_from(KINDS)))
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    mask = [rng.random() < p for _ in range(rng.randint(0, d.b + 2))]
    return d, mask, draw(st.none() | st.integers(0, 60))


@settings(max_examples=150, deadline=None)
@given(kept_designs())
def test_keep_equals_make_on_the_kept_lines(case):
    d, mask, r = case
    kept = d.keep(mask, r)
    made = Design.make(d.v, d.k, list(compress(d.lines, mask)), r, d.kind)
    assert type(kept) is Design and kept == made
    ids = {id(line) for line in d.lines}
    assert all(id(line) in ids for line in kept.lines)
    assert verify_pls(kept) == verify_pls(made)


def ref_where(v, k, specs):
    """Input position of the line `ref_make` rejects: the first line bad on
    its own, else the second occurrence of the least repeated line."""
    canon = [tuple(sorted(points)) for points, _ in specs]
    for i, line in enumerate(canon):
        if len(line) != k or len(set(line)) != k or line[0] < 0 or line[-1] >= v:
            return i
    least = min(line for line in canon if canon.count(line) > 1)
    return [i for i, line in enumerate(canon) if line == least][1]


@settings(max_examples=300, deadline=None)
@given(line_specs())
def test_make_error_names_the_input_position(case):
    v, k, specs, outer = case
    try:
        Design.make(v=v, k=k, lines=materialize(specs, outer))
    except DesignError as exc:
        assert exc.where == ref_where(v, k, specs)


@pytest.mark.parametrize("v,k,where", [(-1, 3, "v"), (-1, 1, "v"), (6, 1, "k")])
def test_make_error_names_the_bad_parameter(v, k, where):
    with pytest.raises(DesignError) as info:
        Design.make(v=v, k=k, lines=[])
    assert info.value.where == where


# ---------------------------------------------------------------------------
# The record a rejected design file names, against the former second pass

@st.composite
def design_files(draw):
    """A design file with records in random order, comments and blank lines:
    `v:` and `k:` that may be out of range, and lines that are sound, short,
    repeat a point, leave 0..v-1, or repeat an earlier line in another order."""
    v = draw(st.sampled_from((-1, 3, 4, 5, 6, 6, 7, 7)))
    k = draw(st.sampled_from((1, 2, 3, 3, 3, 4)))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        if lines and draw(st.booleans()):
            lines.append(draw(st.permutations(draw(st.sampled_from(lines)))))
        elif 2 <= k <= v and draw(st.integers(0, 5)):
            lines.append(draw(st.lists(st.integers(0, v - 1), min_size=k, max_size=k,
                                       unique=True)))
        else:
            lines.append(draw(st.lists(st.integers(-1, max(v, 1)), min_size=k - 1,
                                       max_size=k + 1)))
    recs = [f"v: {v}", f"k: {k}", *draw(st.sampled_from([[], ["kind: pls"], ["r: 2"]])),
            *("line: " + " ".join(map(str, line)) for line in lines)]
    return "".join(draw(st.sampled_from(["", "\n", "# note\n"])) + rec
                   + draw(st.sampled_from(["", "  # trailing"])) + "\n"
                   for rec in draw(st.permutations(recs)))


@settings(max_examples=400, deadline=None)
@given(design_files())
def test_parse_design_names_the_record_the_reference_names(text):
    f = read_records(records(text), DESIGN)
    try:
        if f["v"] < 0 or f["k"] < 2:
            raise DesignError(f"bad parameters v={f['v']}, k={f['k']}")
        ref_make(f["v"], f["k"], f["line"])
    except DesignError as exc:
        with pytest.raises(ParseError) as info:
            parse_design(text)
        assert str(info.value) == f"line {ref_rejected_record(text, f)}: {exc}"
    else:
        parse_design(text)


@pytest.mark.parametrize("text", [
    "v: 6\nk: 3\nline: 0 1 2\nline: 3 4 5\nline: 1 2 0\nline: 5 4 3\nline: 0 2 1\n",
    "v: 6\nk: 3\nline: 0 1 2\nline: 3 4 9\nline: 0 1\n",
    "k: 3\nv: -1\nline: 0 1 2\n",
], ids=["duplicate", "outside", "parameters"])
def test_failing_parse_design_splits_and_makes_once(monkeypatch, text):
    calls = Counter()
    split, make = core.records, Design.make
    monkeypatch.setattr(core, "records", lambda text: calls.update(["records"]) or split(text))
    monkeypatch.setattr(Design, "make", classmethod(
        lambda cls, *args, **kwargs: calls.update(["make"]) or make(*args, **kwargs)))
    with pytest.raises(ParseError):
        parse_design(text)
    assert calls == {"records": 1, "make": 1}
