"""The shared `key: value` reader, exercised through every file format."""

import pytest
from hypothesis import given, settings, strategies as st

from pentforge import catalog
from pentforge.catalog import parse_family_orbit
from pentforge.construct import (ConstructionError, Gdd, OrbitSpec, parse_gdd,
                                 parse_orbit, parse_pbd, parse_sts, serialize_gdd,
                                 serialize_orbit, td3)
from pentforge.core import DesignError, ParseError, parse_design
from pentforge.defgraph import Graph, parse_graph, serialize_graph


def _support(name):
    return (catalog.catalog_dir() / "support" / name).read_text()


# Format -> (parser, a valid file, its numeric fields, a required field).
FORMATS = {
    "design": (parse_design, "kind: pent\nv: 6\nk: 3\nr: 1\nline: 0 1 2\nline: 3 4 5\n",
               ("v", "k", "r", "line"), "v"),
    "orbit": (parse_orbit, "kind: orbit\nmodulus: 7\nstep: 1\nk: 3\nr: 3\nlines: 7\n"
              "base: 0 1 3\n", ("modulus", "step", "k", "r", "lines", "base"), "modulus"),
    "forbit": (parse_family_orbit, "kind: forbit\nfamilies: 1\nmodulus: 7\nk: 3\nr: 3\n"
               "lines: 7\nbase: a0 a1 a3\n",
               ("families", "modulus", "k", "r", "lines", "base"), "families"),
    "graph": (parse_graph, "kind: graph\nv: 3\nedge: 0 1\nedge: 1 2\n",
              ("v", "edge"), "v"),
    "sts": (parse_sts, _support("sts7.sts"), ("v", "triple"), "v"),
    "pbd": (parse_pbd, _support("pbd11.pbd"), ("v", "distinguished", "triple"),
            "distinguished"),
    "gdd": (parse_gdd, serialize_gdd(td3(2)), ("v", "k", "group", "block"), "k"),
}


def _first_record(text, key):
    lines = text.splitlines()
    return lines, next(i for i, line in enumerate(lines) if line.startswith(key + ":"))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_valid_file_parses(fmt):
    parse, text, _, _ = FORMATS[fmt]
    parse(text)


@pytest.mark.parametrize("fmt,key", [(fmt, key) for fmt in sorted(FORMATS)
                                     for key in FORMATS[fmt][2]])
def test_non_integer_is_a_parse_error_naming_the_line(fmt, key):
    parse, text, _, _ = FORMATS[fmt]
    lines, i = _first_record(text, key)
    lines[i] += "x"
    with pytest.raises(ParseError, match=f"^line {i + 1}: bad {key} value"):
        parse("\n".join(lines) + "\n")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_unknown_key_rejected(fmt):
    parse, text, _, _ = FORMATS[fmt]
    with pytest.raises(ParseError, match="unknown field 'width'"):
        parse(text + "width: 3\n")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_duplicate_header_rejected(fmt):
    parse, text, _, required = FORMATS[fmt]
    lines, i = _first_record(text, required)
    with pytest.raises(ParseError, match=f"duplicate header field '{required}'"):
        parse(text + lines[i] + "\n")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_missing_required_field_rejected(fmt):
    parse, text, _, required = FORMATS[fmt]
    lines, i = _first_record(text, required)
    del lines[i]
    with pytest.raises(ParseError, match=f"missing required field '{required}'"):
        parse("\n".join(lines) + "\n")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_wrong_kind_rejected(fmt):
    parse, text, _, _ = FORMATS[fmt]
    lines, i = _first_record(text, "kind")
    lines[i] = "kind: nonsense"
    with pytest.raises(ParseError, match=f"^line {i + 1}: bad kind value"):
        parse("\n".join(lines) + "\n")


def test_graph_requires_kind():
    with pytest.raises(ParseError, match="missing required field 'kind'"):
        parse_graph("v: 3\nedge: 0 1\n")


def test_family_label_residue_outside_modulus():
    with pytest.raises(ParseError, match="residue"):
        parse_family_orbit("kind: forbit\nfamilies: 1\nmodulus: 7\nk: 3\nbase: a0 a1 a7\n")


def test_family_label_outside_families():
    with pytest.raises(ParseError) as info:
        parse_family_orbit("kind: forbit\nfamilies: 1\nmodulus: 7\nk: 3\nbase: a0 a1 b0\n")
    assert str(info.value) == "line 5: bad base block (0, 1, 7)"


@pytest.mark.parametrize("records", ["block: 0 1 5", "group:"])
def test_gdd_bad_block_or_group(records):
    text = f"kind: gdd\nv: 3\nk: 3\ngroup: 0\ngroup: 1\ngroup: 2\n{records}\n"
    with pytest.raises(ConstructionError, match="bad block"):
        parse_gdd(text)


@pytest.mark.parametrize("parse,text,message", [
    (parse_graph, "kind: graph\nv: 4\nedge: 0 1\n# comment\nedge: 2 9\n",
     "line 5: edge (2,9) out of range for n=4"),
    (parse_graph, "kind: graph\nv: 4\nedge: 0 1\n\nedge: 1 0\nedge: 3 3\nedge: 2 2\n",
     "line 6: loop at vertex 3"),
    (parse_graph, "edge: -1 2\nkind: graph\nv: 4\n", "line 1: edge (-1,2) out of range for n=4"),
    (parse_family_orbit, "kind: forbit\nfamilies: 1\nmodulus: 7\nk: 3\nbase: a0 a1 a3\n"
     "base: a0 a1 a7\nbase: a0 a2 a9\n", "line 6: a point label has a residue outside 0..6"),
    (parse_orbit, "kind: orbit\nmodulus: 7\nstep: 1\nk: 3\nbase: 0 1 3\nbase: 0 1 9\n",
     "line 6: bad base block (0, 1, 9)"),
    (parse_orbit, "kind: orbit\nmodulus: 7\nk: 3\nbase: 0 1 3\n# comment\nbase: 0 0 1\n"
     "step: 1\n", "line 6: bad base block (0, 0, 1)"),
    (parse_orbit, "kind: orbit\nmodulus: 7\nk: 3\nbase: 0 1 3\nstep: 3\n",
     "line 5: step 3 must be positive and divide modulus 7"),
    (parse_family_orbit, "kind: forbit\nfamilies: 1\nmodulus: 7\nk: 3\nbase: a0 a1 a3\n"
     "base:\n", "line 6: bad base block ()"),
    (parse_orbit, "kind: orbit\nmodulus: 7\nstep: 1\nk: 1\nbase: 0\n",
     "line 4: k must be at least 2, got 1"),
    (parse_orbit, "kind: orbit\nmodulus: 0\nstep: 1\nk: 3\n",
     "line 2: modulus must be positive, got 0"),
    (parse_orbit, "kind: orbit\nmodulus: -7\nstep: 1\nk: 3\nbase: 0 1 3\n",
     "line 2: modulus must be positive, got -7"),
    (parse_family_orbit, "kind: forbit\nfamilies: 0\nmodulus: 7\nk: 3\nbase: a0 a1 a3\n",
     "line 2: families must be positive, got 0"),
    (parse_family_orbit, "kind: forbit\nfamilies: 1\nmodulus: 0\nk: 3\nbase: a0 a1 a3\n",
     "line 3: modulus must be positive, got 0"),
], ids=["graph-range", "graph-loop", "graph-first-record", "forbit-residue", "orbit-base",
        "orbit-repeated-point", "orbit-step", "forbit-empty-base", "orbit-k", "orbit-modulus-0",
        "orbit-modulus-negative", "forbit-families", "forbit-modulus-0"])
def test_rejected_record_is_named(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("parse,text,error,message", [
    (parse_design, "v: 6\nk: 3\nline: 0 1 2\nline: 3 4 5\nline: 2 1 0\n",
     ParseError, "line 5: duplicate line (0, 1, 2)"),
    (parse_graph, "kind: graph\nv: 4\nedge: 0 1\nedge: 2 9\n",
     ParseError, "line 4: edge (2,9) out of range for n=4"),
    (parse_orbit, "kind: orbit\nmodulus: 7\nstep: 1\nk: 3\nbase: 0 1 3\nbase: 0 1 9\n",
     ParseError, "line 6: bad base block (0, 1, 9)"),
    (parse_family_orbit, "kind: forbit\nfamilies: 1\nmodulus: 5\nk: 3\nbase: a0 a1 a5\n",
     ParseError, "line 5: a point label has a residue outside 0..4"),
    (parse_sts, "kind: sts\nv: 7\ntriple: 0 1 2\ntriple: 0 1 3\n",
     ConstructionError, "STS: pair (0,1) covered twice"),
    (parse_pbd, "kind: pbd\nv: 11\ndistinguished: 0 1 2 3 4\ntriple: 0 1 5\n",
     ConstructionError, "PBD: pair (0,1) covered twice"),
    (parse_gdd, "kind: gdd\nv: 4\nk: 2\ngroup: 0 1\ngroup: 2 3\nblock: 0 2\nblock: 0 3\n"
     "block: 1 2\n", ConstructionError, "GDD: pair (1,3) uncovered"),
], ids=["design", "graph", "orbit", "forbit", "sts", "pbd", "gdd"])
def test_every_reader_rejects_with_its_error(parse, text, error, message):
    # A rejected record is a ParseError naming its line; an ingredient that
    # fails its own check keeps its ConstructionError, which names no record.
    with pytest.raises(DesignError) as info:
        parse(text)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("record,message", [
    ("olp: 0 1 2", "line 8: bad olp value '0 1 2': need two point sets split by '|'"),
    ("olp: 0 1 | 2 | 3", "line 8: bad olp value '0 1 | 2 | 3': need two point sets split by '|'"),
    ("defedge: 1 2 3", "line 8: bad defedge value '1 2 3': need exactly two points"),
    ("defedge: 1", "line 8: bad defedge value '1': need exactly two points"),
], ids=["olp-one-side", "olp-three-sides", "defedge-three", "defedge-one"])
def test_manifest_value_says_what_the_field_needs(record, message):
    text = f"entry: e\npath: e.design\nsource: s\nv: 6\nb: 2\nk: 3\nr: 1\n{record}\n"
    with pytest.raises(ParseError) as info:
        catalog._parse_manifest(text)
    assert str(info.value) == f"entry e: {message}"


# ---------------------------------------------------------------------------
# serialize -> parse round trips

@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    edge = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(st.lists(edge.filter(lambda e: e[0] != e[1]), max_size=30)) if n > 1 else []
    return Graph.from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_graph_file_round_trips(g):
    assert parse_graph(serialize_graph(g)) == g


@st.composite
def orbit_specs(draw):
    m = draw(st.integers(2, 30))
    k = draw(st.integers(2, min(m, 5)))
    base = st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True).map(tuple)
    return OrbitSpec(modulus=m, step=draw(st.sampled_from([s for s in range(1, m + 1)
                                                          if m % s == 0])),
                     k=k, bases=tuple(draw(st.lists(base, max_size=4))),
                     r=draw(st.none() | st.integers(1, 40)),
                     expected_lines=draw(st.none() | st.integers(0, 100)))


@settings(max_examples=200, deadline=None)
@given(orbit_specs())
def test_orbit_file_round_trips(spec):
    assert parse_orbit(serialize_orbit(spec)) == spec


@st.composite
def gdds(draw):
    """td3(g) with its points relabelled and its groups reordered."""
    gdd = td3(draw(st.integers(2, 6)))
    perm = draw(st.permutations(range(gdd.v)))
    groups = draw(st.permutations([tuple(sorted(perm[p] for p in g)) for g in gdd.groups]))
    blocks = sorted(tuple(sorted(perm[p] for p in b)) for b in gdd.blocks)
    return Gdd(v=gdd.v, k=gdd.k, groups=tuple(groups), blocks=tuple(blocks))


@settings(max_examples=100, deadline=None)
@given(gdds())
def test_gdd_file_round_trips(gdd):
    assert parse_gdd(serialize_gdd(gdd)) == gdd


# ---------------------------------------------------------------------------
# Parsers the CLI fuzz does not reach: any text is parsed or is a DesignError

MANIFEST_KEYS = ("entry", "path", "source", "v", "b", "k", "r", "olp_count", "girth",
                 "connected", "olp", "defedge")
FORBIT_KEYS = ("kind", "families", "modulus", "k", "r", "lines", "base")
labels = st.lists(st.tuples(st.sampled_from("abz"), st.integers(-1, 12)), max_size=5).map(
    lambda ls: " ".join(f"{c}{j}" for c, j in ls))
numbers = st.lists(st.integers(-2, 40), max_size=6).map(lambda ps: " ".join(map(str, ps)))
values = st.one_of(numbers, labels, st.text(max_size=12),
                   st.sampled_from(("forbit", "yes", "no", "0 1 2 | 3 4 5", "0 1|2",
                                    "x.design")))


def fuzzed_files(keys, header, tail_keys):
    """Random bytes, random records of the format's keys, and records of its
    `tail_keys` after a sound header, each possibly followed by random bytes."""
    def recs(keys):
        return st.lists(st.tuples(st.sampled_from(keys), values), max_size=20).map(
            lambda rs: "".join(f"{k}: {v}\n" for k, v in rs))
    text = st.one_of(recs(keys), recs(tail_keys).map(header.__add__))
    return st.one_of(
        st.binary(max_size=300).map(lambda b: b.decode("utf-8", "replace")), text,
        st.tuples(text, st.binary(max_size=16)).map(lambda t: t[0] + t[1].decode("latin-1")))


FUZZED_PARSERS = {
    "manifest": (catalog._parse_manifest, fuzzed_files(
        MANIFEST_KEYS, "entry: e\npath: e.design\nsource: s\nv: 6\nb: 2\nk: 3\nr: 1\n",
        ("entry", "olp_count", "girth", "connected", "olp", "defedge"))),
    "forbit": (parse_family_orbit, fuzzed_files(
        FORBIT_KEYS, "kind: forbit\nfamilies: 2\nmodulus: 7\nk: 3\n", ("base",))),
}


@pytest.mark.parametrize("name", sorted(FUZZED_PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_file_is_parsed_or_a_design_error(name, data):
    parse, files = FUZZED_PARSERS[name]
    try:
        parse(data.draw(files))
    except DesignError:
        pass
