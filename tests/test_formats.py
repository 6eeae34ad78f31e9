"""The shared `key: value` reader, exercised through every file format."""

import pytest

from pentforge import catalog
from pentforge.catalog import parse_family_orbit
from pentforge.construct import (ConstructionError, parse_gdd, parse_orbit,
                                 parse_pbd, parse_sts, serialize_gdd, td3)
from pentforge.core import ParseError, parse_design
from pentforge.defgraph import parse_graph


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
    with pytest.raises(ConstructionError, match="bad base block"):
        parse_family_orbit("kind: forbit\nfamilies: 1\nmodulus: 7\nk: 3\nbase: a0 a1 b0\n")


@pytest.mark.parametrize("records", ["block: 0 1 5", "group:"])
def test_gdd_bad_block_or_group(records):
    text = f"kind: gdd\nv: 3\nk: 3\ngroup: 0\ngroup: 1\ngroup: 2\n{records}\n"
    with pytest.raises(ConstructionError, match="bad block"):
        parse_gdd(text)
