"""Bundled catalog of explicit pentagonal geometries with expected statistics.

Every entry carries the stats it is supposed to have (point/line counts,
opposite line pairs, deficiency girth and connectivity, and for the labeled
cyclic systems the exact deficiency edge set); catalog_verify_all recomputes
everything from the payload and reports per-entry pass/fail.  The fixture
files were transcribed once; the verifier, not the transcriber, is trusted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import defgraph
from .analysis import count_olps, verify_pentagonal
from .construct import (OrbitSpec, Pbd, Sts, expand_orbits, parse_orbit,
                        parse_pbd, parse_sts)
from .core import (Design, DesignError, ParseError, Schema, kind_is,
                   parse_design, point_set, read_records, read_text, records)


class UnknownEntryError(KeyError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    path: str
    source: str
    v: int
    b: int
    k: int
    r: int
    olp_count: int | None = None
    girth: int | None = None
    connected: bool | None = None
    olp: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    deficiency_edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)


def catalog_dir() -> Path:
    override = os.environ.get("PENTFORGE_CATALOG")
    if override:
        return Path(override)
    return Path(str(resources.files("pentforge").joinpath("data")))


def _olp(value: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    left, right = value.split("|")
    return point_set(left), point_set(right)


def _pair(value: str) -> tuple[int, int]:
    u, w = point_set(value)
    return u, w


# One `entry:` section of the manifest.
MANIFEST = Schema("manifest",
                  header={"entry": (str, True), "path": (str, True),
                          "source": (str, True), "v": (int, True), "b": (int, True),
                          "k": (int, True), "r": (int, True),
                          "olp_count": (int, False), "girth": (int, False),
                          "connected": (lambda value: kind_is("yes", "no")(value) == "yes",
                                        False),
                          "olp": (_olp, False)},
                  repeated={"defedge": _pair})


def _parse_manifest(text: str) -> list[CatalogEntry]:
    sections: list[list[tuple[int, str, str]]] = []
    for record in records(text):
        if record[1] == "entry":
            sections.append([])
        elif not sections:
            raise ParseError(f"line {record[0]}: manifest must start with an 'entry:' record")
        sections[-1].append(record)
    entries = []
    for section in sections:
        try:
            f = read_records(section, MANIFEST)
        except ParseError as exc:
            raise ParseError(f"entry {section[0][2]}: {exc}") from None
        entries.append(CatalogEntry(id=f.pop("entry"),
                                    deficiency_edges=tuple(sorted(f.pop("defedge"))), **f))
    return entries


def catalog_entries() -> list[CatalogEntry]:
    text = read_text(catalog_dir() / "manifest.txt")
    return sorted(_parse_manifest(text), key=lambda e: e.id)


def catalog_entry(entry_id: str) -> CatalogEntry:
    for entry in catalog_entries():
        if entry.id == entry_id:
            return entry
    raise UnknownEntryError(entry_id)


# ---------------------------------------------------------------------------
# Labeled (family) orbit systems: points (family, j) on Z_m per family,
# encoded as family*m + j, developed by j -> j+1 simultaneously in every
# family.  Used by the hand-built systems given with lettered point names.

# Alias, not a second developer: bench/tracing.py traces calls by this name.
expand_family_orbits = expand_orbits


def _labels(value: str) -> tuple[tuple[int, int], ...]:
    """Converter for point labels `a0 b7 ...`: (family, residue) pairs."""
    pairs = tuple((ord(label[0]) - ord("a"), int(label[1:])) for label in value.split())
    if any(family < 0 or j < 0 for family, j in pairs):
        raise ValueError("labels are a family letter and a residue")
    return pairs


FORBIT = Schema("forbit",
                header={"kind": (kind_is("forbit"), False), "families": (int, True),
                        "modulus": (int, True), "k": (int, True), "r": (int, False),
                        "lines": (int, False)},
                repeated={"base": _labels})


def parse_family_orbit(text: str) -> OrbitSpec:
    f = read_records(text, FORBIT)
    m = f["modulus"]
    if any(j >= m for base in f["base"] for _, j in base):
        raise ParseError(f"a point label has a residue outside 0..{m - 1}")
    bases = tuple(tuple(family * m + j for family, j in base) for base in f["base"])
    return OrbitSpec(modulus=m, step=1, k=f["k"], bases=bases, r=f["r"],
                     expected_lines=f["lines"], families=f["families"])


# ---------------------------------------------------------------------------
# Loading and verification

def _load_payload(path: Path) -> Design:
    """Parse a catalog payload by its suffix: .orbit, .forbit or .design."""
    text = read_text(path)
    if path.suffix == ".orbit":
        return expand_orbits(parse_orbit(text))
    if path.suffix == ".forbit":
        return expand_orbits(parse_family_orbit(text))
    return parse_design(text)


def catalog_load(entry_id: str) -> Design:
    entry = catalog_entry(entry_id)
    return _load_payload(catalog_dir() / entry.path)


def verify_entry(entry: CatalogEntry) -> tuple[bool, list[str]]:
    """Recompute every expected statistic for one entry."""
    problems: list[str] = []
    try:
        design = _load_payload(catalog_dir() / entry.path)
    except (DesignError, OSError) as exc:
        return False, [f"load failed: {exc}"]
    if design.v != entry.v:
        problems.append(f"v={design.v}, expected {entry.v}")
    if design.b != entry.b:
        problems.append(f"b={design.b}, expected {entry.b}")
    if design.k != entry.k:
        problems.append(f"k={design.k}, expected {entry.k}")
    report = verify_pentagonal(design)
    if not report.ok:
        problems.append(f"not pentagonal: {report.violations[:2]}")
        return False, problems
    if report.r != entry.r:
        problems.append(f"r={report.r}, expected {entry.r}")
    olps = count_olps(design)
    cls = olps.classes
    if entry.olp_count is not None and olps.q != entry.olp_count:
        problems.append(f"olp_count={olps.q}, expected {entry.olp_count}")
    if entry.olp is not None and entry.olp not in olps.pairs:
        problems.append(f"expected OLP {entry.olp} not found")
    if entry.girth is not None and cls.girth != entry.girth:
        problems.append(f"deficiency girth={cls.girth}, expected {entry.girth}")
    if entry.connected is not None and cls.connected != entry.connected:
        problems.append(f"connected={cls.connected}, expected {entry.connected}")
    if entry.deficiency_edges:
        if defgraph.build_deficiency(design).edges != entry.deficiency_edges:
            problems.append("deficiency edge set differs from the stated edges")
    return not problems, problems


def catalog_verify_all() -> list[tuple[str, bool, list[str]]]:
    """Verify the whole corpus; deterministic, sorted by entry id."""
    return [(entry.id, *verify_entry(entry)) for entry in catalog_entries()]


# ---------------------------------------------------------------------------
# Support ingredients (Steiner triple systems and PBDs for the constructors)

def support_sts(name: str) -> Sts:
    return parse_sts(read_text(catalog_dir() / "support" / f"{name}.sts"))


def support_pbd(name: str) -> Pbd:
    return parse_pbd(read_text(catalog_dir() / "support" / f"{name}.pbd"))
