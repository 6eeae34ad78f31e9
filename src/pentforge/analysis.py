"""Pentagonal-specific analysis: opposite lines, OLP counting, bounds and
the known existence spectrum for small block sizes."""

from __future__ import annotations

from typing import NamedTuple

from . import defgraph
from .core import (Design, DesignError, VerificationReport, divisibility_ok, parameters,
                   verify_pls)


class OppositeLineMap(NamedTuple):
    # For each point x: the set of points not collinear with x, and the index
    # of the design line equal to it (None if no such line exists).
    opposites: tuple[tuple[int, ...], ...]
    line_index: tuple[int | None, ...]


class OlpSet(NamedTuple):
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    classes: defgraph.ComponentClassification

    @property
    def q(self) -> int:
        return len(self.pairs)


class SpectrumFact(NamedTuple):
    k: int
    r: int
    status: str  # exists | exists-no-olp | exists-maximal | not-exist | open
    note: str


def opposite_line(d: Design, x: int) -> tuple[int, ...]:
    """Points not collinear with x (x itself counts as collinear with x),
    read from the design's incidence index.  DesignError for x outside
    0..v-1."""
    if not 0 <= x < d.v:
        raise DesignError(f"point {x} outside 0..{d.v - 1}")
    return d.incidence.opposites[x]


def opposite_line_map(d: Design) -> OppositeLineMap:
    incidence = d.incidence
    return OppositeLineMap(opposites=incidence.opposites,
                           line_index=incidence.opposite_index)


def verify_pentagonal(d: Design) -> VerificationReport:
    """Full pentagonal check: uniform regular PLS plus the point and line
    counts (v, b) that r forces and the opposite-line axiom.  A design
    passes only with r >= 1."""
    pls = verify_pls(d)
    violations = list(pls.violations)
    if pls.r:  # r = 0 (points but no lines) forces no counts
        expect = parameters(d.k, pls.r)
        if (d.v, d.b) != expect:
            violations.append(("count-mismatch", (d.v, d.b, *expect)))
    if pls.ok:
        incidence = d.incidence
        violations += [("opposite-not-a-line", (x, opp))
                       for x, opp in enumerate(incidence.opposites)
                       if incidence.opposite_index[x] is None]
    return VerificationReport(ok=bool(pls.r) and not violations, r=pls.r,
                              violations=tuple(violations))


def count_olps(d: Design) -> OlpSet:
    """All mutual opposite line pairs, found two ways (definition and K_{k,k}
    components of the deficiency graph) which must agree.  The result keeps
    the deficiency graph's classification as `classes`.

    Each side of an OLP is the opposite set of every point on the other
    side, so only the opposite sets that are lines are tried: O(v*k), not
    O(b*k)."""
    incidence = d.incidence
    opposites = incidence.opposites
    pairs = set()
    for line in {opp for opp, i in zip(opposites, incidence.opposite_index) if i is not None}:
        opps = {opposites[x] for x in line}
        if len(opps) != 1:
            continue
        m = opps.pop()
        if incidence.opposite_index[line[0]] is None:
            continue
        if all(opposites[y] == line for y in m):
            pairs.add(tuple(sorted((line, m))))
    # Cross-check against the structural signature.
    cls = defgraph.classify(defgraph.build_deficiency(d), d.k)
    if cls.k_kk_count != len(pairs):
        raise AssertionError(
            f"OLP count mismatch: definition gives {len(pairs)}, "
            f"deficiency graph has {cls.k_kk_count} K_kk components")
    return OlpSet(pairs=tuple(sorted(pairs)), classes=cls)


def max_olps_bound(r: int) -> int:
    """Upper bound on opposite line pairs in a PENT(3,r)."""
    if r % 3 == 1:
        return (r + 2) // 3
    if r % 3 == 0:
        return (r - 3) // 3
    raise ValueError(f"PENT(3,r) requires r = 0 or 1 (mod 3), got r={r}")


def two_olp_counts(r: int) -> dict[str, int]:
    """Line-type census forced by assuming exactly two OLPs in a PENT(3,r)."""
    if r < 7 or r % 3 not in (0, 1):
        raise ValueError(f"need r >= 7 with r = 0 or 1 (mod 3), got r={r}")
    return {
        "abc_lines": 36,
        "acc_lines": 6 * (r - 7),
        "bcc_lines": 6 * (r - 7),
        "ccc_lines": (2 * r * r - 32 * r + 132) // 3,
        "c_points": 2 * (r - 4),
    }


def two_olp_excluded(r: int) -> bool:
    """True iff a PENT(3,r) with exactly two OLPs is impossible: each type-C
    point needs its own CCC opposite line, so CCC lines < C points excludes."""
    counts = two_olp_counts(r)
    excluded = counts["ccc_lines"] < counts["c_points"]
    if excluded != ((2 * r - 19) ** 2 < 49):
        raise RuntimeError(f"census and closed form disagree at r={r}")
    return excluded


# Encoded existence spectrum.  Each row is data with a provenance note; no
# logic re-derives these results.
_PENT3_NOT_EXIST = {4, 6}
_PENT4_NOT_EXIST = {4, 5}
_PENT4_OPEN = {8, 12, 16, 28, 32, 36, 44, 48, 56, 64, 72}


def known_spectrum(k: int, r: int) -> SpectrumFact:
    """Existence status of PENT(k,r) from the encoded theorem table."""
    if k < 2 or r < 1:
        raise ValueError(f"need k >= 2 and r >= 1, got ({k}, {r})")
    if not divisibility_ok(k, r):
        return SpectrumFact(k, r, "not-exist",
                            "k must divide r(r-1) (counting condition)")
    if r == 1:
        return SpectrumFact(k, r, "exists", "degenerate: two disjoint k-lines")
    if r < k:
        return SpectrumFact(k, r, "not-exist", "requires r >= k when r > 1")
    if k == 2:
        return SpectrumFact(k, r, "exists",
                            "complete graph minus spanning cycles, parts >= 4")
    if k == 3:
        if r in _PENT3_NOT_EXIST:
            return SpectrumFact(k, r, "not-exist",
                                "no PENT(3,4); no PENT(3,6) (computer search)")
        if r == 9:
            # A maximal PENT(3,9) would need two OLPs, which is impossible;
            # systems with zero or one OLP both exist.
            return SpectrumFact(k, r, "exists",
                                "exists with 0 or 1 OLPs; 2 OLPs impossible")
        if r == 7:
            return SpectrumFact(k, r, "exists-maximal",
                                "exists only with 3 OLPs (no-OLP case excluded "
                                "by computer search)")
        return SpectrumFact(k, r, "exists",
                            "maximal spectrum: all r except {4,6,9}; no-OLP "
                            "spectrum: all r except {1,4,6,7}")
    if k == 4:
        if r in _PENT4_NOT_EXIST:
            return SpectrumFact(k, r, "not-exist",
                                "no PENT(4,4) (Moore graph) and no PENT(4,5)")
        if r in _PENT4_OPEN:
            return SpectrumFact(k, r, "open", "possible exception, unresolved")
        return SpectrumFact(k, r, "exists",
                            "GDD compositions plus explicit base systems")
    # Partial facts for larger k: only the Moore-graph-bound diagonal cases
    # are decided.
    if r == k:
        if k == 7:
            return SpectrumFact(k, r, "exists", "Hoffman-Singleton Moore graph")
        if k == 57:
            return SpectrumFact(k, r, "open", "existence of a Moore graph of "
                                              "degree 57 is unresolved")
        return SpectrumFact(k, r, "not-exist",
                            "PENT(k,k) needs a Moore graph: k in {2,3,7,57?}")
    if r == k + 1:
        if k == 6:
            return SpectrumFact(k, r, "exists", "PENT(6,7) exists")
        if k == 56:
            return SpectrumFact(k, r, "open", "tied to the degree-57 Moore graph")
        return SpectrumFact(k, r, "not-exist",
                            "PENT(k,k+1) exists only for k in {2,6,56?}")
    return SpectrumFact(k, r, "open", "no encoded result for this (k,r)")
