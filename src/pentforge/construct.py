"""Generative machinery: cyclic orbit expansion, Bose-style constructions
from Steiner triple systems and pairwise balanced designs, and composition
of pentagonal geometries over group divisible designs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from typing import Sequence

from .core import Design, DesignError, Schema, kind_is, point_set, points, read_file
from .analysis import verify_pentagonal


class ConstructionError(DesignError):
    """A construction's preconditions or declared expectations failed."""


# ---------------------------------------------------------------------------
# Cyclic orbit development

@dataclass(frozen=True)
class OrbitSpec:
    """Base blocks on `families` copies of Z_modulus.  Point f*modulus + j is
    residue j of family f; a plain cyclic orbit file has one family."""
    modulus: int
    step: int
    k: int
    bases: tuple[tuple[int, ...], ...]
    r: int | None = None
    expected_lines: int | None = None
    families: int = 1

    def __post_init__(self):
        for name, least in (("modulus", 1), ("families", 1), ("k", 2)):
            value = getattr(self, name)
            if value < least:
                bound = "positive" if least == 1 else f"at least {least}"
                raise ConstructionError(f"{name} must be {bound}, got {value}", where=name)
        if self.step <= 0 or self.modulus % self.step != 0:
            raise ConstructionError(
                f"step {self.step} must be positive and divide modulus {self.modulus}",
                where="step")
        v = self.families * self.modulus
        for i, base in enumerate(self.bases):
            if len(set(base)) != self.k or not all(0 <= p < v for p in base):
                raise ConstructionError(f"bad base block {base}", where=i)


def expand_orbits(spec: OrbitSpec) -> Design:
    """Develop each base block under j -> j + step (mod modulus), applied to
    the residue of every point at once, keeping each point's family.

    Every orbit must have full length modulus/step and all generated lines
    must be distinct; a repeat signals a transcription error in the base blocks.
    The line count that `lines:` declares is checked before any orbit is
    developed.
    """
    m = spec.modulus
    count = len(spec.bases) * (m // spec.step)
    if spec.expected_lines is not None and count != spec.expected_lines:
        raise ConstructionError(f"expected {spec.expected_lines} lines, generated {count}")
    lines: set[tuple[int, ...]] = set()
    for base in spec.bases:
        split = [(p - p % m, p % m) for p in base]
        for s in range(0, m, spec.step):
            line = tuple(sorted(f + (j + s) % m for f, j in split))
            if line in lines:
                raise ConstructionError(
                    f"duplicate generated line {line} (base {base}, shift {s})")
            lines.add(line)
    return Design.make(v=spec.families * m, k=spec.k, lines=lines, r_claimed=spec.r)


ORBIT = Schema("orbit",
               header={"kind": (kind_is("orbit"), False), "modulus": (int, True),
                       "step": (int, True), "k": (int, True), "r": (int, False),
                       "lines": (int, False)},
               repeated={"base": points})


def parse_orbit(text: str) -> OrbitSpec:
    """Parse the orbit file format; a spec that OrbitSpec rejects is a
    ParseError naming the record at fault (the step or a base block)."""
    return read_file(text, ORBIT, lambda f: OrbitSpec(
        modulus=f["modulus"], step=f["step"], k=f["k"], bases=tuple(f["base"]), r=f["r"],
        expected_lines=f["lines"]), key="base")


def serialize_orbit(spec: OrbitSpec) -> str:
    if spec.families != 1:
        raise ConstructionError("the orbit file format has a single family")
    out = ["kind: orbit", f"modulus: {spec.modulus}", f"step: {spec.step}",
           f"k: {spec.k}"]
    if spec.r is not None:
        out.append(f"r: {spec.r}")
    if spec.expected_lines is not None:
        out.append(f"lines: {spec.expected_lines}")
    out += ["base: " + " ".join(str(p) for p in base) for base in spec.bases]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Quasigroups and Steiner triple systems

class _CheckedWhenBuilt:
    """Runs the dataclass's `check` when an instance is built, so an invalid
    one cannot exist and no construction needs to check its input again."""

    def __post_init__(self):
        self.check()


@dataclass(frozen=True)
class Quasigroup(_CheckedWhenBuilt):
    order: int
    table: tuple[tuple[int, ...], ...]

    def check(self) -> None:
        """Latin square, commutative and idempotent; raises on violation."""
        n = self.order
        full = set(range(n))
        for x in range(n):
            if set(self.table[x]) != full:
                raise ConstructionError(f"row {x} is not a permutation")
            if set(row[x] for row in self.table) != full:
                raise ConstructionError(f"column {x} is not a permutation")
            if self.table[x][x] != x:
                raise ConstructionError(f"not idempotent at {x}")
            for y in range(x + 1, n):
                if self.table[x][y] != self.table[y][x]:
                    raise ConstructionError(f"not commutative at ({x},{y})")


def cyclic_idempotent_quasigroup(n: int) -> Quasigroup:
    """x*y = (x+y)/2 on Z_n; commutative idempotent, needs n odd."""
    if n % 2 == 0:
        raise ConstructionError(f"order must be odd, got {n}")
    half = (n + 1) // 2
    table = tuple(tuple((x + y) * half % n for y in range(n)) for x in range(n))
    return Quasigroup(order=n, table=table)


@dataclass(frozen=True)
class Sts(_CheckedWhenBuilt):
    v: int
    triples: tuple[tuple[int, ...], ...]

    def check(self) -> None:
        if self.v % 6 not in (1, 3):
            raise ConstructionError(f"STS order must be 1 or 3 (mod 6), got {self.v}")
        _check_cover("STS", self.v, 3, self.triples)


@dataclass(frozen=True)
class Pbd(_CheckedWhenBuilt):
    """Pairwise balanced design with triples plus one distinguished 5-block."""
    v: int
    distinguished: tuple[int, ...]
    triples: tuple[tuple[int, ...], ...]

    def check(self) -> None:
        if len(set(self.distinguished)) != 5:
            raise ConstructionError("distinguished block must have 5 distinct points")
        if self.v % 6 != 5:
            raise ConstructionError(f"PBD order must be 5 (mod 6), got {self.v}")
        _check_cover("PBD", self.v, 3, self.triples, (tuple(sorted(self.distinguished)),))


def _check_cover(what: str, v: int, k: int, blocks: Sequence[tuple[int, ...]],
                 groups: Sequence[tuple[int, ...]] = (), size: str = "a triple") -> None:
    """Raise unless the k-point blocks and the groups cover each pair of 0..v-1
    once.  If they hold v(v-1)/2 pairs in all, the cover is exact iff the blocks'
    incidence index has no pair covered twice and each point's opposite set is
    the rest of its group.  The error names the least pair covered twice (by two
    blocks, or a block inside a group), else the least uncovered, found in time
    and memory bounded by the pairs given, not by v."""
    for block in blocks:
        if len(block) != k:
            raise ConstructionError(f"{what}: block {block} is not {size}")
    for block in (*groups, *blocks):
        if not block or len(set(block)) != len(block) or min(block) < 0 or max(block) >= v:
            raise ConstructionError(f"{what}: bad block {block}")
    try:
        d = Design.make(v, k, blocks, kind="raw")
    except DesignError as exc:
        raise ConstructionError(f"{what}: {exc}") from None
    group_of = {x: g for g in map(frozenset, groups) for x in g}
    held = k * (k - 1) * len(blocks) + sum(len(g) * (len(g) - 1) for g in groups)
    if held == v * (v - 1) and not d.incidence.multi_covered and all(  # v bounded by held
            set(opp) == group_of.get(x, {x}) - {x} for x, opp in enumerate(d.incidence.opposites)):
        return
    pairs = Counter((x, y) for line in d.lines for i, x in enumerate(line) for y in line[i + 1:])
    doubled = [(x, y) for (x, y), n in pairs.items() if n > 1 or y in group_of.get(x, ())]
    if doubled:
        raise ConstructionError("{}: pair ({},{}) covered twice".format(what, *min(doubled)))
    above = Counter(x for x, _ in pairs)  # covered pairs (x, y) with y > x, by x
    above.update({x: len(g) - 1 - i for g in map(sorted, groups) for i, x in enumerate(g)})
    # Each full row below x holds a pair given, so this walk ends within the input.
    x = next(x for x in count() if above[x] < v - 1 - x)
    near = {y for w, y in pairs if w == x} | group_of.get(x, set())
    y = next(y for y in count(x + 1) if y not in near)
    raise ConstructionError(f"{what}: pair ({x},{y}) uncovered")


def _bose_triples(q: Quasigroup, a: int | None = None) -> list[tuple[int, ...]]:
    """Triples of the Bose STS(3n) on Q x Z_3, each in rising order, point
    (x,i) encoded as i*n + x.  The third point of {(x,i), (y,i), (x*y,i+1)},
    x < y, lies above the pair in layers 0 and 1; in layer 2 it lies in
    layer 0, below the pair.  With a drop point a, the triples through
    (a,0), (a,1) or (a,2) are left out and (x,i) becomes i*(n-1) + x - (x > a)."""
    n = q.order
    width = n if a is None else n - 1
    shift = [x if a is None or x < a else x - 1 for x in range(n)]
    at = [[i * width + s for s in shift] for i in range(3)]  # at[i][x]: label of (x,i)
    triples = [(at[0][x], at[1][x], at[2][x]) for x in range(n) if x != a]
    for i in range(3):
        low, high = at[i], at[(i + 1) % 3]
        for x, row in enumerate(q.table):
            if x == a:
                continue
            lx, rest = low[x], enumerate(row[x + 1:], x + 1)
            if i < 2:
                triples += [(lx, low[y], high[z]) for y, z in rest if y != a and z != a]
            else:
                triples += [(high[z], lx, low[y]) for y, z in rest if y != a and z != a]
    return triples


def bose_sts(q: Quasigroup) -> Sts:
    """Bose construction: STS(3n) on Q x Z_3 from a commutative idempotent
    quasigroup of odd order n.  Point (x,i) is encoded as i*n + x."""
    return Sts(v=3 * q.order, triples=tuple(sorted(_bose_triples(q))))


def sts_bose(n: int) -> Sts:
    """Direct STS(n) for n = 3 (mod 6) via the cyclic midpoint quasigroup."""
    if n % 6 != 3:
        raise ConstructionError(f"sts_bose needs n = 3 (mod 6), got {n}")
    return bose_sts(cyclic_idempotent_quasigroup(n // 3))


def _triple_table(v: int, triples: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """x*x = x; x*y = the third point of the triple through x and y (-1 if none)."""
    table = [[x if x == y else -1 for y in range(v)] for x in range(v)]
    for x, y, z in triples:
        table[x][y] = table[y][x] = z
        table[x][z] = table[z][x] = y
        table[y][z] = table[z][y] = x
    return table


def steiner_quasigroup(s: Sts) -> Quasigroup:
    """x*x = x; x*y = the third point of the triple through x and y."""
    return Quasigroup(order=s.v, table=tuple(map(tuple, _triple_table(s.v, s.triples))))


def _pent3_from_quasigroup(q: Quasigroup, a: int) -> Design:
    """Bose STS(3n) minus the three points (a,0), (a,1), (a,2) and every
    triple meeting them; remaining points are relabeled densely.  The STS
    itself is not built: its triples are developed without them."""
    return Design.make(v=3 * q.order - 3, k=3, lines=_bose_triples(q, a))


def bose_pent3(s: Sts, a: int) -> Design:
    """Pentagonal geometry from an STS: PENT(3,(3v-1)/2 - 3) on 3v-3 points."""
    if not 0 <= a < s.v:
        raise ConstructionError(f"drop point {a} not in 0..{s.v - 1}")
    return _pent3_from_quasigroup(steiner_quasigroup(s), a)


def pbd_pent3(p: Pbd, a: int) -> Design:
    """Same pipeline from a PBD(v,{3,5*}): the quasigroup uses triples for
    ordinary pairs and the midpoint rule inside the distinguished 5-block."""
    if a in p.distinguished:
        raise ConstructionError(
            f"drop point {a} must lie outside the distinguished block")
    if not 0 <= a < p.v:
        raise ConstructionError(f"drop point {a} not in 0..{p.v - 1}")
    dist = tuple(sorted(p.distinguished))
    pos = {pt: i for i, pt in enumerate(dist)}
    table = _triple_table(p.v, p.triples)
    for x in dist:
        for y in dist:
            if x != y:
                table[x][y] = dist[(pos[x] + pos[y]) * 3 % 5]
    return _pent3_from_quasigroup(Quasigroup(order=p.v, table=tuple(map(tuple, table))), a)


# ---------------------------------------------------------------------------
# Group divisible designs and composition

@dataclass(frozen=True)
class Gdd(_CheckedWhenBuilt):
    v: int
    k: int
    groups: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]

    def check(self) -> None:
        seen = sorted(p for g in self.groups for p in g)
        if len(seen) != self.v or seen != list(range(self.v)):
            raise ConstructionError("groups do not partition the point set")
        _check_cover("GDD", self.v, self.k, self.blocks, self.groups, f"a {self.k}-set")


def td3(g: int) -> Gdd:
    """Transversal design TD(3,g) from the addition table of Z_g."""
    if g < 2:
        raise ConstructionError(f"group size must be >= 2, got {g}")
    groups = tuple(tuple(range(i * g, (i + 1) * g)) for i in range(3))
    blocks = tuple((i, g + j, 2 * g + (i + j) % g)
                   for i in range(g) for j in range(g))
    return Gdd(v=3 * g, k=3, groups=groups, blocks=blocks)


def degenerate_pent(k: int) -> Design:
    """PENT(k,1): two disjoint k-lines, mutually opposite."""
    if k < 2:
        raise ConstructionError(f"k must be >= 2, got {k}")
    return Design.make(v=2 * k, k=k, lines=[tuple(range(k)), tuple(range(k, 2 * k))],
                       r_claimed=1)


def gdd_compose(gdd: Gdd, parts: Sequence[tuple[int, Design]]) -> Design:
    """Overlay one pentagonal geometry per group and adjoin the GDD blocks.

    Part points are relabeled onto their group in ascending point order.
    The result is fully re-verified rather than trusted.
    """
    by_group = dict(parts)
    if sorted(by_group) != list(range(len(gdd.groups))):
        raise ConstructionError("need exactly one part design per group")
    lines = list(gdd.blocks)
    for gi, group in enumerate(gdd.groups):
        part = by_group[gi]
        if part.k != gdd.k:
            raise ConstructionError(
                f"part for group {gi} has k={part.k}, GDD has k={gdd.k}")
        if part.v != len(group):
            raise ConstructionError(
                f"group {gi} has {len(group)} points but part has v={part.v}")
        ordered = sorted(group)
        lines += [tuple(ordered[p] for p in line) for line in part.lines]
    result = Design.make(v=gdd.v, k=gdd.k, lines=lines)
    report = verify_pentagonal(result)
    if not report.ok:
        raise ConstructionError(
            f"composition is not pentagonal: {report.violations[:3]}")
    return result


# ---------------------------------------------------------------------------
# Ingredient file parsers

STS = Schema("sts", header={"kind": (kind_is("sts"), False), "v": (int, True)},
             repeated={"triple": point_set})
PBD = Schema("pbd", header={"kind": (kind_is("pbd"), False), "v": (int, True),
                            "distinguished": (point_set, True)},
             repeated={"triple": point_set})
GDD = Schema("gdd", header={"kind": (kind_is("gdd"), False), "v": (int, True),
                            "k": (int, True)},
             repeated={"group": point_set, "block": point_set})


def parse_sts(text: str) -> Sts:
    return read_file(text, STS, lambda f: Sts(v=f["v"], triples=tuple(sorted(f["triple"]))))


def parse_pbd(text: str) -> Pbd:
    return read_file(text, PBD, lambda f: Pbd(v=f["v"], distinguished=f["distinguished"],
                                              triples=tuple(sorted(f["triple"]))))


def parse_gdd(text: str) -> Gdd:
    return read_file(text, GDD, lambda f: Gdd(v=f["v"], k=f["k"], groups=tuple(f["group"]),
                                              blocks=tuple(sorted(f["block"]))))


def serialize_gdd(gdd: Gdd) -> str:
    out = ["kind: gdd", f"v: {gdd.v}", f"k: {gdd.k}"]
    out += ["group: " + " ".join(str(p) for p in g) for g in gdd.groups]
    out += ["block: " + " ".join(str(p) for p in b) for b in gdd.blocks]
    return "\n".join(out) + "\n"
