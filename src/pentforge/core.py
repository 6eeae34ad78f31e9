"""Core incidence types: designs, pair coverage and partial-linear-space checks.

A Design is a finite incidence structure on points 0..v-1 with lines of a
fixed size k.  Lines are kept in canonical form (sorted within each line,
lines sorted lexicographically) so that equality, diffing and serialization
are deterministic.  Each Design builds one Incidence index on first use and
keeps it; every analysis of the design reads from that index.
"""

from __future__ import annotations

import array
import errno
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice
from operator import eq, itemgetter, lt
from typing import Any, Callable, Iterable, Sequence

KINDS = ("pent", "pls", "raw")


class DesignError(ValueError):
    """A design violates a structural invariant."""


class ParseError(DesignError):
    """A file does not conform to its declared format."""


@dataclass(frozen=True)
class Design:
    v: int
    k: int
    lines: tuple[tuple[int, ...], ...]
    r_claimed: int | None = None
    kind: str = "pent"

    @classmethod
    def make(cls, v: int, k: int, lines: Iterable[Sequence[int]],
             r_claimed: int | None = None, kind: str = "pent") -> "Design":
        """Canonicalize and validate lines, then build an immutable Design.

        If every line is already a tuple of k increasing points in 0..v-1,
        the same tuple objects are kept; otherwise each line becomes its
        sorted tuple.  The checks run over all lines at once, and only when
        they fail line by line, so errors and messages are unchanged: the
        first line in input order without k distinct points in 0..v-1, else
        the first repeated line in sorted order.  `lines` is read once.
        """
        if kind not in KINDS:
            raise DesignError(f"unknown design kind {kind!r}")
        if v < 0 or k < 2:
            raise DesignError(f"bad parameters v={v}, k={k}")
        canon = list(lines)
        if not _canonical(canon, k, v):
            raws, canon = canon, []
            try:
                canon.extend(map(tuple, map(sorted, raws)))
            except TypeError:  # an unsortable line, unless an earlier one is bad
                _check_each(raws, canon, k, v)
                raise
            if not _canonical(canon, k, v):
                _check_each(raws, canon, k, v)
        canon.sort()
        repeated = next(compress(canon, map(eq, canon, islice(canon, 1, None))), None)
        if repeated is not None:
            raise DesignError(f"duplicate line {repeated}")
        return cls(v=v, k=k, lines=tuple(canon), r_claimed=r_claimed, kind=kind)

    @property
    def b(self) -> int:
        return len(self.lines)

    @cached_property
    def incidence(self) -> "Incidence":
        """The design's incidence index, built on first use and kept on the
        instance (`make` does not build it)."""
        return Incidence(self)

    def replication(self) -> list[int]:
        return [len(ls) for ls in self.incidence.through]


def _canonical(lines: list, k: int, v: int) -> bool:
    """True if every line is a tuple of k points rising strictly within
    0..v-1.  One C-level pass per check and per point column."""
    if not lines:
        return True
    try:
        if set(map(type, lines)) != {tuple} or set(map(len, lines)) != {k}:
            return False
        columns = [list(map(itemgetter(j), lines)) for j in range(k)]
        return (all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:]))
                and min(columns[0]) >= 0 and max(columns[-1]) < v)
    except TypeError:
        return False


def _check_each(raws: list, canon: list, k: int, v: int) -> None:
    """Check the sorted lines `canon` one by one against the lines `raws`
    they came from, raising for the first bad one."""
    for raw, line in zip(raws, canon):
        if len(line) != k or len(set(line)) != k:
            raise DesignError(f"line {tuple(raw)} does not have {k} distinct points")
        if line[0] < 0 or line[-1] >= v:
            raise DesignError(f"line {line} has a point outside 0..{v - 1}")


class Incidence:
    """Point-line index of one Design, built by `Design.incidence`.

    `through[x]` holds the numbers of the lines through x, ascending;
    `opposites[x]` the points not collinear with x, sorted; `opposite_index[x]`
    the number of the line equal to `opposites[x]`, or None; `multi_covered`
    the pairs (x, y), x < y, that more than one line covers, sorted;
    `deficiency` the deficiency graph once `defgraph.build_deficiency` made it.

    x is collinear with exactly the points on the r lines through it, so its
    opposite set costs O(r*k) plus one set difference over the points (in a
    PENT(k,r), v = rk - r + k + 1); a point met twice there shares two lines
    with x.  The line equal to an opposite set passes through its first point,
    so it is found in O(r).  No line or pair dictionary is kept: on PENT(3,199)
    a line dictionary alone (1.3 MB) would nearly double the index.
    """

    def __init__(self, d: Design):
        lines = d.lines
        through: list[list[int]] = [[] for _ in range(d.v)]
        for i, line in enumerate(lines):
            for p in line:
                through[p].append(i)
        self.through = tuple(map(tuple, through))
        everyone = set(range(d.v))
        opposites = []
        multi_covered = []
        for x, ls in enumerate(self.through):
            met = [p for i in ls for p in lines[i]]
            collinear = set(met)
            collinear.add(x)
            # Without a repeat, x is met once per line and every other point once.
            if len(collinear) < len(met) - len(ls) + 1:
                times = Counter(met)
                multi_covered += [(x, y) for y in sorted(times) if y > x and times[y] > 1]
            opposites.append(tuple(sorted(everyone - collinear)))
        self.opposites = tuple(opposites)
        self.opposite_index = tuple(
            next((i for i in self.through[opp[0]] if lines[i] == opp), None)
            if opp else None
            for opp in self.opposites)
        self.multi_covered = tuple(multi_covered)
        self.deficiency: Any = None


class PairCoverage:
    """Dense triangular array of per-pair line counts."""

    def __init__(self, v: int):
        self.v = v
        self._counts = array.array("H", bytes(2 * (v * (v - 1) // 2)))

    def _index(self, x: int, y: int) -> int:
        if x > y:
            x, y = y, x
        return x * (2 * self.v - x - 1) // 2 + (y - x - 1)

    def add(self, x: int, y: int) -> None:
        self._counts[self._index(x, y)] += 1

    @classmethod
    def of(cls, d: Design) -> "PairCoverage":
        cov = cls(d.v)
        for line in d.lines:
            for i in range(len(line)):
                for j in range(i + 1, len(line)):
                    cov.add(line[i], line[j])
        return cov


@dataclass(frozen=True)
class VerificationReport:
    is_pls: bool
    is_uniform: bool
    is_regular: bool
    replication: tuple[int, ...]
    violations: tuple[tuple[str, tuple], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.is_pls and self.is_uniform and self.is_regular and not self.violations


def verify_pls(d: Design) -> VerificationReport:
    """Check the partial-linear-space, uniformity and regularity conditions.

    Violations are report content, never exceptions; each carries a witness.
    A pair that several lines cover gives one `pair-covered-twice`, in (x, y)
    order.  Reads the design's incidence index, building it if need be.
    """
    violations: list[tuple[str, tuple]] = []
    is_uniform = True
    for line in d.lines:
        if len(line) != d.k:
            is_uniform = False
            violations.append(("nonuniform-line", line))
    incidence = d.incidence
    is_pls = not incidence.multi_covered
    violations += [("pair-covered-twice", pair) for pair in incidence.multi_covered]
    repl = tuple(d.replication())
    is_regular = len(set(repl)) <= 1
    if not is_regular:
        low = min(repl)
        for p, r in enumerate(repl):
            if r != low:
                violations.append(("irregular-point", (p, r)))
    if d.r_claimed is not None and repl and repl[0] != d.r_claimed:
        violations.append(("replication-mismatch", (d.r_claimed, repl[0])))
    return VerificationReport(is_pls=is_pls, is_uniform=is_uniform,
                              is_regular=is_regular, replication=repl,
                              violations=tuple(violations))


def parameters(k: int, r: int) -> tuple[int, int | None]:
    """Point and line counts forced by (k, r); line count None if non-integral."""
    if k < 2 or r < 1:
        raise ValueError(f"parameters require k >= 2 and r >= 1, got ({k}, {r})")
    v = r * k - r + k + 1
    b = v * r // k if (v * r) % k == 0 else None
    return v, b


def divisibility_ok(k: int, r: int) -> bool:
    """Necessary existence condition: k divides r(r-1)."""
    if k < 2 or r < 1:
        raise ValueError(f"divisibility_ok requires k >= 2 and r >= 1, got ({k}, {r})")
    return r * (r - 1) % k == 0


def read_text(path: str | os.PathLike) -> str:
    """The text of a UTF-8 file; other bytes are an OSError naming the file,
    as a file that cannot be opened is."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text ({exc.reason})",
                      os.fspath(path)) from None


def records(text: str) -> list[tuple[int, str, str]]:
    """Split a key/value file into (line number, key, value) records,
    dropping comments and blank lines."""
    recs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ":" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, value = stripped.split(":", 1)
        recs.append((lineno, key.strip(), value.strip()))
    return recs


Converter = Callable[[str], Any]


@dataclass(frozen=True)
class Schema:
    """One `key: value` file format.  Header fields (name -> (converter,
    required)) appear at most once; repeated fields (name -> converter) any
    number of times.  `kind` is a header field like any other."""
    name: str
    header: dict[str, tuple[Converter, bool]]
    repeated: dict[str, Converter]


def kind_is(*kinds: str) -> Converter:
    """Converter accepting only the given `kind:` values."""
    def convert(value: str) -> str:
        if value not in kinds:
            raise ValueError(f"expected {' or '.join(kinds)}")
        return value
    return convert


def points(value: str) -> tuple[int, ...]:
    """Converter for a space-separated list of integer points."""
    return tuple(map(int, value.split()))


def point_set(value: str) -> tuple[int, ...]:
    """Like `points`, sorted."""
    return tuple(sorted(map(int, value.split())))


def read_records(text: str | list[tuple[int, str, str]],
                 schema: Schema) -> dict[str, Any]:
    """Read a file of the given format, or a section of one already split
    into `records`, into converted fields.

    Each header field maps to its value, or None when absent; each repeated
    field maps to the list of its values in file order.  Unknown keys,
    duplicate header fields, missing required fields and values a converter
    cannot read are ParseErrors.
    """
    fields: dict[str, Any] = {key: [] for key in schema.repeated}
    lineno, key, value = 0, "", ""
    try:
        for lineno, key, value in records(text) if isinstance(text, str) else text:
            convert = schema.repeated.get(key)
            if convert is not None:
                fields[key].append(convert(value))
            elif key in fields:
                raise ParseError(f"line {lineno}: duplicate header field {key!r}")
            elif key in schema.header:
                fields[key] = schema.header[key][0](value)
            else:
                raise ParseError(
                    f"line {lineno}: unknown field {key!r} in {schema.name} file")
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad {key} value {value!r}: {exc}") from None
    for key, (_, required) in schema.header.items():
        if key not in fields:
            if required:
                raise ParseError(f"{schema.name} file missing required field {key!r}")
            fields[key] = None
    return fields


DESIGN = Schema("design",
                header={"kind": (kind_is(*KINDS), False), "v": (int, True),
                        "k": (int, True), "r": (int, False)},
                repeated={"line": points})


def parse_design(text: str) -> Design:
    """Parse the line-oriented design file format into a normalized Design.
    A design that `Design.make` rejects is a ParseError naming the record."""
    f = read_records(text, DESIGN)
    try:
        return Design.make(v=f["v"], k=f["k"], lines=f["line"], r_claimed=f["r"],
                           kind=f["kind"] or "pent")
    except DesignError as exc:
        raise ParseError(f"line {_rejected_record(text, f)}: {exc}") from None


def _rejected_record(text: str, f: dict[str, Any]) -> int:
    """The file line of the record `Design.make` rejected in the design file
    `text`, read into `f`: the `v:` or `k:` record, else the first `line:`
    record bad on its own, else the second record of the least repeated line."""
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


def serialize_design(d: Design) -> str:
    """Emit the design file format; round-trips bit-exactly through parse_design.
    Every `line:` record comes from one template (`%s` writes a point as `str`)."""
    out = [f"kind: {d.kind}", f"v: {d.v}", f"k: {d.k}"]
    if d.r_claimed is not None:
        out.append(f"r: {d.r_claimed}")
    body = ("\nline:" + " %s" * d.k) * d.b % tuple(chain.from_iterable(d.lines))
    return "\n".join(out) + body + "\n"
