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
from bisect import bisect_left
from collections import Counter
from functools import cached_property, partial
from itertools import chain, compress, islice
from operator import eq, itemgetter, lt
from typing import Any, Callable, Iterable, NamedTuple, Sequence

KINDS = ("pent", "pls", "raw")


class DesignError(ValueError):
    """A design violates a structural invariant.  `where`, if known, names the
    input at fault: a parameter such as "v", or a line's input position."""

    def __init__(self, message: str, where: int | str | None = None):
        super().__init__(message)
        self.where = where


class ParseError(DesignError):
    """A file does not conform to its declared format."""


def checked(record):
    """Class decorator for a NamedTuple with a `check` method: every instance
    built, by the constructor, `_make` or `_replace`, is checked, so an
    invalid one cannot exist and no one needs to check it again."""
    new, make = record.__new__, record._make.__func__

    def built(self):
        self.check()
        return self
    record.__new__ = staticmethod(lambda cls, *args, **kwargs: built(new(cls, *args, **kwargs)))
    record._make = classmethod(lambda cls, iterable: built(make(cls, iterable)))
    return record


class _DesignFields(NamedTuple):
    v: int
    k: int
    lines: tuple[tuple[int, ...], ...]
    r_claimed: int | None = None
    kind: str = "pent"


class Design(_DesignFields):
    """Points 0..v-1 and canonical lines of k points, built by `make`.  No
    `__slots__`, so an instance keeps its `incidence` in its `__dict__`."""

    @classmethod
    def make(cls, v: int, k: int, lines: Iterable[Sequence[int]],
             r_claimed: int | None = None, kind: str = "pent") -> "Design":
        """Canonicalize and validate lines, then build an immutable Design.

        If every line is already a tuple of k increasing points in 0..v-1,
        checked over all lines at once, the same tuple objects are kept;
        otherwise each line becomes its sorted tuple, checked line by line in
        input order.  The error names the first line without k distinct
        points in 0..v-1, else the first repeated line in sorted order
        (`where` is its second input position).  `lines` is read once; a
        list is copied only to sort it.
        """
        if kind not in KINDS:
            raise DesignError(f"unknown design kind {kind!r}", where="kind")
        if v < 0 or k < 2:
            raise DesignError(f"bad parameters v={v}, k={k}", where="v" if v < 0 else "k")
        ordered = lines if type(lines) is list else list(lines)
        if not _canonical(ordered, k, v):
            ordered = _sorted_lines(ordered, k, v)
        canon = ordered
        if not all(map(lt, ordered, islice(ordered, 1, None))):  # unsorted or repeats
            canon = sorted(ordered)
            repeated = next(compress(canon, map(eq, canon, islice(canon, 1, None))), None)
            if repeated is not None:
                raise DesignError(f"duplicate line {repeated}", where=[
                    i for i, line in enumerate(ordered) if line == repeated][1])
        return cls(v=v, k=k, lines=tuple(canon), r_claimed=r_claimed, kind=kind)

    def keep(self, mask: Iterable[Any], r_claimed: int | None = None) -> "Design":
        """The design on the same points with the lines that `mask` marks (as
        `itertools.compress` reads it), the same line objects.  A subsequence
        of canonical, sorted, distinct lines is all three again, so nothing
        is checked here: every mask gives a valid design."""
        return type(self)(self.v, self.k, tuple(compress(self.lines, mask)), r_claimed, self.kind)

    @property
    def b(self) -> int:
        return len(self.lines)

    @cached_property
    def incidence(self) -> "Incidence":
        """The design's incidence index, built on first use and kept on the
        instance (`make` does not build it)."""
        return Incidence(self)


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


def _sorted_lines(raws: list, k: int, v: int) -> list:
    """Each line as its sorted tuple, in input order, raising for the first
    bad line (a line that cannot be sorted raises its TypeError)."""
    canon = []
    for i, raw in enumerate(raws):
        line = tuple(sorted(raw))
        if len(line) != k or len(set(line)) != k:
            raise DesignError(f"line {tuple(raw)} does not have {k} distinct points", where=i)
        if line[0] < 0 or line[-1] >= v:
            raise DesignError(f"line {line} has a point outside 0..{v - 1}", where=i)
        canon.append(line)
    return canon


class Incidence:
    """Point-line index of one Design, built by `Design.incidence`.

    `replication[x]` holds the number of lines through x;
    `opposites[x]` the points not collinear with x, sorted; `opposite_index[x]`
    the number of the line equal to `opposites[x]`, or None; `multi_covered`
    the pairs (x, y), x < y, that more than one line covers, sorted;
    `deficiency` the deficiency graph once `defgraph.build_deficiency` made it.

    x is collinear with exactly the points on the r lines through it, so its
    collinear set is one C-level pass over those lines, and its opposite set
    one set difference over the points (in a PENT(k,r), v = rk - r + k + 1).
    Without a pair covered twice that set holds r*(k-1) + 1 points; only a
    point with fewer has its lines counted point by point.  `Design.make`
    keeps the lines sorted, so the line equal to an opposite set is found by
    bisection in O(log b).  No line or pair dictionary is kept: on
    PENT(3,199) a line dictionary alone (1.3 MB) would nearly double the
    index.
    """

    def __init__(self, d: Design):
        lines = d.lines
        through: list[list[tuple[int, ...]]] = [[] for _ in range(d.v)]
        for line in lines:
            for p in line:
                through[p].append(line)
        self.replication = tuple(map(len, through))
        everyone = set(range(d.v))
        opposites = []
        multi_covered = []
        for x, ls in enumerate(through):
            collinear = set(chain.from_iterable(ls))
            collinear.add(x)
            if len(collinear) < len(ls) * (d.k - 1) + 1:
                times = Counter(chain.from_iterable(ls))
                multi_covered += [(x, y) for y in sorted(times) if y > x and times[y] > 1]
            opposites.append(tuple(sorted(everyone - collinear)))
        self.opposites = tuple(opposites)
        self.opposite_index = tuple(
            i if i < len(lines) and lines[i] == opp else None
            for opp, i in zip(opposites, map(partial(bisect_left, lines), opposites)))
        self.multi_covered = tuple(multi_covered)
        self.deficiency: Any = None


class PairCoverage:
    """Dense triangular array of per-pair line counts.  Kept only for the
    TRACED entry of bench/tracing.py, and removed together with it."""

    def __init__(self, v: int):
        self.v = v
        self._counts = array.array("H", bytes(2 * (v * (v - 1) // 2)))

    @classmethod
    def of(cls, d: Design) -> "PairCoverage":
        cov = cls(d.v)
        for line in d.lines:  # sorted, so x < y: pair (x, y) at its row-major index
            for i, x in enumerate(line):
                for y in line[i + 1:]:
                    cov._counts[x * (2 * d.v - x - 1) // 2 + y - x - 1] += 1
        return cov


class VerificationReport(NamedTuple):
    """One verdict: whether the design passes, the number of lines through
    every point (None if points differ or there are no points), and the
    violations, each with its witness."""
    ok: bool
    r: int | None
    violations: tuple[tuple[str, tuple], ...]


def verify_pls(d: Design) -> VerificationReport:
    """Check the partial-linear-space and regularity conditions (`Design.make`
    already made every line k distinct points).

    Violations are report content, never exceptions; each carries a witness.
    A pair that several lines cover gives one `pair-covered-twice`, in (x, y)
    order.  A point is an `irregular-point` when its line count differs from
    the most common count (the least of them on a tie), so a line with one
    point moved names only the two points whose count changed.  A claimed r
    is compared only with a common r, so no verdict depends on how the points
    are labelled.  Reads the design's incidence index, building it if need be.
    """
    incidence = d.incidence
    violations = [("pair-covered-twice", pair) for pair in incidence.multi_covered]
    repl = incidence.replication
    usual = max(sorted(Counter(repl).items()), key=itemgetter(1), default=(None,))[0]
    irregular = [("irregular-point", (p, n)) for p, n in enumerate(repl) if n != usual]
    violations += irregular
    r = None if irregular else usual
    if r is not None and d.r_claimed not in (None, r):
        violations.append(("replication-mismatch", (d.r_claimed, r)))
    return VerificationReport(ok=not violations, r=r, violations=tuple(violations))


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


class Schema(NamedTuple):
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


def read_records(recs: list[tuple[int, str, str]], schema: Schema) -> dict[str, Any]:
    """Read the `records` of a file of the given format, or of one section
    of such a file, into converted fields.

    Each header field maps to its value, or None when absent; each repeated
    field maps to the list of its values in file order.  Unknown keys,
    duplicate header fields, missing required fields and values a converter
    cannot read are ParseErrors.
    """
    repeated, header = schema.repeated, schema.header
    fields: dict[str, Any] = {key: [] for key in repeated}
    try:
        for lineno, key, value in recs:
            convert = repeated.get(key)
            if convert is not None:
                fields[key].append(convert(value))
            elif key in fields:
                raise ParseError(f"line {lineno}: duplicate header field {key!r}")
            elif key in header:
                fields[key] = header[key][0](value)
            else:
                raise ParseError(
                    f"line {lineno}: unknown field {key!r} in {schema.name} file")
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad {key} value {value!r}: {exc}") from None
    for key, (_, required) in header.items():
        if key not in fields:
            if required:
                raise ParseError(f"{schema.name} file missing required field {key!r}")
            fields[key] = None
    return fields


DESIGN = Schema("design",
                header={"kind": (kind_is(*KINDS), False), "v": (int, True),
                        "k": (int, True), "r": (int, False)},
                repeated={"line": points})


def read_file(text: str, schema: Schema, build: Callable[[dict[str, Any]], Any],
              key: str | None = None) -> Any:
    """Read a file of the given format and `build` its object from the fields.

    A DesignError whose `where` is set becomes a ParseError naming the file
    line of that record: the header field `where` names, or the where-th
    `key` record.  Any other DesignError passes through unchanged.
    """
    recs = records(text)
    fields = read_records(recs, schema)
    try:
        return build(fields)
    except DesignError as exc:
        if exc.where is None:
            raise
        field, i = (exc.where, 0) if isinstance(exc.where, str) else (key, exc.where)
        raise ParseError(f"line {[n for n, name, _ in recs if name == field][i]}: {exc}") from None


def parse_design(text: str) -> Design:
    """Parse the line-oriented design file format into a normalized Design.
    A design that `Design.make` rejects is a ParseError naming the record."""
    return read_file(text, DESIGN, lambda f: Design.make(
        v=f["v"], k=f["k"], lines=f["line"], r_claimed=f["r"], kind=f["kind"] or "pent"),
        key="line")


def serialize_design(d: Design) -> str:
    """Emit the design file format; round-trips bit-exactly through parse_design.
    Every `line:` record comes from one template (`%s` writes a point as `str`)."""
    out = [f"kind: {d.kind}", f"v: {d.v}", f"k: {d.k}"]
    if d.r_claimed is not None:
        out.append(f"r: {d.r_claimed}")
    body = ("\nline:" + " %s" * d.k) * d.b % tuple(chain.from_iterable(d.lines))
    return "\n".join(out) + body + "\n"
