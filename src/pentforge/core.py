"""Core incidence types: designs, pair coverage and partial-linear-space checks.

A Design is a finite incidence structure on points 0..v-1 with lines of a
fixed size k.  Lines are kept in canonical form (sorted within each line,
lines sorted lexicographically) so that equality, diffing and serialization
are deterministic.
"""

from __future__ import annotations

import array
from dataclasses import dataclass, field
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
        """Canonicalize and validate lines, then build an immutable Design."""
        if kind not in KINDS:
            raise DesignError(f"unknown design kind {kind!r}")
        if v < 0 or k < 2:
            raise DesignError(f"bad parameters v={v}, k={k}")
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
        return cls(v=v, k=k, lines=tuple(canon), r_claimed=r_claimed, kind=kind)

    @property
    def b(self) -> int:
        return len(self.lines)

    def lines_through(self) -> list[list[int]]:
        """Index of line numbers through each point."""
        through: list[list[int]] = [[] for _ in range(self.v)]
        for i, line in enumerate(self.lines):
            for p in line:
                through[p].append(i)
        return through

    def replication(self) -> list[int]:
        return [len(ls) for ls in self.lines_through()]


class PairCoverage:
    """Dense triangular array of per-pair line counts."""

    def __init__(self, v: int):
        self.v = v
        self._counts = array.array("H", bytes(2 * (v * (v - 1) // 2)))

    def _index(self, x: int, y: int) -> int:
        if x > y:
            x, y = y, x
        return x * (2 * self.v - x - 1) // 2 + (y - x - 1)

    def add(self, x: int, y: int) -> int:
        i = self._index(x, y)
        self._counts[i] += 1
        return self._counts[i]

    def count(self, x: int, y: int) -> int:
        return self._counts[self._index(x, y)]

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
    """
    violations: list[tuple[str, tuple]] = []
    is_uniform = True
    for line in d.lines:
        if len(line) != d.k:
            is_uniform = False
            violations.append(("nonuniform-line", line))
    cov = PairCoverage.of(d)
    is_pls = True
    for x in range(d.v):
        for y in range(x + 1, d.v):
            if cov.count(x, y) > 1:
                is_pls = False
                violations.append(("pair-covered-twice", (x, y)))
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
        raise DesignError(f"parameters require k >= 2 and r >= 1, got ({k}, {r})")
    v = r * k - r + k + 1
    b = v * r // k if (v * r) % k == 0 else None
    return v, b


def divisibility_ok(k: int, r: int) -> bool:
    """Necessary existence condition: k divides r(r-1)."""
    if k < 2 or r < 1:
        raise DesignError(f"divisibility_ok requires k >= 2 and r >= 1, got ({k}, {r})")
    return r * (r - 1) % k == 0


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


def read_records(text: str, schema: Schema) -> dict[str, Any]:
    """Read a file of the given format into converted fields.

    Each header field maps to its value, or None when absent; each repeated
    field maps to the list of its values in file order.  Unknown keys,
    duplicate header fields, missing required fields and values a converter
    cannot read are ParseErrors.
    """
    fields: dict[str, Any] = {key: [] for key in schema.repeated}
    lineno, key, value = 0, "", ""
    try:
        for lineno, key, value in records(text):
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
    """Parse the line-oriented design file format into a normalized Design."""
    f = read_records(text, DESIGN)
    try:
        return Design.make(v=f["v"], k=f["k"], lines=f["line"], r_claimed=f["r"],
                           kind=f["kind"] or "pent")
    except DesignError as exc:
        if "duplicate line" in str(exc):
            raise
        raise ParseError(str(exc)) from None


def serialize_design(d: Design) -> str:
    """Emit the design file format; round-trips bit-exactly through parse_design."""
    out = [f"kind: {d.kind}", f"v: {d.v}", f"k: {d.k}"]
    if d.r_claimed is not None:
        out.append(f"r: {d.r_claimed}")
    for line in d.lines:
        out.append("line: " + " ".join(str(p) for p in line))
    return "\n".join(out) + "\n"
