"""PENT(2,r) enumeration, the integer partition function, and backtracking
completion of geometries from a prescribed deficiency graph."""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .core import Design
from .defgraph import Graph, build_deficiency, classify


# Initial candidate counting reads the clock after about this many cliques.
CLOCK_WORK = 1 << 14


class BudgetExhausted(RuntimeError):
    """Search stopped on its node or time budget, not by exhausting the space."""


class SearchPreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10 ** 8
    max_seconds: float = 60.0

    def __post_init__(self):
        if not (self.max_nodes > 0 and self.max_seconds > 0):  # NaN fails too
            raise ValueError("budget limits must be positive")


# ---------------------------------------------------------------------------
# Partition function and PENT(2,r) counting

@lru_cache(maxsize=None)
def partition_p(n: int) -> int:
    """Partition function by Euler's pentagonal-number recurrence; p(n)=0 for
    n < 0 and p(0)=1 so formulas evaluate uniformly at small arguments."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 else -1
        if g1 <= n:
            total += sign * partition_p(n - g1)
        if g2 <= n:
            total += sign * partition_p(n - g2)
        k += 1
    return total


def pent2_count(r: int) -> int:
    """Number of non-isomorphic PENT(2,r); equals the number of partitions of
    r+3 into parts of size at least 4."""
    if r < 2:
        raise SearchPreconditionError(f"need r >= 2, got {r}")
    return (partition_p(r + 3) - partition_p(r + 2) - partition_p(r + 1)
            + partition_p(r - 1) + partition_p(r - 2) - partition_p(r - 3))


def cycle_types(n: int, smallest: int = 4) -> list[tuple[int, ...]]:
    """Partitions of n into parts >= smallest, each sorted descending."""
    result: list[tuple[int, ...]] = []

    def extend(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            result.append(tuple(acc))
            return
        for part in range(min(cap, remaining), smallest - 1, -1):
            if remaining - part == 0 or remaining - part >= smallest:
                acc.append(part)
                extend(remaining - part, part, acc)
                acc.pop()

    extend(n, n, [])
    return sorted(result)


@lru_cache(maxsize=4)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs x < y of 0..n-1 in lexicographic order, built once per n."""
    return tuple(itertools.combinations(range(n), 2))


def design_from_cycle_type(ctype: tuple[int, ...]) -> Design:
    """K_n minus vertex-disjoint cycles of the given lengths; lines are the
    remaining edges, drawn from one tuple of pairs per n, so designs on the
    same points share their line tuples."""
    n = sum(ctype)
    deleted = set()
    start = 0
    for length in ctype:
        end = start + length - 1
        deleted.update(zip(range(start, end), range(start + 1, end + 1)))
        deleted.add((start, end))
        start += length
    lines = itertools.filterfalse(deleted.__contains__, _pairs(n))
    return Design.make(v=n, k=2, lines=lines, r_claimed=n - 3, kind="pent")


def pent2_enumerate(r: int) -> list[tuple[tuple[int, ...], Design]]:
    """All PENT(2,r) up to isomorphism, keyed by deleted cycle type."""
    if r < 2:
        raise SearchPreconditionError(f"need r >= 2, got {r}")
    return [(ctype, design_from_cycle_type(ctype)) for ctype in cycle_types(r + 3)]


# ---------------------------------------------------------------------------
# Completion search from a prescribed deficiency graph

def mandatory_lines(g: Graph, k: int) -> set[tuple[int, ...]]:
    """Lines forced by the target deficiency graph: one neighborhood per
    vertex of a girth >= 5 component, the two sides of each K_{k,k}."""
    return {tuple(sorted(g.neighbors[x])) for x in range(g.n)}


def complete_from_deficiency(g: Graph, k: int, r: int,
                             budget: SearchBudget | None = None) -> Design | None:
    """Search for a pentagonal geometry whose deficiency graph is exactly g.

    Returns a verified Design, or None if the search space was exhausted
    (no geometry with this deficiency graph exists).  Raises BudgetExhausted
    if the node or time budget ran out first.
    """
    budget = budget or SearchBudget()
    v_expect = r * k - r + k + 1
    if g.n != v_expect:
        raise SearchPreconditionError(
            f"graph has {g.n} vertices, PENT({k},{r}) needs {v_expect}")
    if not g.is_regular(k):
        raise SearchPreconditionError(f"graph is not {k}-regular")
    cls = classify(g, k)
    if not cls.clean:
        raise SearchPreconditionError(
            "graph has a component that is neither K_{k,k} nor girth >= 5")

    forced = sorted(mandatory_lines(g, k))
    closed = set(g.edges)  # pairs no further line may cover
    for line in forced:
        closed.update(itertools.combinations(line, 2))
    uncovered = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)
                 if (x, y) not in closed]
    solution = _exact_cover(g.n, k, uncovered, budget)
    if solution is None:
        return None
    design = Design.make(v=g.n, k=k, lines=forced + solution, r_claimed=r,
                         kind="pent")
    if build_deficiency(design).edges != g.edges:
        raise AssertionError("completion does not reproduce the target graph")
    return design


def _cliques(nbr: list[set[int]], pool: list[int], size: int) -> list[tuple[int, ...]]:
    """The `size`-subsets of `pool` whose points are pairwise joined in `nbr`,
    in lexicographic order when `pool` is sorted."""
    if size <= 1:
        return [(z,) for z in pool] if size else [()]
    return [(z,) + rest for i, z in enumerate(pool)
            for rest in _cliques(nbr, [w for w in pool[i + 1:] if w in nbr[z]], size - 1)]


def _lines_through(nbr: list[set[int]], a: int, b: int, k: int) -> list[tuple[int, ...]]:
    """The candidate lines for the pair {a, b}: the k-cliques through it in the
    graph `nbr` of uncovered pairs, as sorted tuples in lexicographic order."""
    return [tuple(sorted((a, b) + rest))
            for rest in _cliques(nbr, sorted(nbr[a] & nbr[b]), k - 2)]


def _exact_cover(n: int, k: int, uncovered: list[tuple[int, int]],
                 budget: SearchBudget) -> list[tuple[int, ...]] | None:
    """Partition the sorted list of uncovered pairs into k-cliques.

    Algorithm X with fail-first branching: each uncovered pair keeps a count
    of its candidate lines (the k-cliques through it among the uncovered
    pairs), updated as lines are covered and uncovered; each node branches on
    the pair with the fewest, the first in sorted order on a tie, and tries
    its lines in lexicographic order.  The search is deterministic and runs
    on an explicit stack; the time budget also covers the initial count.
    """
    deadline = time.monotonic() + budget.max_seconds

    def check_clock() -> None:
        if time.monotonic() > deadline:
            raise BudgetExhausted(f"time budget {budget.max_seconds}s exhausted")

    nbr: list[set[int]] = [set() for _ in range(n)]
    index = [[0] * n for _ in range(n)]
    for i, (x, y) in enumerate(uncovered):
        index[x][y] = index[y][x] = i
    done = sys.maxsize  # the count of a covered pair
    count = [done] * len(uncovered)

    def shift(a: int, b: int, step: int) -> int:
        # Add step to the count of every uncovered pair sharing a clique with {a, b}.
        rests = _cliques(nbr, list(nbr[a] & nbr[b]), k - 2)
        for rest in rests:
            for z in rest:
                count[index[a][z]] += step
                count[index[b][z]] += step
            for z, w in itertools.combinations(rest, 2):
                count[index[z][w]] += step
        return len(rests)

    def join(a: int, b: int) -> int:
        nbr[a].add(b)
        nbr[b].add(a)
        count[index[a][b]] = shift(a, b, 1)
        return count[index[a][b]]

    def cover(line: tuple[int, ...]) -> None:
        for a, b in itertools.combinations(line, 2):
            shift(a, b, -1)
            nbr[a].discard(b)
            nbr[b].discard(a)
            count[index[a][b]] = done

    work = 0
    for x, y in uncovered:  # the initial count: each clique is met at its last pair
        work += join(x, y) + 1
        if work > CLOCK_WORK:
            work = 0
            check_clock()

    nodes = 0
    chosen: list[tuple[int, ...]] = []
    frames: list[Iterator[tuple[int, ...]]] = []  # candidate lines per depth
    while True:
        fewest = min(count, default=done)
        if fewest == done:
            return chosen
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExhausted(f"node budget {budget.max_nodes} exhausted")
        check_clock()
        lines: list[tuple[int, ...]] = []
        if fewest:
            lines = _lines_through(nbr, *uncovered[count.index(fewest)], k)
            if len(lines) != fewest:
                raise RuntimeError("candidate count out of step with the uncovered pairs")
        frames.append(iter(lines))
        while True:
            if len(chosen) == len(frames):
                for a, b in itertools.combinations(chosen.pop(), 2):
                    join(a, b)
            line = next(frames[-1], None)
            if line is not None:
                break
            frames.pop()
            if not frames:
                return None
        cover(line)
        chosen.append(line)
