"""PENT(2,r) enumeration, the integer partition function, and backtracking
completion of geometries from a prescribed deficiency graph."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache

from .core import Design
from .defgraph import Graph, build_deficiency, classify


class BudgetExhausted(RuntimeError):
    """Search stopped on its node or time budget, not by exhausting the space."""


class SearchPreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10 ** 8
    max_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_seconds <= 0:
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


def design_from_cycle_type(ctype: tuple[int, ...]) -> Design:
    """K_n minus vertex-disjoint cycles of the given lengths; lines are the
    remaining edges."""
    n = sum(ctype)
    deleted = set()
    start = 0
    for length in ctype:
        for i in range(length):
            u = start + i
            w = start + (i + 1) % length
            deleted.add((min(u, w), max(u, w)))
        start += length
    lines = [(x, y) for x in range(n) for y in range(x + 1, n)
             if (x, y) not in deleted]
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
    adjacent = set(g.edges)
    covered = set()
    for line in forced:
        for pair in itertools.combinations(line, 2):
            covered.add(pair)
    repl = [0] * g.n
    for line in forced:
        for p in line:
            repl[p] += 1

    uncovered = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)
                 if (x, y) not in adjacent and (x, y) not in covered]
    solution = _exact_cover(g, k, r, forced, set(uncovered), repl, budget)
    if solution is None:
        return None
    design = Design.make(v=g.n, k=k, lines=solution, r_claimed=r, kind="pent")
    if build_deficiency(design).edges != g.edges:
        raise AssertionError("completion does not reproduce the target graph")
    return design


def _exact_cover(g: Graph, k: int, r: int, forced: list[tuple[int, ...]],
                 uncovered: set[tuple[int, int]], repl: list[int],
                 budget: SearchBudget) -> list[tuple[int, ...]] | None:
    """Partition the uncovered non-adjacent pairs into k-subsets.

    Branches on the uncovered pair with the fewest candidate lines
    (fail-first); candidate ordering is lexicographic, so the search is
    deterministic for a fixed budget.
    """
    adjacent = set(g.edges)
    deadline = time.monotonic() + budget.max_seconds
    nodes = 0
    chosen: list[tuple[int, ...]] = []

    def pair(x: int, y: int) -> tuple[int, int]:
        return (x, y) if x < y else (y, x)

    def candidates_for(x: int, y: int) -> list[tuple[int, ...]]:
        # Grow {x, y} into k-subsets whose internal pairs are all uncovered.
        result = []
        pool = [z for z in range(g.n) if z != x and z != y
                and repl[z] < r
                and pair(x, z) in uncovered and pair(y, z) in uncovered]

        def grow(acc: list[int], rest: list[int]) -> None:
            if len(acc) == k:
                result.append(tuple(sorted(acc)))
                return
            need = k - len(acc)
            for i, z in enumerate(rest):
                if len(rest) - i < need:
                    break
                if all(pair(w, z) in uncovered for w in acc if w not in (x, y)):
                    grow(acc + [z], rest[i + 1:])

        grow([x, y], pool)
        return result

    def solve() -> bool:
        nonlocal nodes
        if not uncovered:
            return True
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExhausted(f"node budget {budget.max_nodes} exhausted")
        if nodes % 256 == 0 and time.monotonic() > deadline:
            raise BudgetExhausted(f"time budget {budget.max_seconds}s exhausted")
        # Fail-first: branch on the uncovered pair with fewest completions.
        best_pair = None
        best_cands: list[tuple[int, ...]] | None = None
        for (x, y) in sorted(uncovered):
            cands = candidates_for(x, y)
            if best_cands is None or len(cands) < len(best_cands):
                best_pair, best_cands = (x, y), cands
                if not cands:
                    return False
                if len(cands) == 1:
                    break
        if best_cands is None:
            raise RuntimeError("no uncovered pair to branch on")
        for line in best_cands:
            pairs = [pair(a, b) for a, b in itertools.combinations(line, 2)]
            for pr in pairs:
                uncovered.discard(pr)
            for p in line:
                repl[p] += 1
            chosen.append(line)
            if solve():
                return True
            chosen.pop()
            for p in line:
                repl[p] -= 1
            for pr in pairs:
                uncovered.add(pr)
        return False

    if solve():
        return forced + chosen
    return None
