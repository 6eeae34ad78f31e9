"""PENT(2,r) enumeration, the integer partition function, and backtracking
completion of geometries from a prescribed deficiency graph."""

from __future__ import annotations

import itertools
import random
import sys
import time
from functools import lru_cache
from typing import Callable, Generator, NamedTuple

from .core import Design, checked, parameters
from .defgraph import Graph, build_deficiency, classify


DONE = sys.maxsize  # the count of a covered pair when the counts are a list
# The completion search's trunk runs alone for this many nodes; then probe
# run i takes up to RESTART_UNIT * luby(i) nodes, and the trunk as many again.
RESTART_UNIT = 2048
# A search keeps a copy of its counts and bitsets at its deepest SNAPSHOTS open
# branch points; a shallower one takes its lines back one by one.
SNAPSHOTS = 16


class BudgetExhausted(RuntimeError):
    """Search stopped on its node or time budget, not by exhausting the space."""


class SearchPreconditionError(ValueError):
    pass


@checked
class SearchBudget(NamedTuple):
    max_nodes: int = 10 ** 8
    max_seconds: float = 60.0

    def check(self) -> None:
        if not (self.max_nodes > 0 and self.max_seconds > 0):  # NaN fails too
            raise ValueError("budget limits must be positive")


# ---------------------------------------------------------------------------
# Partition function and PENT(2,r) counting

_PARTITIONS = [1]  # p(0), p(1), ... as far as any call has needed


def partition_p(n: int) -> int:
    """Partition function by Euler's pentagonal-number recurrence; p(n)=0 for
    n < 0 and p(0)=1 so formulas evaluate uniformly at small arguments.  The
    table of values is extended bottom-up on demand, so no call recurses."""
    if n < 0:
        return 0
    table = _PARTITIONS
    while len(table) <= n:
        m, total, k = len(table), 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:  # g and g + k are the pentagonal numbers
            sign = 1 if k % 2 else -1
            total += sign * table[m - g]
            if g + k <= m:
                total += sign * table[m - g - k]
            k += 1
        table.append(total)
    return table[n]


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
    remaining edges, picked from one tuple of pairs per n by a mask that
    clears the deleted pairs, so designs on the same points share their
    line tuples."""
    n = sum(ctype)
    pairs = _pairs(n)
    keep = bytearray(b"\x01") * len(pairs)
    start = 0
    for length in ctype:
        end = start + length - 1
        for x, y in [*zip(range(start, end), range(start + 1, end + 1)), (start, end)]:
            keep[x * (2 * n - x - 1) // 2 + y - x - 1] = 0  # the index of (x, y) in pairs
        start += length
    return Design.make(v=n, k=2, lines=list(itertools.compress(pairs, keep)), r_claimed=n - 3)


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
    if k < 2 or r < 1:
        raise SearchPreconditionError(f"need k >= 2 and r >= 1, got ({k}, {r})")
    budget = budget or SearchBudget()
    v_expect, _ = parameters(k, r)
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
    uncovered = list(itertools.filterfalse(closed.__contains__, _pairs(g.n)))
    solution = _exact_cover(g.n, k, uncovered, budget)
    if solution is None:
        return None
    design = Design.make(v=g.n, k=k, lines=forced + solution, r_claimed=r)
    if build_deficiency(design).edges != g.edges:
        raise AssertionError("completion does not reproduce the target graph")
    return design


def _cliques(adj: list[int], pool: int, size: int) -> list[tuple[int, ...]]:
    """The `size`-subsets of the points in the mask `pool` that are pairwise
    joined in the bitset graph `adj`, in lexicographic order."""
    if not size:
        return [()]
    found = []
    while pool:
        low = pool & -pool
        pool ^= low
        z = low.bit_length() - 1
        if size == 1:
            found.append((z,))
        else:
            found.extend((z,) + rest for rest in _cliques(adj, pool & adj[z], size - 1))
    return found


def _count_cliques(adj: list[int], pool: int, size: int) -> int:
    """len(_cliques(adj, pool, size)), counted without building a tuple."""
    if size <= 1:
        return pool.bit_count() if size else 1
    total = 0
    while pool:
        low = pool & -pool
        pool ^= low
        total += _count_cliques(adj, pool & adj[low.bit_length() - 1], size - 1)
    return total


def _lines_through(adj: list[int], a: int, b: int, k: int) -> list[tuple[int, ...]]:
    """The candidate lines for the pair {a, b}: the k-cliques through it in the
    bitset graph `adj` of uncovered pairs, each as (a, b) and then its other
    points, in the lexicographic order of the sorted lines."""
    return [(a, b) + rest for rest in _cliques(adj, adj[a] & adj[b], k - 2)]


class _Cover:
    """An exact cover of pairs by k-cliques in progress: the graph of the
    uncovered pairs as one bitset per point (bit y of `adj[x]` is set when
    {x, y} is uncovered; all the `pairs` are at first) and, for each of the
    sorted `pairs`, its count of candidate lines (the k-cliques through it),
    kept by `toggle` as lines come and go: one byte each if they fit, `done`
    marking a covered pair."""

    def __init__(self, n: int, k: int, pairs: list[tuple[int, int]]):
        self.k = k
        self.pairs = pairs
        self.adj = [0] * n
        self.index = [[0] * n for _ in range(n)]
        for i, (x, y) in enumerate(pairs):
            self.index[x][y] = self.index[y][x] = i
            self.adj[x] |= 1 << y
            self.adj[y] |= 1 << x
        self.count, self.done = [DONE] * len(pairs), DONE  # until count_candidates
        self.order: list[int] | range = range(n)  # the root's name of each point

    def count_candidates(self, check_clock: Callable[[], None]) -> None:
        # Every pair is uncovered: count the cliques through each in one pass.
        adj, count, size = self.adj, self.count, self.k - 2
        for i, (x, y) in enumerate(self.pairs):
            count[i] = _count_cliques(adj, adj[x] & adj[y], size)
            check_clock()
        if max(count, default=0) < 255:  # no count ever rises above its root value
            self.count, self.done = bytearray(count), 255

    def relabelled(self, order: list[int] | range) -> _Cover:
        """A copy of this counted root with each point renamed by its position in `order`."""
        rank = {p: i for i, p in enumerate(order)}
        copy = _Cover(len(order), self.k, sorted(tuple(sorted((rank[x], rank[y])))
                                                 for x, y in self.pairs))
        copy.count = type(self.count)(self.count[self.index[order[a]][order[b]]]
                                      for a, b in copy.pairs)
        copy.done, copy.order = self.done, order
        return copy

    def toggle(self, line: tuple[int, ...], step: int) -> None:
        """Cover the pairs of `line` (step -1) or put them back (step +1), one
        pair {a, b} at a time: the count of every other pair on a k-clique
        through {a, b} moves by step once per such clique, and {a, b} is marked
        done or recounted.  Those cliques are found among the common neighbours
        of a and b, which the bit of {a, b} does not change, so it flips first.
        Each clique moves once, on its first pair to go or its last to come back."""
        adj, count, index, size = self.adj, self.count, self.index, self.k - 2
        for a, b in itertools.combinations(line, 2):
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            common = adj[a] & adj[b]
            ia, ib = index[a], index[b]
            pool = common if size else 0  # for k = 2 the pair is the whole line
            while pool:
                z = pool.bit_length() - 1
                pool ^= 1 << z
                if size == 1:  # k = 3: the one line {a, b, z}
                    count[ia[z]] += step
                    count[ib[z]] += step
                    continue
                near = common & adj[z]  # the other points of the cliques through a, b, z
                through = step * (near.bit_count() if size == 2 else _count_cliques(adj, near, size - 1))
                count[ia[z]] += through
                count[ib[z]] += through
                iz, later = index[z], pool & near
                while later:
                    w = later.bit_length() - 1
                    later ^= 1 << w
                    count[iz[w]] += step if size == 2 else step * _count_cliques(
                        adj, near & adj[w], size - 2)
            count[ia[b]] = (self.done if step < 0 else common.bit_count() if size == 1
                            else _count_cliques(adj, common, size))

    def copy_state(self) -> tuple[list[int] | bytearray, list[int]]:
        """A copy of the counts and the bitsets, to restore by slice assignment."""
        return self.count[:], self.adj[:]

    def search(self) -> Generator[None, None, list[tuple[int, ...]] | None]:
        """Algorithm X on an explicit stack: each node branches on the pair with the
        fewest candidate lines, the first in sorted order on a tie, and tries its
        lines in lexicographic order, covering each with `toggle(line, -1)`.  A
        byte count is searched with find (memchr) for 0, 1, 2, ... up to the
        first hit; a list count with min and index.  A node with two or more
        lines copies its state before covering the first (`copy_state`), and
        going on to the next line restores that copy, so the lines below it are
        never taken back one by one.  Only the deepest SNAPSHOTS open branch
        points keep their copy; one whose copy was dropped takes its lines back
        with `toggle(line, 1)`.  Yields once per node, before expanding it;
        returns the first partition as sorted lines in the root's point names,
        or None."""
        count, done, pairs, adj = self.count, self.done, self.pairs, self.adj
        wide, toggle = not isinstance(count, bytearray), self.toggle
        chosen: list[tuple[int, ...]] = []  # the line covered at each depth
        frames = []  # the candidate lines left at each depth
        snaps = []  # (depth, counts, bitsets) at the deepest open branch points
        while True:
            if wide:
                fewest = min(count, default=done)
                at = count.index(fewest) if fewest != done else -1
            else:
                for fewest in range(done):
                    at = count.find(fewest)
                    if at >= 0:
                        break
                else:
                    at = -1
            if at < 0:
                return [tuple(sorted(self.order[z] for z in line)) for line in chosen]
            yield
            lines = _lines_through(adj, *pairs[at], self.k)
            if len(lines) != fewest:
                raise RuntimeError("candidate count out of step with the uncovered pairs")
            if fewest > 1 and SNAPSHOTS:
                if len(snaps) == SNAPSHOTS:  # drop the shallowest before copying
                    del snaps[0]
                snaps.append((len(frames), *self.copy_state()))
            frames.append(iter(lines))
            while (line := next(frames[-1], None)) is None:
                frames.pop()
                if not frames:
                    return None
                if snaps and snaps[-1][0] == len(frames):
                    snaps.pop()
            depth = len(frames) - 1
            if len(chosen) > depth:  # the next line here: back to this node's state
                if snaps and snaps[-1][0] == depth:
                    _, count[:], adj[:] = snaps[-1]
                    del chosen[depth:]
                while len(chosen) > depth:  # this node's copy was dropped
                    toggle(chosen.pop(), 1)
            toggle(line, -1)
            chosen.append(line)


def luby(i: int) -> int:
    """Term i >= 1 of Luby, Sinclair and Zuckerman's sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while i != (1 << i.bit_length()) - 1:
        i -= (1 << (i.bit_length() - 1)) - 1
    return (i + 1) // 2


def _exact_cover(n: int, k: int, uncovered: list[tuple[int, int]],
                 budget: SearchBudget) -> list[tuple[int, ...]] | None:
    """Partition the sorted list of uncovered pairs into k-cliques.

    The trunk is `_Cover.search` on the pairs as given.  After RESTART_UNIT
    nodes it alternates with probes: probe run i searches a copy of the counted
    root with the points renamed by their rank under `random.Random(i).shuffle`
    for up to RESTART_UNIT * luby(i) nodes, then the trunk runs as many again.
    So no one branching order can stall the search, and a proof that no
    partition exists (None) costs at most 7/3 of the trunk's nodes.  The node
    and time budgets cover the initial count, the trunk and every probe.
    """
    deadline = time.monotonic() + budget.max_seconds
    max_nodes = budget.max_nodes
    nodes = probes = 0

    def exhausted(what: str) -> BudgetExhausted:
        return BudgetExhausted(f"{what} exhausted ({nodes} nodes, {probes} probe runs)")

    def check_clock() -> None:
        if time.monotonic() > deadline:
            raise exhausted(f"time budget {budget.max_seconds}s")

    root = _Cover(n, k, uncovered)
    root.count_candidates(check_clock)
    trunk = run = root.relabelled(range(n)).search()
    while True:  # the first run to finish, trunk or probe, gives the answer
        try:
            for _ in range(RESTART_UNIT * luby(max(probes, 1))):
                next(run)
                if nodes == max_nodes:
                    raise exhausted(f"node budget {max_nodes}")
                check_clock()
                nodes += 1
        except StopIteration as stop:
            return stop.value
        if run is trunk:
            probes += 1
            order = list(range(n))
            random.Random(probes).shuffle(order)
            run = root.relabelled(order).search()
        else:
            run = trunk
