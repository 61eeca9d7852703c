"""Brute-force combinatorial oracles: ground truth at desk scale.

Everything here is deliberately naive backtracking over explicit objects, so
it can be trusted independently of the series machinery it cross-checks.
Feasible range is roughly n <= 12 for plane families and n <= 30 for the
one-dimensional ones; every oracle charges a budget, one step per node
visited and one per object yielded, against accidental large-n calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class BudgetExceeded(RuntimeError):
    """Enumeration exceeded its configured budget of steps."""


DEFAULT_BUDGET = 5_000_000


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int | None):
        self.left = float("inf") if limit is None else limit

    def charge(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("enumeration budget exceeded")


# -- one-dimensional partitions ---------------------------------------------


def partitions(n: int, max_part: int | None = None, odd_only: bool = False,
               distinct: bool = False, budget: int | None = DEFAULT_BUDGET):
    """Yield partitions of n as weakly decreasing tuples of positive parts.

    Each node visited and each partition yielded costs one step of ``budget``.
    """
    return _partitions(n, max_part, odd_only, distinct, _Budget(budget))


def _partitions(n, max_part, odd_only, distinct, tracker):
    """Depth first on an explicit stack of the parts still to try per level."""
    if n == 0:
        tracker.charge()
        yield ()
    top = n if max_part is None else min(n, max_part)
    prefix, stack = [], [iter(range(top, 0, -1))]  # n is what prefix leaves
    while stack:
        for first in stack[-1]:
            if odd_only and first % 2 == 0:
                continue
            tracker.charge()
            if first == n:
                tracker.charge()
                yield (*prefix, first)
            else:
                prefix.append(first)
                n -= first
                cap = first - 1 if distinct else first
                stack.append(iter(range(min(n, cap), 0, -1)))
                break
        else:  # no part left to try at this level
            stack.pop()
            if stack:
                n += prefix.pop()


@dataclass(frozen=True)
class Overpartition:
    """A partition whose first occurrence of a value may be overlined."""

    parts: tuple[int, ...]
    overlined: frozenset[int]  # the overlined part values

    @property
    def weight(self) -> int:
        return sum(self.parts)


def overpartitions(n: int, odd_parts_only: bool = False):
    """Yield all overpartitions of n (overline = subset of distinct values)."""
    for p in partitions(n, odd_only=odd_parts_only):
        values = sorted(set(p))
        for r in range(len(values) + 1):
            for chosen in itertools.combinations(values, r):
                yield Overpartition(p, frozenset(chosen))


def count_overpartitions(n: int, odd_parts_only: bool = False,
                         budget: int | None = DEFAULT_BUDGET) -> int:
    """Count by splitting into a distinct-parts piece and a free piece.

    One ``budget`` is charged by every partition enumerated on the way.
    """
    if n == 0:
        return 1
    tracker = _Budget(budget)

    def counts(distinct):
        return [sum(1 for _ in _partitions(j, None, odd_parts_only, distinct, tracker))
                for j in range(n + 1)]

    free, dist = counts(False), counts(True)
    return sum(dist[j] * free[n - j] for j in range(n + 1))


def count_partitions_multiset(n: int, parts,
                              budget: int | None = DEFAULT_BUDGET) -> int:
    """Partitions of n into parts from a multiset, entries used independently.

    ``parts`` is an iterable of parts with repetition; each entry may be used
    any number of times, and repeated entries of equal value count as
    distinct sources.  Plain backtracking on an explicit stack of the
    remainders left to try per entry, so any number of entries works; each
    node visited and each partition counted costs one step of ``budget``.
    """
    entries = tuple(parts)
    if any(p < 1 for p in entries):
        raise ValueError("parts must be positive")
    tracker = _Budget(budget)
    total = 0
    stack = [(0, iter((n,)))]  # (entry index, remainders still to visit)
    while stack:
        i, remainders = stack[-1]
        remaining = next(remainders, None)
        if remaining is None:
            stack.pop()
            continue
        tracker.charge()
        if remaining == 0:
            tracker.charge()
            total += 1
        elif i < len(entries):
            stack.append((i + 1, iter(range(remaining, -1, -entries[i]))))
    return total


# -- plane overpartitions -----------------------------------------------------


@dataclass(frozen=True)
class PlaneOverpartition:
    """Left-justified array of (value, overlined) cells.

    Values weakly decrease along rows and down columns.  In each row only the
    last cell of a constant-value run may be overlined; in each column every
    cell of a constant-value run except the first must be overlined.
    """

    rows: tuple[tuple[tuple[int, bool], ...], ...]

    @property
    def weight(self) -> int:
        return sum(v for row in self.rows for v, _ in row)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)


def validate(po: PlaneOverpartition) -> bool:
    """Check all plane-overpartition invariants; True iff the object is valid.

    Raises ValueError for a malformed shape (a row longer than the one above
    it), which is a structural error rather than a rule violation.
    """
    rows = po.rows
    for r in range(1, len(rows)):
        if len(rows[r]) > len(rows[r - 1]):
            raise ValueError("shape is ragged beyond left justification")
    for row in rows:
        for v, _ in row:
            if v < 1:
                return False
    for row in rows:  # weakly decreasing along rows
        for c in range(1, len(row)):
            if row[c][0] > row[c - 1][0]:
                return False
    for r in range(1, len(rows)):  # weakly decreasing down columns
        for c in range(len(rows[r])):
            if rows[r][c][0] > rows[r - 1][c][0]:
                return False
    # row rule: within a row only the last cell of a value run may be overlined
    for row in rows:
        for c, (v, over) in enumerate(row):
            last_of_run = c == len(row) - 1 or row[c + 1][0] != v
            if over and not last_of_run:
                return False
    # column rule: all but the first cell of a column value run are overlined
    for r in range(1, len(rows)):
        for c in range(len(rows[r])):
            v, over = rows[r][c]
            if rows[r - 1][c][0] == v and not over:
                return False
    return True


def render(po: PlaneOverpartition) -> str:
    """Plain-text diagram, one row per line, overlines marked with ``~``."""
    return "\n".join(
        " ".join(f"{v}~" if over else str(v) for v, over in row)
        for row in po.rows
    )


def plane_partitions(n: int, max_rows: int | None = None,
                     budget: int | None = DEFAULT_BUDGET):
    """Yield plane partitions of n as tuples of weakly decreasing int rows.

    Each cell visit costs one step of ``budget``.
    """
    return _plane_partitions(n, max_rows, _Budget(budget))


def _plane_partitions(n, max_rows, tracker):
    def rows(row_bound, remaining, acc):
        if remaining == 0:
            yield acc
            return
        if max_rows is not None and len(acc) >= max_rows:
            return
        for row in _rows_below(row_bound, remaining, tracker):
            yield from rows(row, remaining - sum(row), acc + (row,))

    yield from rows(None, n, ())


def _rows_below(bound, remaining, tracker):
    """Weakly decreasing positive rows cellwise <= bound, sum <= remaining."""
    width = remaining if bound is None else min(len(bound), remaining)

    def cells(c, left, acc):
        if acc:
            yield acc
        if c >= width or left == 0:
            return
        hi = acc[-1] if acc else left
        if bound is not None:
            hi = min(hi, bound[c])
        for v in range(min(hi, left), 0, -1):
            tracker.charge()
            yield from cells(c + 1, left - v, acc + (v,))

    yield from cells(0, remaining, ())


def plane_overpartitions(n: int, max_rows: int | None = None,
                         budget: int | None = DEFAULT_BUDGET):
    """Yield all plane overpartitions of n by decorating each plane partition.

    Per cell the row rule either forces "not overlined" or leaves it free and
    the column rule either forces "overlined" or leaves it free; assignments
    violating both at once are pruned (such fillings admit no decoration).
    Each cell visit and each yielded decoration costs one step of
    ``budget``, so at most ``budget`` objects are yielded.
    """
    tracker = _Budget(budget)
    for pp in _plane_partitions(n, max_rows, tracker):
        choices = []
        dead = False
        for r, row in enumerate(pp):
            for c, v in enumerate(row):
                allowed = [False, True]
                if c + 1 < len(row) and row[c + 1] == v:
                    allowed.remove(True)  # not last in its row run
                if r > 0 and pp[r - 1][c] == v and False in allowed:
                    allowed.remove(False)  # not first in its column run
                if not allowed:
                    dead = True
                    break
                choices.append(allowed)
            if dead:
                break
        if dead:
            continue
        widths = [len(row) for row in pp]
        for flags in itertools.product(*choices):
            tracker.charge()
            rows = []
            i = 0
            for r, row in enumerate(pp):
                rows.append(tuple((v, flags[i + c]) for c, v in enumerate(row)))
                i += widths[r]
            yield PlaneOverpartition(tuple(rows))


def count_plane_overpartitions(n: int, max_rows: int | None = None,
                               budget: int | None = DEFAULT_BUDGET) -> int:
    return sum(1 for _ in plane_overpartitions(n, max_rows, budget))


# -- n-color partitions -------------------------------------------------------


def ncolor_partitions(n: int, budget: int | None = DEFAULT_BUDGET):
    """Yield n-color partitions of n as multisets of (size, color) parts.

    A part of size j carries a color in 1..j; parts are ordered by size then
    color.  Output: tuples of ((size, color), multiplicity), decreasing.
    Each node visited and each partition yielded costs one step of ``budget``.
    """
    tracker = _Budget(budget)

    def extend(remaining, max_part, acc):
        if remaining == 0:
            tracker.charge()
            yield acc
            return
        size, color = max_part
        if size > remaining:  # no part of this size fits: skip its colors
            size = color = remaining
        while size >= 1:
            for mult in range(remaining // size, 0, -1):
                tracker.charge()
                nxt = (size, color - 1) if color > 1 else (size - 1, size - 1)
                yield from extend(remaining - mult * size, nxt,
                                  acc + (((size, color), mult),))
            size, color = (size, color - 1) if color > 1 else (size - 1, size - 1)

    yield from extend(n, (n, n), ())


def count_ncolor_partitions(n: int, budget: int | None = DEFAULT_BUDGET) -> int:
    return sum(1 for _ in ncolor_partitions(n, budget))


def count_ncolor_overpartitions(n: int, budget: int | None = DEFAULT_BUDGET) -> int:
    """Count n-color partitions with the final occurrence of each colored
    part optionally overlined: each distinct colored part doubles the count."""
    return sum(2 ** len(parts) for parts in ncolor_partitions(n, budget))


# -- representation counts ----------------------------------------------------


def count_sum_of_squares(n: int, k: int) -> int:
    """Ordered k-tuples of positive integers whose squares sum to n."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def count(remaining, slots):
        if slots == 0:
            return 1 if remaining == 0 else 0
        total = 0
        root = 1
        while root * root <= remaining:
            total += count(remaining - root * root, slots - 1)
            root += 1
        return total

    return count(n, k)


def count_linear_reps(a: int, b: int, c: int) -> int:
    """Pairs of positive integers (n, m) with a*n + b*m = c."""
    if min(a, b, c) < 1:
        raise ValueError("a, b, c must be >= 1")
    return sum(
        1
        for n in range(1, (c - b) // a + 1)
        if (c - a * n) % b == 0
    )
