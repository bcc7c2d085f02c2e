"""Multi-index arithmetic and enumeration of multi-index partitions.

A multi-index is a plain tuple of nonnegative ints.  A partition of a
multi-index v is a multiset of nonzero multi-indices (the "columns")
summing, with multiplicities, to v.  Columns are stored in strictly
increasing lexicographic order together with their multiplicities.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator

# Resource guard: enumeration cost grows super-exponentially in |v|.
MAX_TOTAL_ORDER = 20
MAX_DIMENSION = 8


class OrderOverflowError(ValueError):
    """Requested order or dimension exceeds the configured cap."""


def order_cap() -> int:
    """The working order cap: $UMBRA_MAX_ORDER if set, else MAX_TOTAL_ORDER."""
    env = os.environ.get("UMBRA_MAX_ORDER")
    if not env:
        return MAX_TOTAL_ORDER
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"UMBRA_MAX_ORDER={env!r} is not an integer") from None


def check_order(n: int) -> None:
    """Raise ValueError when a truncation order is negative, and
    OrderOverflowError when it exceeds the cap."""
    if n < 0:
        raise ValueError(f"order {n} is negative")
    cap = order_cap()
    if n > cap:
        raise OrderOverflowError(f"order {n} exceeds the cap {cap} (UMBRA_MAX_ORDER)")


def check_dimension(d: int) -> None:
    """Raise OrderOverflowError unless 1 <= d <= MAX_DIMENSION."""
    if d < 1 or d > MAX_DIMENSION:
        raise OrderOverflowError(f"dimension {d} outside [1, {MAX_DIMENSION}]")


def check_index(v: tuple[int, ...]) -> None:
    """Raise unless v has an allowed dimension, no negative entry and
    |v| within the working cap order_cap()."""
    check_dimension(len(v))
    if any(e < 0 for e in v):
        raise ValueError(f"negative entry in multi-index {v}")
    check_order(total(v))


def total(v: tuple[int, ...]) -> int:
    """|v| = sum of the entries."""
    return sum(v)


def mi_factorial(v: tuple[int, ...]) -> int:
    """v! = product of entrywise factorials."""
    out = 1
    for e in v:
        out *= math.factorial(e)
    return out


def leq(k: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Componentwise partial order k <= v."""
    return len(k) == len(v) and all(a <= b for a, b in zip(k, v))


def sub(v: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(v, k))


def add(v: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(v, k))


@lru_cache(maxsize=None)
def sub_indices(v: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every k <= v, lexicographically."""
    return tuple(product(*(range(e + 1) for e in v)))


def multi_binomial(v: tuple[int, ...], k: tuple[int, ...]) -> int:
    """Product of entrywise binomial coefficients; 0 when k is not <= v."""
    if len(k) != len(v):
        raise ValueError("dimension mismatch")
    return math.prod(map(math.comb, v, k)) if leq(k, v) else 0


@lru_cache(maxsize=None)
def shift_plan(v: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The terms (j, v - j, C(v, j)) of (x + y)^v, every j <= v in lex order."""
    if any(e < 0 for e in v):
        raise ValueError(f"index {v} has a negative entry")
    return tuple((j, sub(v, j), multi_binomial(v, j)) for j in sub_indices(v))


def iter_indices(d: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All multi-indices of dimension d with |v| <= max_total, by |v| then lex."""
    for n in range(max_total + 1):
        yield from iter_indices_of_total(d, n)


def iter_indices_of_total(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """All multi-indices of dimension d with |v| = n, lexicographically."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in iter_indices_of_total(d - 1, n - first):
            yield (first, *rest)


@dataclass(frozen=True)
class MultiIndexPartition:
    """Partition of a multi-index: distinct nonzero columns with multiplicities.

    columns are strictly increasing lexicographically; sum(r_j * col_j) is
    the partitioned index.
    """

    columns: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]

    def length(self) -> int:
        """Number of columns counted with multiplicity, l(lambda)."""
        return sum(self.multiplicities)

    def index(self) -> tuple[int, ...]:
        """The multi-index this partitions."""
        d = len(self.columns[0]) if self.columns else 0
        v = [0] * d
        for col, r in zip(self.columns, self.multiplicities):
            for i, e in enumerate(col):
                v[i] += r * e
        return tuple(v)

    def multiplicity_factorial(self) -> int:
        return math.prod(map(math.factorial, self.multiplicities))

    def column_factorial(self) -> int:
        return math.prod(mi_factorial(col) ** r
                         for col, r in zip(self.columns, self.multiplicities))


def partitions(v: tuple[int, ...]) -> Iterator[MultiIndexPartition]:
    """Stream every partition of v exactly once, deterministically.

    |v| is capped by the working cap order_cap().  Recursive descent over
    candidate columns in decreasing lexicographic order; remaining budget
    prunes the search so no dedup pass is needed.
    """
    check_index(v)
    d = len(v)
    if all(e == 0 for e in v):
        yield MultiIndexPartition((), ())
        return

    def candidates(remaining: tuple[int, ...]) -> list[tuple[int, ...]]:
        return sorted(filter(any, product(*(range(e + 1) for e in remaining))), reverse=True)

    def descend(remaining: tuple[int, ...], bound: tuple[int, ...] | None,
                acc: list[tuple[tuple[int, ...], int]]) -> Iterator[MultiIndexPartition]:
        if not any(remaining):
            cols = tuple(c for c, _ in reversed(acc))
            mults = tuple(r for _, r in reversed(acc))
            yield MultiIndexPartition(cols, mults)
            return
        for col in candidates(remaining):
            if bound is not None and col >= bound:
                continue
            rem = remaining
            r = 0
            while leq(col, rem):
                rem = sub(rem, col)
                r += 1
                acc.append((col, r))
                yield from descend(rem, col, acc)
                acc.pop()

    yield from descend(v, None, [])


def partition_weight(lam: MultiIndexPartition, v: tuple[int, ...]) -> Fraction:
    """The combinatorial coefficient v! / (m(lambda)! * lambda!).

    Always a positive integer for a genuine partition of v.
    """
    if lam.index() != v and not (not lam.columns and not any(v)):
        raise ValueError(f"{lam} is not a partition of {v}")
    return Fraction(mi_factorial(v),
                    lam.multiplicity_factorial() * lam.column_factorial())


def parse_index(text: str) -> tuple[int, ...]:
    """Parse the text form "(v1,...,vd)" (parentheses optional).

    The index must pass check_index.
    """
    body = text.strip()
    if body[:1] == "(" and body[-1:] == ")":
        body = body[1:-1]
    if not body.strip():
        raise ValueError(f"empty multi-index: {text!r}")
    parts = [part.strip() for part in body.split(",")]
    if not all(part.isdigit() and part.isascii() for part in parts):
        raise ValueError(f"malformed multi-index {text!r}: need (v1,...,vd) "
                         "with nonnegative integers")
    v = tuple(int(part) for part in parts)
    check_index(v)
    return v


def format_index(v: tuple[int, ...]) -> str:
    return "(" + ",".join(str(e) for e in v) + ")"
