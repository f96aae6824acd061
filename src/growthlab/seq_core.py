"""Exact integer sequence kernel.

Stirling numbers of the second kind, Bell and second-order Bell numbers,
the Stirling transform linking the two growth sequences of a structure,
the binomial convolution and exponential formula that give the growth
sequences of products and wreath layers, and growth-bound comparators.
Everything here is exact big-integer or rational arithmetic; no verdict
ever depends on floating point.

Sequences are 0-indexed with value 1 at index 0 for any growth sequence
of a non-empty structure (one empty-tuple orbit).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .errors import CapacityError

Rational = Union[int, Fraction]

KIND_CELLULAR = "cellular-bound"
KIND_BELL_LOWER = "bell-lower"
KIND_FACTORIAL_UPPER = "factorial-upper"

#: meet_trivial_pairs enumerates partition pairs by backtracking; beyond
#: this index the count is in the billions and the loop would take hours.
MEET_TRIVIAL_MAX_N = 10


@dataclass(frozen=True)
class IntSeq:
    """A finite prefix (a_0, ..., a_N) of a non-negative integer sequence.

    ``values[n]`` is a_n; indexing is always from 0.  Instances are
    immutable.

    Monotonicity from index 1 holds for growth sequences of infinite
    structures but not for arbitrary sequences, so it is offered as the
    opt-in check :meth:`nondecreasing_from` rather than enforced here.
    """

    values: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        try:
            vals = tuple(operator.index(v) for v in self.values)
        except TypeError as exc:
            raise ValueError(f"IntSeq values must be integers: {exc}") from None
        if not vals:
            raise ValueError("IntSeq needs at least one value")
        if any(v < 0 for v in vals):
            raise ValueError("IntSeq values must be non-negative")
        object.__setattr__(self, "values", vals)

    @property
    def last_index(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def nondecreasing_from(self, start: int = 1) -> bool:
        """True if a_n <= a_{n+1} for all n >= start in the prefix."""
        vals = self.values
        return all(vals[n] <= vals[n + 1] for n in range(start, len(vals) - 1))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one growth-bound check over an index interval.

    kind is one of the KIND_* constants.  Which parameter fields are
    meaningful depends on kind:

      cellular-bound    c, d        the witnessing grid entry
      bell-lower        (none)
      factorial-upper   c, n0       bound holds for all n0 <= n <= N

    ``verified_range`` is the inclusive index interval that was examined;
    when ``passed`` is False, ``first_fail`` lies inside it.
    """

    kind: str
    passed: bool
    verified_range: tuple[int, int]
    c: Fraction | None = None
    d: Fraction | None = None
    n0: int | None = None
    first_fail: int | None = None

    def __post_init__(self):
        lo, hi = self.verified_range
        if not self.passed:
            if self.first_fail is None or not lo <= self.first_fail <= hi:
                raise ValueError("failing index must lie in verified_range")


#: rows 0..len-1 of the S(n, k) table, k = 0..n, grown on demand
_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]


def _stirling_row(n: int) -> tuple[int, ...]:
    # builds the missing rows upward from the highest cached one, so the
    # depth of the Python stack does not depend on n
    rows = _STIRLING_ROWS
    while len(rows) <= n:
        m = len(rows)
        prev = rows[-1]
        row = [0] * (m + 1)
        for k in range(1, m + 1):
            above = prev[k] if k < m else 0
            row[k] = k * above + prev[k - 1]
        rows.append(tuple(row))
    return rows[n]


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k non-empty blocks.

    S(0, 0) = 1 and S(n, k) = 0 for k > n or (k = 0, n > 0).  k > n is
    permitted and returns 0.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs n >= 0 and k >= 0")
    if k > n:
        return 0
    return _stirling_row(n)[k]


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    """Bell number B_n, the number of set partitions of [n] (A000110)."""
    if n < 0:
        raise ValueError("bell needs n >= 0")
    return sum(_stirling_row(n))


def bell2(n: int) -> int:
    """Second-order Bell number (A000258).

    Counts ordered pairs (P, Q) of set partitions of [n] where P refines
    Q; equals sum over k of S(n, k) * B_k.  B^(2)_0 = 1.
    """
    if n < 0:
        raise ValueError("bell2 needs n >= 0")
    if n == 0:
        return 1
    row = _stirling_row(n)
    return sum(row[k] * bell(k) for k in range(1, n + 1))


def stirling_transform(l: IntSeq) -> IntSeq:
    """The sequence s with s_0 = l_0 and s_n = sum_k S(n, k) * l_k.

    Applied to the injective-tuple growth sequence of a structure this
    yields its all-tuples growth sequence: every n-tuple factors through
    the partition of positions by coordinate equality.
    """
    vals = [l[0]]
    for n in range(1, len(l)):
        row = _stirling_row(n)
        vals.append(sum(row[k] * l[k] for k in range(1, n + 1)))
    label = f"stirling_transform({l.label})" if l.label else ""
    return IntSeq(tuple(vals), label)


def binomial_convolution(a: IntSeq, b: IntSeq) -> IntSeq:
    """The sequence c with c_n = sum_k C(n, k) * a_k * b_{n-k}.

    The injective-tuple growth sequence of a direct product: an n-tuple
    splits its positions between the two factors.  Both prefixes must
    have the same length.
    """
    if len(a) != len(b):
        raise ValueError(f"prefix lengths differ: {len(a)} vs {len(b)}")
    return IntSeq(
        tuple(
            sum(math.comb(n, k) * a[k] * b[n - k] for k in range(n + 1))
            for n in range(len(a))
        )
    )


def exp_shift(a: IntSeq) -> IntSeq:
    """The exponential formula: b_0 = 1 and
    b_n = sum_{k=1}^{n} C(n-1, k-1) * a_k * b_{n-k}.

    The injective-tuple growth sequence of e wr S_omega from that of e:
    the positions that share a copy with the first one are k in number,
    chosen in C(n-1, k-1) ways, and their orbits are those of e on
    k-tuples.  Needs a_0 = 1.  Terms with a_k = 0 are skipped, so over a
    finite leaf each b_n costs time linear in the leaf's degree.
    """
    if a[0] != 1:
        raise ValueError(f"exp_shift needs a_0 = 1, got {a[0]}")
    terms = [(k, a_k) for k, a_k in enumerate(a) if k and a_k]
    b = [1]
    for n in range(1, len(a)):
        b.append(sum(math.comb(n - 1, k - 1) * a_k * b[n - k] for k, a_k in terms if k <= n))
    return IntSeq(tuple(b))


def _as_fraction(x: Rational, name: str) -> Fraction:
    f = Fraction(x)
    if f <= 0:
        raise ValueError(f"{name} must be positive, got {f}")
    return f


def _check_cellular(seq: IntSeq, grid: Sequence[tuple[Rational, Rational]]) -> BoundReport:
    top = seq.last_index
    lo = 2
    entries = sorted(
        ((_as_fraction(d, "d"), _as_fraction(c, "c")) for c, d in grid),
        key=lambda e: (e[0], e[1]),
    )
    entries = [(c, d) for d, c in entries if d < 1]
    if not entries:
        raise ValueError("cellular-bound grid needs at least one entry with d < 1")

    best: tuple[int, Fraction, Fraction] | None = None
    for c, d in entries:
        p, q = d.numerator, d.denominator
        cp, cq = c.numerator, c.denominator
        fail_at = None
        for n in range(lo, top + 1):
            # l_n <= c * n^(d n)  iff  l_n^q * cq^q <= cp^q * n^(p n)
            if seq[n] ** q * cq**q > cp**q * n ** (p * n):
                fail_at = n
                break
        if fail_at is None:
            return BoundReport(KIND_CELLULAR, True, (lo, top), c=c, d=d)
        if best is None or fail_at > best[0]:
            best = (fail_at, c, d)
    assert best is not None
    fail_at, c, d = best
    return BoundReport(KIND_CELLULAR, False, (lo, top), c=c, d=d, first_fail=fail_at)


def _check_bell_lower(seq: IntSeq) -> BoundReport:
    top = seq.last_index
    for n in range(1, top + 1):
        if seq[n] < bell(n):
            return BoundReport(KIND_BELL_LOWER, False, (1, top), first_fail=n)
    return BoundReport(KIND_BELL_LOWER, True, (1, top))


def _check_factorial_upper(seq: IntSeq, c: Rational) -> BoundReport:
    cf = _as_fraction(c, "c")
    num, den = cf.numerator, cf.denominator
    top = seq.last_index
    # l_n <= n!/c^n  iff  l_n * num^n <= n! * den^n
    last_violation = -1
    for n in range(top + 1):
        if seq[n] * num**n > math.factorial(n) * den**n:
            last_violation = n
    if last_violation == top:
        return BoundReport(KIND_FACTORIAL_UPPER, False, (0, top), c=cf, first_fail=top)
    return BoundReport(KIND_FACTORIAL_UPPER, True, (0, top), c=cf, n0=last_violation + 1)


def check_bounds(
    seq: IntSeq,
    kind: str,
    *,
    c: Rational | None = None,
    grid: Sequence[tuple[Rational, Rational]] | None = None,
) -> BoundReport:
    """Check one growth bound against a sequence prefix, exactly.

    kind = "cellular-bound": ``grid`` is a list of (c, d) rationals; the
    check passes iff some entry with d < 1 verifies l_n <= c * n^(d n)
    for every 2 <= n <= N.  The report carries the verifying entry with
    the least d (ties by least c); on failure, the entry that verified
    the longest prefix together with its first failing index.

    kind = "bell-lower": passes iff l_n >= B_n for all 1 <= n <= N.

    kind = "factorial-upper": ``c`` is a positive rational; passes iff
    some n0 <= N has l_n <= n!/c^n for all n0 <= n <= N, and reports the
    least such n0.  Since indices above a violation are re-examined, the
    check fails exactly when index N itself violates the bound.

    All comparisons are big-integer comparisons; a rational d = p/q is
    handled by raising both sides to the q-th power.
    """
    if seq.last_index < 5:
        raise ValueError("check_bounds needs the sequence defined to index 5 or beyond")
    if kind == KIND_CELLULAR:
        if grid is None:
            raise ValueError("cellular-bound needs a (c, d) grid")
        return _check_cellular(seq, grid)
    if kind == KIND_BELL_LOWER:
        return _check_bell_lower(seq)
    if kind == KIND_FACTORIAL_UPPER:
        if c is None:
            raise ValueError("factorial-upper needs c")
        return _check_factorial_upper(seq, c)
    raise ValueError(f"unknown bound kind {kind!r}")


def _partition_shapes(n: int) -> Iterator[tuple[int, ...]]:
    # integer partitions of n, parts non-increasing
    def rec(left: int, mx: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield ()
            return
        for first in range(min(left, mx), 0, -1):
            for rest in rec(left - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def _count_conflict_free(classes: Sequence[int]) -> int:
    # set partitions of the elements 0..len(classes)-1 where no block
    # holds two elements of the same class; blocks tracked as class
    # bitmasks, elements placed in index order
    total = 0
    blocks: list[int] = []

    def rec(i: int) -> None:
        nonlocal total
        if i == len(classes):
            total += 1
            return
        bit = 1 << classes[i]
        for j, mask in enumerate(blocks):
            if not mask & bit:
                blocks[j] = mask | bit
                rec(i + 1)
                blocks[j] = mask
        blocks.append(bit)
        rec(i + 1)
        blocks.pop()

    rec(0)
    return total


def meet_trivial_pairs(n: int) -> int:
    """Pairs (P, Q) of set partitions of [n] with all-singletons meet.

    Counts ordered pairs such that no two elements share a block in both
    P and Q, i.e. the lattice meet of P and Q is the discrete partition
    (A059849).  This equals the injective-tuple growth sequence of the
    grid of two crossing equivalence relations with infinitely many
    infinite classes.

    Pairs are grouped by the block-size shape of P: the number of valid
    Q depends only on that shape, so the total is a sum over integer
    partitions of n of (set partitions with that shape) times
    (partitions of a class-coloured set avoiding same-class pairs).
    """
    if n < 0:
        raise ValueError("meet_trivial_pairs needs n >= 0")
    if n > MEET_TRIVIAL_MAX_N:
        raise CapacityError(
            f"meet_trivial_pairs is capped at n = {MEET_TRIVIAL_MAX_N}; got n = {n}"
        )
    if n == 0:
        return 1
    total = 0
    for shape in _partition_shapes(n):
        # set partitions of [n] with these block sizes
        count = math.factorial(n)
        for part in shape:
            count //= math.factorial(part)
        for repeats in Counter(shape).values():
            count //= math.factorial(repeats)
        classes = [ci for ci, part in enumerate(shape) for _ in range(part)]
        total += count * _count_conflict_free(classes)
    return total
