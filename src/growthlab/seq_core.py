"""Exact integer sequence kernel.

Bell and second-order Bell numbers, partition pairs with a trivial
meet, the Stirling transform linking the two growth sequences of a
structure, the binomial convolution and exponential formula that give
the growth sequences of products and wreath layers, and growth-bound
comparators.  Everything here is exact big-integer or rational
arithmetic; no verdict ever depends on floating point.

Sequences are 0-indexed with value 1 at index 0 for any growth sequence
of a non-empty structure (one empty-tuple orbit).  A named sequence is
a function of a prefix length: ``bell(n_max)`` returns the IntSeq
B_0..B_{n_max}.  Triangles (Bell, Pascal, signed Stirling of the
first kind) are built row by row from the one above with C-level
``map`` and ``accumulate`` passes, and only the current row is kept; no
term computes a binomial coefficient on its own.  The Stirling
transform needs no triangle at all: it applies a difference operator
to the sequence.  The one state kept between calls is the longest Bell
prefix built so far, which ``bell`` slices or extends.

The pure set, whose growth sequence is constant 1 (EGF e^x), takes two
routes of its own, chosen from the values alone.  Its Stirling
transform, exp(e^x - 1), is the Bell EGF, so it goes to ``bell``.  A
product with it, e^x * A(x), is the binomial transform of the other
factor, sum_k C(n, k) * a_k, so ``binomial_convolution`` applies the
difference operator (D u)_k = u_k + u_{k+1}; it takes that route only
when the other factor has full support, as over a finite factor the
cut Pascal row costs less.  Both routes add big integers and multiply
none.

Work.  The kernels that build a triangle of terms take an
errors.Budget, a fresh one of DEFAULT_NODE_BUDGET units when None, as
every budgeted call in growthlab does.  Before they form any term, they
name their step as its stage and spend on it the number of terms that
their closed form counts, so a prefix too long for the budget raises
CapacityError at once.  Over L values that is L(L+1)/2 for a Stirling
transform, a Bell triangle, a binomial transform or the Stirling
triangle of meet_trivial_pairs, and L * min(L, top + 1) for binomial_convolution
and exp_shift, with top the last non-zero index of the factor that
ends first.  ``bell`` spends its triangle even when it slices the kept
prefix, so what a call spends depends on its arguments alone.  Two
callers take Bell numbers from the unbudgeted ``_bell``: the Stirling
transform of the pure set, which has spent the same triangle, and the
Bell lower bound, over a prefix whose evaluation has spent more.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import add, index, mul, sub
from typing import Iterator, Sequence, Union

from .errors import DEFAULT_NODE_BUDGET, Budget, ParseError
from .record import Record

Rational = Union[int, Fraction]

KIND_CELLULAR = "cellular-bound"
KIND_BELL_LOWER = "bell-lower"
KIND_FACTORIAL_UPPER = "factorial-upper"


class IntSeq(Record):
    """A finite prefix (a_0, ..., a_N) of a non-negative integer sequence.

    ``values[n]`` is a_n; indexing is always from 0.  Instances are
    immutable.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        try:
            vals = tuple(map(index, self.values))
        except TypeError as exc:
            raise ValueError(f"IntSeq values must be integers: {exc}") from None
        if not vals:
            raise ValueError("IntSeq needs at least one value")
        if min(vals) < 0:
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


class BoundReport(Record):
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


def _spend(budget: Budget | None, step: str, length: int, top: int | None = None) -> Budget:
    """Spend on ``budget`` (a fresh one of DEFAULT_NODE_BUDGET units when
    None) the terms that a step over prefixes of ``length`` values forms
    (module docstring): a triangle's when top is None, else
    length * min(length, top + 1).  Returns the budget spent."""
    budget = budget or Budget(DEFAULT_NODE_BUDGET)
    budget.stage = f"{step} to n = {length - 1}"
    budget.spend(length * (length + 1) // 2 if top is None else length * min(length, top + 1))
    return budget


#: the longest Bell prefix built so far, and the last row of its triangle
_BELL = [1]
_BELL_ROW = [1]


def bell(n_max: int, *, budget: Budget | None = None) -> IntSeq:
    """Bell numbers B_0..B_{n_max}: set partitions of [n] (A000110).

    From the Bell triangle: row n opens with the last entry of row n - 1,
    and each further entry adds the entry above it to its left
    neighbour.  Row n opens with B_n.  Each row is built once per
    process; a shorter prefix is a slice of the longest one built.
    """
    if n_max < 0:
        raise ValueError("bell needs n_max >= 0")
    _spend(budget, "Bell triangle", n_max + 1)
    return _bell(n_max)


def _bell(n_max: int) -> IntSeq:
    """bell without spending: for the two callers of the module
    docstring, whose triangle is spent already."""
    while len(_BELL) <= n_max:
        _BELL_ROW[:] = accumulate(_BELL_ROW, initial=_BELL_ROW[-1])
        _BELL.append(_BELL_ROW[0])
    return IntSeq(tuple(_BELL[: n_max + 1]))


def bell2(n_max: int, *, budget: Budget | None = None) -> IntSeq:
    """Second-order Bell numbers B^(2)_0..B^(2)_{n_max} (A000258).

    Counts ordered pairs (P, Q) of set partitions of [n] where P refines
    Q: the Stirling transform of the Bell numbers, sum_k S(n, k) * B_k.
    """
    budget = budget or Budget(DEFAULT_NODE_BUDGET)
    return stirling_transform(bell(n_max, budget=budget), budget=budget)


def stirling_transform(l: IntSeq, *, budget: Budget | None = None) -> IntSeq:
    """The sequence s with s_n = sum_k S(n, k) * l_k.

    Applied to the injective-tuple growth sequence of a structure this
    yields its all-tuples growth sequence: every n-tuple factors through
    the partition of positions by coordinate equality.  On EGFs it is
    H(x) -> H(e^x - 1), so it commutes with the binomial product and,
    when h_0 = 1, with exp_shift: exp(H(e^x - 1) - 1) = (exp o (H - 1))(e^x - 1).

    No Stirling number is formed.  With (D u)_k = k * u_k + u_{k+1},
    s_n = (D^n l)_0, since by S(n+1, j) = j * S(n, j) + S(n, j-1)

        sum_j S(n, j) (D u)_j = sum_j u_j (j S(n, j) + S(n, j-1))
                              = sum_j S(n+1, j) u_j,

    and S(0, j) is 1 at j = 0 only.  Each step shortens u by one entry
    and multiplies big integers only by the small index k.  The one
    point (1, 1, 0, ...) goes to the constant 1, and that to ``bell``.
    """
    u = list(l.values)
    _spend(budget, "Stirling transform", len(u))
    if _all_ones(u):
        return _bell(len(u) - 1)
    if is_one_point(u):
        return IntSeq((1,) * len(u))
    vals = [u[0]]
    for _ in range(1, len(u)):
        u = list(map(add, map(mul, u, count()), u[1:]))
        vals.append(u[0])
    return IntSeq(tuple(vals))


def _top(values) -> int:
    """The last index with a non-zero value, 0 if there is none."""
    return max((k for k, v in enumerate(values) if v), default=0)


def _all_ones(values) -> bool:
    """Whether every value is 1: the pure set's growth sequence."""
    return values.count(1) == len(values)


def is_one_point(values) -> bool:
    """Whether the values are (1, 1, 0, ...), those of (finite 1)."""
    return len(values) > 1 and values[0] == values[1] == 1 and values.count(0) == len(values) - 2


def _binomial_transform(a) -> IntSeq:
    """The sequence c with c_n = sum_k C(n, k) * a_k.

    As in stirling_transform, c_n = (D^n a)_0, here with
    (D u)_k = u_k + u_{k+1}: by C(n+1, k) = C(n, k) + C(n, k-1),

        sum_k C(n, k) (D u)_k = sum_k u_k (C(n, k) + C(n, k-1))
                              = sum_k C(n+1, k) u_k.

    Each step shortens u by one entry and only adds.
    """
    u = list(a)
    vals = [u[0]]
    for _ in range(1, len(u)):
        u = list(map(add, u, u[1:]))
        vals.append(u[0])
    return IntSeq(tuple(vals))


def binomial_convolution(a: IntSeq, b: IntSeq, *, budget: Budget | None = None) -> IntSeq:
    """The sequence c with c_n = sum_k C(n, k) * a_k * b_{n-k}.

    The injective-tuple growth sequence of a direct product: an n-tuple
    splits its positions between the two factors.  Both prefixes must
    have the same length.  The sum is symmetric in a and b, so let a be
    the factor whose last non-zero entry a_top comes first (a finite
    leaf ends at its degree).  The binomials come from one running
    Pascal row, C(n, k) for k <= min(n, top).

    A factor that is constant 1, the pure set with EGF e^x, turns the
    product into the binomial transform of the other factor,
    c_n = sum_k C(n, k) * a_k (the EGF identity e^x * A(x) = C(x)).
    When the other factor has full support, its last entry non-zero,
    that transform is taken by additions alone (_binomial_transform).
    Over a finite factor the Pascal row, cut at its degree, is cheaper
    and is kept.
    """
    if len(a) != len(b):
        raise ValueError(f"prefix lengths differ: {len(a)} vs {len(b)}")
    av, bv = a.values, b.values
    if _all_ones(bv):
        av, bv = bv, av
    if _all_ones(av) and bv[-1]:
        _spend(budget, "binomial transform", len(bv))
        return _binomial_transform(bv)
    top_a, top_b = _top(av), _top(bv)
    if top_b < top_a:
        av, bv = bv, av
    top = min(top_a, top_b)
    _spend(budget, "binomial convolution", len(av), top)
    row = [1]
    vals = [av[0] * bv[0]]
    for n in range(1, len(av)):
        row = [1, *map(add, row[1:], row[:-1])]
        if n <= top:
            row.append(1)
        m = min(n, top)
        vals.append(sum(map(mul, map(mul, row, av), reversed(bv[n - m : n + 1]))))
    return IntSeq(tuple(vals))


def exp_shift(a: IntSeq, *, budget: Budget | None = None) -> IntSeq:
    """The exponential formula: b_0 = 1 and
    b_n = sum_{k=1}^{n} C(n-1, k-1) * a_k * b_{n-k}.

    The injective-tuple growth sequence of e wr S_omega from that of e:
    the positions that share a copy with the first one are k in number,
    chosen in C(n-1, k-1) ways, and their orbits are those of e on
    k-tuples.  Needs a_0 = 1.  With top the last k with a_k != 0, the
    binomials come from one running Pascal row C(n-1, j), j < min(n, top),
    so over a finite leaf each b_n costs time linear in the leaf's degree.

    It commutes with the Stirling transform St (see there) and equals it
    on the one point p = (1, 1, 0, ...), so eval_lseq never passes it the
    pure set or a wreath tower over it: those are St^k(p).
    """
    if a[0] != 1:
        raise ValueError(f"exp_shift needs a_0 = 1, got {a[0]}")
    top = _top(a)
    _spend(budget, "exponential formula", len(a), top)
    coef = a.values[1 : top + 1]
    row = [1]
    b = [1]
    for n in range(1, len(a)):
        if n > 1:
            row = [1, *map(add, row[1:], row[:-1])]
            if n <= top:
                row.append(1)
        m = min(n, top)
        b.append(sum(map(mul, map(mul, row, coef), reversed(b[n - m : n]))))
    return IntSeq(tuple(b))


def _as_fraction(x: Rational, name: str) -> Fraction:
    f = Fraction(x)
    if f <= 0:
        raise ParseError(f"{name} must be positive, got {f}")
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
        raise ParseError("cellular-bound grid needs at least one entry with d < 1")

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
    b = _bell(top)
    for n in range(1, top + 1):
        if seq[n] < b[n]:
            return BoundReport(KIND_BELL_LOWER, False, (1, top), first_fail=n)
    return BoundReport(KIND_BELL_LOWER, True, (1, top))


def _check_factorial_upper(seq: IntSeq, c: Rational) -> BoundReport:
    cf = _as_fraction(c, "c")
    num, den = cf.numerator, cf.denominator
    top = seq.last_index
    # l_n <= n!/c^n  iff  l_n * num^n <= n! * den^n; num^n and n! * den^n
    # are carried from one index to the next
    last_violation = -1
    num_n = fact_den_n = 1
    for n in range(top + 1):
        if n:
            num_n *= num
            fact_den_n *= n * den
        if seq[n] * num_n > fact_den_n:
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


def meet_trivial_pairs(n_max: int, *, budget: Budget | None = None) -> IntSeq:
    """Pairs (P, Q) of set partitions of [n] with all-singletons meet,
    for n = 0..n_max (A059849).

    Counts ordered pairs such that no two elements share a block in both
    P and Q, i.e. the lattice meet of P and Q is the discrete partition.
    This equals the injective-tuple growth sequence of the grid of two
    crossing equivalence relations with infinitely many infinite classes.

    Every pair has one meet R, and the pairs whose meet lies above R
    number B_k^2 when R has k blocks.  Mobius inversion on the partition
    lattice gives a_n = sum_k s(n, k) * B_k^2, with s the signed Stirling
    numbers of the first kind, s(n, k) = s(n-1, k-1) - (n-1) * s(n-1, k).
    """
    if n_max < 0:
        raise ValueError("meet_trivial_pairs needs n_max >= 0")
    budget = budget or Budget(DEFAULT_NODE_BUDGET)
    squares = [b * b for b in bell(n_max, budget=budget)]
    _spend(budget, "Stirling triangle", n_max + 1)
    row = [1]
    vals = [1]
    for n in range(1, n_max + 1):
        row = [0, *map(sub, row, map(mul, row[1:], repeat(n - 1))), 1]
        vals.append(sum(map(mul, row, squares)))
    return IntSeq(tuple(vals))
