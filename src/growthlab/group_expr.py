"""AST, parser and evaluator for the group-expression grammar.

Expressions describe the oligomorphic permutation groups built from
finite permutation groups by finite direct products and wreath products
with the infinite symmetric group:

    (finite <k>)                    trivial group on k points
    (finite <k> full-sym)           symmetric group on k points
    (finite <k> gens=[...])         generated group, cycle notation
    (prod e1 e2 ...)                direct product, two or more factors
    (wr e)                          e wr S_omega

Cycle notation inside gens=[...] is 0-based over the k points, e.g.
gens=[(0 1)(2 3), (0 1 2)] gives two generators; multiple cycles in one
generator compose left to right.  An omitted gens list means the
trivial group.

eval_lseq computes the injective-tuple growth sequence by structural
recursion on integers: stabilizer descent at finite leaves, a binomial
convolution at products, and the exponential formula at wreath layers.
classify sorts expressions into finite, cellular and msnc (infinite,
every wreath layer over a finite domain, versus some wreath layer over
an infinite one); the label is syntactic, which the command-line layer
makes explicit.  truncate_expr turns an expression into the finite group
that the truncation oracle counts orbits of.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Sequence, Union

from .errors import CapacityError, ParseError
from .orbit_oracle import DEFAULT_TUPLE_BUDGET, FinPermGroup, count_orbits_injective
from .record import Record
from .seq_core import (
    BoundReport,
    IntSeq,
    Rational,
    binomial_convolution,
    check_bounds,
    exp_shift,
    is_one_point,
    stirling_transform,
)

CLASS_FINITE = "finite"
CLASS_CELLULAR = "cellular"
CLASS_MSNC = "msnc"

#: default (c, d) grid for cellular-bound checks
DEFAULT_CELL_GRID: tuple[tuple[Fraction, Fraction], ...] = tuple(
    (Fraction(c), Fraction(p, q))
    for c in (1, 2)
    for p, q in ((1, 2), (3, 5), (2, 3), (3, 4), (4, 5))
)
#: default c grid for factorial-upper checks
DEFAULT_C_GRID: tuple[Fraction, ...] = (Fraction(2),)
MAX_TRUNC_DEGREE = 4096


class Finite(Record):
    group: FinPermGroup


class DirectProduct(Record):
    factors: tuple["GroupExpr", ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("a direct product needs at least two factors")


class WreathSomega(Record):
    base: "GroupExpr"


GroupExpr = Union[Finite, DirectProduct, WreathSomega]


def domain_size(expr: GroupExpr) -> int | None:
    """Domain size of the group the expression generates; None if infinite."""
    if isinstance(expr, Finite):
        return expr.group.degree
    if isinstance(expr, DirectProduct):
        sizes = [domain_size(f) for f in expr.factors]
        return None if None in sizes else sum(sizes)
    if isinstance(expr, WreathSomega):
        return None
    raise TypeError(f"not a group expression: {expr!r}")


def _wreath_bases(expr: GroupExpr) -> list[GroupExpr]:
    if isinstance(expr, Finite):
        return []
    if isinstance(expr, DirectProduct):
        return [b for f in expr.factors for b in _wreath_bases(f)]
    return [expr.base] + _wreath_bases(expr.base)


def classify(expr: GroupExpr) -> str:
    """finite, cellular or msnc.

    finite: no wreath layer.  cellular: infinite, and every wreath layer
    sits over a finite domain, so the structure is finitely many finite
    cells spread along one equivalence relation with full symmetry.
    msnc: some wreath layer over an infinite domain, which yields a
    definable equivalence relation with infinitely many infinite
    classes.  Within this grammar the criterion is syntactic.
    """
    bases = _wreath_bases(expr)
    if not bases:
        return CLASS_FINITE
    if all(domain_size(b) is not None for b in bases):
        return CLASS_CELLULAR
    return CLASS_MSNC


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(f"parse error at position {self.pos}: {message}", self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "-_"
        ):
            self.pos += 1
        if self.pos == start:
            self.error("expected a word")
        return self.text[start : self.pos]

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])


def _parse_cycles(sc: _Scanner, degree: int) -> tuple[int, ...]:
    # one generator: a product of cycles applied left to right
    image = list(range(degree))
    saw_cycle = False
    while True:
        sc.skip_ws()
        if sc.peek() != "(":
            break
        sc.expect("(")
        points = []
        while True:
            sc.skip_ws()
            if sc.peek() == ")":
                sc.expect(")")
                break
            p = sc.integer()
            if p >= degree:
                sc.error(f"point {p} outside domain of size {degree}")
            if p in points:
                sc.error(f"point {p} repeated within a cycle")
            points.append(p)
        if not points:
            sc.error("empty cycle")
        saw_cycle = True
        cycle_map = {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}
        image = [cycle_map.get(q, q) for q in image]
    if not saw_cycle:
        sc.error("expected a cycle like (0 1)")
    return tuple(image)


def _parse_finite(sc: _Scanner) -> Finite:
    sc.skip_ws()
    k = sc.integer()
    if k < 1:
        sc.error("domain size must be at least 1")
    sc.skip_ws()
    if sc.peek() == ")":
        return Finite(FinPermGroup.trivial(k))
    mark = sc.pos
    word = sc.word()
    if word == "full-sym":
        return Finite(FinPermGroup.symmetric(k))
    if word != "gens":
        sc.pos = mark
        sc.error("expected 'full-sym' or 'gens=[...]'")
    sc.expect("=")
    sc.expect("[")
    gens = []
    sc.skip_ws()
    while sc.peek() != "]":
        gens.append(_parse_cycles(sc, k))
        sc.skip_ws()
        if sc.peek() == ",":
            sc.expect(",")
            sc.skip_ws()
            continue
        if sc.peek() != "]":
            sc.error("expected ',' or ']' in generator list")
    sc.expect("]")
    return Finite(FinPermGroup(k, tuple(gens)))


def _parse_node(sc: _Scanner) -> GroupExpr:
    sc.skip_ws()
    sc.expect("(")
    sc.skip_ws()
    head = sc.word()
    if head == "finite":
        node: GroupExpr = _parse_finite(sc)
    elif head == "prod":
        factors = []
        while True:
            sc.skip_ws()
            if sc.peek() == ")":
                break
            factors.append(_parse_node(sc))
        if len(factors) < 2:
            sc.error("prod needs at least two factors")
        node = DirectProduct(tuple(factors))
    elif head == "wr":
        node = WreathSomega(_parse_node(sc))
    else:
        sc.error(f"unknown form {head!r}; expected finite, prod or wr")
    sc.skip_ws()
    sc.expect(")")
    return node


def parse_expr(text: str) -> GroupExpr:
    """Parse the expression DSL; errors carry the character position."""
    sc = _Scanner(text)
    node = _parse_node(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input after expression")
    return node


def _perm_to_cycles(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        q = perm[start]
        while q != start:
            cycle.append(q)
            seen[q] = True
            q = perm[q]
        out.append("(" + " ".join(str(p) for p in cycle) + ")")
    return "".join(out) if out else "(0)"


def format_expr(expr: GroupExpr) -> str:
    """Render an AST back into the DSL (inverse of parse_expr)."""
    if isinstance(expr, Finite):
        g = expr.group
        if not g.generators:
            return f"(finite {g.degree})"
        gens = ", ".join(_perm_to_cycles(p) for p in g.generators)
        return f"(finite {g.degree} gens=[{gens}])"
    if isinstance(expr, DirectProduct):
        return "(prod " + " ".join(format_expr(f) for f in expr.factors) + ")"
    if isinstance(expr, WreathSomega):
        return f"(wr {format_expr(expr.base)})"
    raise TypeError(f"not a group expression: {expr!r}")


def truncate_expr(expr: GroupExpr, m: int) -> FinPermGroup:
    """Finite stand-in for an expression: wreath layers become wreaths
    with the symmetric group on m copies.

    Finite leaves pass through; a product acts on the disjoint union of
    its factors' domains; a wreath layer with base domain b yields the
    group on b*m points (point p of copy c sits at c*b + p) generated by
    the base generators on copy 0 plus a copy swap and a copy m-cycle.
    Those copy permutations together with one embedded copy of the base
    group generate the full wreath product.
    """
    if m < 1:
        raise ValueError("truncation level m must be at least 1")
    if isinstance(expr, Finite):
        return expr.group
    if isinstance(expr, DirectProduct):
        parts = [truncate_expr(child, m) for child in expr.factors]
        degree = sum(p.degree for p in parts)
        if degree > MAX_TRUNC_DEGREE:
            raise CapacityError(f"truncated domain {degree} exceeds cap {MAX_TRUNC_DEGREE}")
        gens: list[tuple[int, ...]] = []
        offset = 0
        for part in parts:
            for g in part.generators:
                image = list(range(degree))
                for p, q in enumerate(g):
                    image[offset + p] = offset + q
                gens.append(tuple(image))
            offset += part.degree
        return FinPermGroup(degree, tuple(gens))
    if isinstance(expr, WreathSomega):
        base = truncate_expr(expr.base, m)
        b = base.degree
        degree = b * m
        if degree > MAX_TRUNC_DEGREE:
            raise CapacityError(f"truncated domain {degree} exceeds cap {MAX_TRUNC_DEGREE}")
        gens = []
        for g in base.generators:
            image = list(range(degree))
            for p, q in enumerate(g):
                image[p] = q
            gens.append(tuple(image))
        if m >= 2:
            swap = list(range(degree))
            for p in range(b):
                swap[p], swap[b + p] = b + p, p
            gens.append(tuple(swap))
        if m >= 3:
            cycle = [((c + 1) % m) * b + p for c in range(m) for p in range(b)]
            gens.append(tuple(cycle))
        return FinPermGroup(degree, tuple(gens))
    raise TypeError(f"not a group expression: {expr!r}")


def _stirling_power(h: IntSeq, k: int) -> IntSeq:
    for _ in range(k):
        h = stirling_transform(h)
    return h


def _expr_seq(expr: GroupExpr, n_max: int, budget: int) -> tuple[IntSeq, int]:
    if isinstance(expr, Finite):
        return IntSeq(count_orbits_injective(expr.group, n_max, budget=budget).counts), 0
    if isinstance(expr, DirectProduct):
        parts = [_expr_seq(f, n_max, budget) for f in expr.factors]
        k = min(level for _, level in parts)
        return reduce(binomial_convolution, (_stirling_power(h, j - k) for h, j in parts)), k
    if isinstance(expr, WreathSomega):
        h, k = _expr_seq(expr.base, n_max, budget)
        return (h, k + 1) if is_one_point(h.values) else (exp_shift(h), k)
    raise TypeError(f"not a group expression: {expr!r}")


def eval_lseq(expr: GroupExpr, n_max: int, *, budget: int = DEFAULT_TUPLE_BUDGET) -> IntSeq:
    """Injective-tuple growth sequence l_0..l_{n_max} of the expression.

    Exact for the group the expression generates.  Each subexpression
    is an integer prefix h with a level k, standing for l = St^k(h), St
    the stirling_transform, which commutes with both steps below; the
    root applies St k times.  A leaf is (orbit counts, 0).  A wreath
    maps (p, k) to (p, k + 1) for the one point p = (1, 1, 0, ...), as
    exp_shift(p) = St(p), and any other (h, k) to (exp_shift(h), k).  A
    product lifts each factor by St to the least k among them and takes
    the binomial_convolution there.  ``budget`` is the tuple budget of
    each leaf count (count_orbits_injective); a leaf over it raises
    CapacityError.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return _stirling_power(*_expr_seq(expr, n_max, budget))


def gap_verdict(
    expr: GroupExpr,
    n_max: int,
    *,
    cell_grid: Sequence[tuple[Rational, Rational]] | None = None,
    c_grid: Sequence[Rational] | None = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> list[BoundReport]:
    """Classification-driven growth-bound checks on the l-prefix.

    finite expressions get no checks (their growth is eventually zero);
    cellular ones get a cellular-bound pass over the (c, d) grid; msnc
    ones get the Bell lower bound plus one factorial-upper check per c.
    ``budget`` is the tuple budget of the leaf counts, as in eval_lseq.
    """
    if n_max < 10:
        raise ValueError("gap_verdict needs n_max of at least 10")
    kind = classify(expr)
    if kind == CLASS_FINITE:
        return []
    seq = eval_lseq(expr, n_max, budget=budget)
    if kind == CLASS_CELLULAR:
        return [check_bounds(seq, "cellular-bound", grid=cell_grid or DEFAULT_CELL_GRID)]
    reports = [check_bounds(seq, "bell-lower")]
    for c in c_grid or DEFAULT_C_GRID:
        reports.append(check_bounds(seq, "factorial-upper", c=c))
    return reports
