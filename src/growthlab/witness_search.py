"""Search for order and coding witnesses in finite relations.

An order witness of size n in a binary relation D consists of
sequences a_1..a_n and b_1..b_n with (a_i, b_j) in D exactly when
i < j.  A coding witness of size m in a (2k+1)-ary relation consists
of k-tuple sequences x_1..x_m and y_1..y_m together with m^2 distinct
points z_ij such that, restricted to Z = {z_ij}, the fiber over
(x_i, y_j) is exactly {z_ij}.

Searches are exact backtracking with a node budget and a counting
look-ahead at every node; results are three-valued so an exhausted
budget is reported as indeterminate rather than as absence.  One
coding search serves every side width k (k = 1 for ternary
relations): it holds sides as indices into the sorted distinct
k-tuple projections, and fibers and private sets as bitsets over the
universe.  The verifiers test raw tuple membership
and share no machinery with the searchers.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import or_
from typing import Union

from .errors import DEFAULT_NODE_BUDGET, ParseError, numbered_lines
from .record import Record

STATUS_FOUND = "found"
STATUS_NONE = "none"
STATUS_INDETERMINATE = "indeterminate"


class _BudgetHit(Exception):
    pass


class FinRelation(Record):
    """A finite relation: a set of arity-tuples over 0..universe-1."""

    universe: int
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.universe < 1:
            raise ValueError("universe must be non-empty")
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        tuples = frozenset(tuple(map(int, t)) for t in self.tuples)
        values = list(chain.from_iterable(tuples))
        # bulk checks; the loop runs only to name the first bad tuple
        if set(map(len, tuples)) - {self.arity} or values and not (
            0 <= min(values) <= max(values) < self.universe
        ):
            for t in tuples:
                if len(t) != self.arity:
                    raise ValueError(f"tuple {t} has length {len(t)}, arity is {self.arity}")
                for v in t:
                    if not 0 <= v < self.universe:
                        raise ValueError(f"tuple {t} leaves the universe 0..{self.universe - 1}")
        object.__setattr__(self, "tuples", tuples)


class OrderWitness(Record):
    """Sequences realising the i < j edge pattern."""

    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(v) for v in self.a_seq)
        b = tuple(int(v) for v in self.b_seq)
        if not a or len(a) != len(b):
            raise ValueError("sides must be non-empty and of equal length")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("each side must consist of distinct points")
        object.__setattr__(self, "a_seq", a)
        object.__setattr__(self, "b_seq", b)

    @property
    def size(self) -> int:
        return len(self.a_seq)


class CodingWitness(Record):
    """An m x m grid of private points indexed by two k-tuple sides.

    Side entries are always tuples, even for k = 1.  The table is an
    m x m matrix whose entries are exactly z_points, each used once.
    """

    x_side: tuple[tuple[int, ...], ...]
    y_side: tuple[tuple[int, ...], ...]
    z_points: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.x_side)
        if m < 1 or len(self.y_side) != m:
            raise ValueError("sides must be non-empty and of equal length")
        k = len(self.x_side[0])
        for side in (self.x_side, self.y_side):
            for t in side:
                if len(t) != k:
                    raise ValueError("all side entries must be tuples of one width")
        if len(set(self.x_side)) != m or len(set(self.y_side)) != m:
            raise ValueError("each side must consist of distinct tuples")
        if len(self.table) != m or any(len(row) != m for row in self.table):
            raise ValueError(f"table must be {m} x {m}")
        flat = [v for row in self.table for v in row]
        if len(set(flat)) != m * m:
            raise ValueError("table entries must be pairwise distinct")
        if sorted(flat) != sorted(self.z_points) or len(self.z_points) != m * m:
            raise ValueError("z_points must list exactly the table entries")

    @property
    def size(self) -> int:
        return len(self.x_side)

    @property
    def width(self) -> int:
        return len(self.x_side[0])


Witness = Union[OrderWitness, CodingWitness]


class SearchResult(Record):
    """Outcome of a witness search.

    status is found, none, or indeterminate.  none means the search
    space was exhausted or ruled out by the counting bound;
    indeterminate means the node budget ran out first.  nodes is the
    number of candidate placements tried.
    """

    status: str
    witness: Witness | None
    nodes: int

    def __post_init__(self):
        if self.status not in (STATUS_FOUND, STATUS_NONE, STATUS_INDETERMINATE):
            raise ValueError(f"unknown status {self.status!r}")
        if (self.witness is not None) != (self.status == STATUS_FOUND):
            raise ValueError("a witness accompanies exactly the found status")


# ---------------------------------------------------------------------------
# verifiers: raw membership tests only
# ---------------------------------------------------------------------------


def verify_order_witness(rel: FinRelation, w: OrderWitness) -> bool:
    if rel.arity != 2:
        return False
    n = w.size
    for i in range(n):
        for j in range(n):
            if ((w.a_seq[i], w.b_seq[j]) in rel.tuples) != (i < j):
                return False
    return True


def verify_coding_witness(rel: FinRelation, w: CodingWitness) -> bool:
    m, k = w.size, w.width
    if rel.arity != 2 * k + 1:
        return False
    zset = set(w.z_points)
    if len(zset) != m * m:
        return False
    for i in range(m):
        for j in range(m):
            for z in zset:
                member = w.x_side[i] + w.y_side[j] + (z,) in rel.tuples
                if member != (z == w.table[i][j]):
                    return False
    return True


# ---------------------------------------------------------------------------
# order witness search
# ---------------------------------------------------------------------------


def find_order_witness(
    rel: FinRelation, n: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchResult:
    """Backtracking search for an order witness of size n.

    Vertices interleave a_0, b_0, a_1, b_1, ... so every placement is
    checked against all placed points of the other side; candidate sets
    are bitsets over the universe and candidates are tried in ascending
    order, so the found witness is the lexicographically least one in
    placement order.  Distinctness inside each side needs no explicit
    check: a repeated point would have to be on both sides of one
    membership constraint.

    ``none`` means the space was exhausted or ruled out by the counting
    bound: the n - i distinct points a_i..a_{n-1} lie in the candidate
    set of a_i, and b_{i+1}..b_{n-1} lie in the intersection of
    row[a_j] over j <= i, so a node where either set is too small fails
    at once.
    """
    if rel.arity != 2:
        raise ValueError(f"order witnesses need a binary relation, got arity {rel.arity}")
    if n < 1:
        raise ValueError("witness size must be at least 1")
    row = [0] * rel.universe
    col = [0] * rel.universe
    for x, y in rel.tuples:
        row[x] |= 1 << y
        col[y] |= 1 << x
    full = (1 << rel.universe) - 1
    a_img = [0] * n
    b_img = [0] * n
    nodes = 0

    def rec(pos: int) -> bool:
        nonlocal nodes
        if pos == 2 * n:
            return True
        i = pos // 2
        if pos % 2 == 0:
            cand = full
            for j in range(i):
                cand &= full & ~col[b_img[j]]
            if cand.bit_count() < n - i:
                return False
        else:
            common = full
            for j in range(i):
                common &= row[a_img[j]]
            if (common & row[a_img[i]]).bit_count() < n - i - 1:
                return False
            cand = common & ~row[a_img[i]]
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if nodes > node_budget:
                raise _BudgetHit
            v = low.bit_length() - 1
            if pos % 2 == 0:
                a_img[i] = v
            else:
                b_img[i] = v
            if rec(pos + 1):
                return True
        return False

    try:
        found = rec(0)
    except _BudgetHit:
        return SearchResult(STATUS_INDETERMINATE, None, nodes)
    if not found:
        return SearchResult(STATUS_NONE, None, nodes)
    w = OrderWitness(tuple(a_img), tuple(b_img))
    assert verify_order_witness(rel, w)
    return SearchResult(STATUS_FOUND, w, nodes)


# ---------------------------------------------------------------------------
# coding witness search
# ---------------------------------------------------------------------------


def find_coding_witness(
    rel: FinRelation, m: int, k: int = 1, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchResult:
    """Backtracking search for a size-m coding witness whose sides are
    k-tuples, in a (2k+1)-ary relation (ternary for the default k = 1).

    A witness needs, for every cell (i, j), a point z in the fiber over
    (x_i, y_j) lying in no other cell's fiber; such private points are
    automatically pairwise distinct, and a witness exists iff every
    cell keeps a non-empty private set, which only shrinks as cells are
    added.  Sides are indices into the sorted pools of distinct k-tuple
    projections.  The search interleaves x_0, y_0, x_1, y_1, ... with
    both sides strictly increasing (reordering a witness permutes table
    rows and columns, so this loses nothing) and prunes on an empty
    private set.  Fibers, keyed by pairs of pool indices, and private
    sets are bitsets over the universe.

    ``none`` means the space was exhausted or ruled out by the counting
    bound: the cells still to come need pairwise distinct private
    points outside every placed fiber, so a node fails at once when
    fewer than m^2 - (cells placed) points of the union of all fibers
    are left uncovered.  With fewer than m^2 points in that union the
    search answers at 0 nodes.  Each side loop also stops where too few
    pool entries remain for the rest of its increasing side.
    """
    if k < 1:
        raise ValueError("side width must be at least 1")
    if rel.arity != 2 * k + 1:
        raise ValueError(f"width-{k} coding witnesses need arity {2 * k + 1}, got {rel.arity}")
    if m < 1:
        raise ValueError("witness size must be at least 1")
    by_sides: dict[tuple[int, ...], int] = {}  # the fiber over each 2k-prefix
    for t in rel.tuples:
        sides = t[: 2 * k]
        by_sides[sides] = by_sides.get(sides, 0) | 1 << t[2 * k]
    xs_pool = sorted({s[:k] for s in by_sides})
    ys_pool = sorted({s[k:] for s in by_sides})
    if len(xs_pool) < m or len(ys_pool) < m:
        return SearchResult(STATUS_NONE, None, 0)
    x_index = {x: i for i, x in enumerate(xs_pool)}
    y_index = {y: i for i, y in enumerate(ys_pool)}
    # fibers keyed by pairs of pool indices, and their union
    fiber = {(x_index[s[:k]], y_index[s[k:]]): mask for s, mask in by_sides.items()}
    zall = reduce(or_, fiber.values(), 0)
    x_img = [0] * m
    y_img = [0] * m
    nodes = 0

    def rec(pos: int, privates: dict[tuple[int, int], int], covered: int):
        nonlocal nodes
        if pos == 2 * m:
            return privates
        if (zall & ~covered).bit_count() < m * m - len(privates):
            return None
        on_x = pos % 2 == 0
        idx = pos // 2
        img = x_img if on_x else y_img
        first = img[idx - 1] + 1 if idx > 0 else 0
        last = len(xs_pool if on_x else ys_pool) - (m - 1 - idx)
        for v in range(first, last):
            nodes += 1
            if nodes > node_budget:
                raise _BudgetHit
            img[idx] = v
            if on_x:
                cells = [(idx, j) for j in range(idx)]
            else:
                cells = [(i, idx) for i in range(idx + 1)]
            nxt = dict(privates)
            cov = covered
            ok = True
            for cell in cells:
                fib = fiber.get((x_img[cell[0]], y_img[cell[1]]), 0)
                priv = fib & ~cov
                if not priv:
                    ok = False
                    break
                for other, mask in nxt.items():
                    mask &= ~fib
                    if not mask:
                        ok = False
                        break
                    nxt[other] = mask
                if not ok:
                    break
                nxt[cell] = priv
                cov |= fib
            if not ok:
                continue
            res = rec(pos + 1, nxt, cov)
            if res is not None:
                return res
        return None

    try:
        privates = rec(0, {}, 0)
    except _BudgetHit:
        return SearchResult(STATUS_INDETERMINATE, None, nodes)
    if privates is None:
        return SearchResult(STATUS_NONE, None, nodes)
    table = [[0] * m for _ in range(m)]
    for (i, j), mask in privates.items():
        low = mask & -mask
        table[i][j] = low.bit_length() - 1
    w = CodingWitness(
        tuple(xs_pool[i] for i in x_img),
        tuple(ys_pool[j] for j in y_img),
        tuple(sorted(v for r in table for v in r)),
        tuple(tuple(r) for r in table),
    )
    assert verify_coding_witness(rel, w)
    return SearchResult(STATUS_FOUND, w, nodes)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def parse_relation(text: str) -> FinRelation:
    """Parse a relation file: a header line 'a=<size> r=<arity>', then
    one tuple of integers per line.  '#' comments and blank lines are
    skipped.

    The tuple lines are validated in one pass: each is split, and
    FinRelation converts its entries to integers and checks the entry
    counts and the least and greatest entry of all of them at once.
    Only when that pass fails are the lines scanned one by one, so that
    the error names the first bad line and what is wrong with it.
    """
    lines = text.splitlines()
    for ln, line in enumerate(lines, start=1):
        header = line.strip()
        if header and not header.startswith("#"):
            break
    else:
        raise ParseError("empty relation file")
    parts = header.split()
    if len(parts) != 2 or not parts[0].startswith("a=") or not parts[1].startswith("r="):
        raise ParseError(f"line {ln}: expected 'a=<size> r=<arity>', got {header!r}", ln)
    try:
        universe = int(parts[0][2:])
        arity = int(parts[1][2:])
    except ValueError:
        raise ParseError(f"line {ln}: bad header {header!r}", ln) from None
    rows = (fields for fields in map(str.split, lines[ln:]) if fields and fields[0][0] != "#")
    try:
        return FinRelation(universe, arity, rows)
    except ValueError as exc:
        raise _first_bad_line(text, universe, arity) or ParseError(str(exc)) from None


def _first_bad_line(text: str, universe: int, arity: int) -> ParseError | None:
    """The error for the first tuple line of a relation file with the
    wrong entry count, a non-integer or an entry outside the universe,
    or None when every tuple line is sound."""
    for ln, line in numbered_lines(text)[1:]:
        fields = line.split()
        if len(fields) != arity:
            return ParseError(f"line {ln}: expected {arity} entries, got {len(fields)}", ln)
        try:
            t = tuple(int(f) for f in fields)
        except ValueError:
            return ParseError(f"line {ln}: bad tuple {line!r}", ln)
        for v in t:
            if not 0 <= v < universe:
                return ParseError(f"line {ln}: entry {v} outside 0..{universe - 1}", ln)
    return None
