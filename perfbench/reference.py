"""Reference computations that the benchmark checks growthlab against.

Nothing here imports growthlab or shares code with it.  Every function
is written from the definition it names:

  * Bell numbers from the Bell triangle, involution numbers from
    I_n = I_{n-1} + (n-1) I_{n-2}, Stirling numbers of both kinds from
    their row recurrences.
  * The labelled growth rate l_n of a group expression from three
    pieces: Burnside's lemma at a finite leaf (the mean over the
    group's elements of the falling factorial of the fixed-point
    count), the binomial convolution at a direct product, and
    b_n = sum_{k=1..n} C(n-1, k-1) a_k b_{n-k} at a wreath layer with
    the infinite symmetric group.
  * Growth-bound verdicts recomputed from the reference sequence.
  * Labelled counts of hereditary graph classes: involution numbers for
    {P3, K3}-free graphs, and for a class given by generators the
    distinct labelled graphs obtained by relabelling the n-vertex
    induced subgraphs of each generator.
  * Order and coding witnesses checked against their definitions.

Expressions are plain tuples: ("finite", degree, generators),
("prod", (factor, ...)) and ("wr", base); a generator is an image tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial


# ---------------------------------------------------------------------------
# integer sequences
# ---------------------------------------------------------------------------


def bell_numbers(n_max: int) -> list[int]:
    """B_0..B_{n_max} from the Bell triangle: each row starts with the
    last entry of the row above, and each further entry adds the entry
    above-left; B_n is the first entry of row n."""
    row = [1]
    out = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
        out.append(row[0])
    return out


def involution_numbers(n_max: int) -> list[int]:
    """I_0..I_{n_max}: self-inverse permutations of [n], equivalently
    graphs on [n] whose components are single vertices or single edges."""
    out = [1, 1]
    for n in range(2, n_max + 1):
        out.append(out[n - 1] + (n - 1) * out[n - 2])
    return out[: n_max + 1]


def stirling2_rows(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of S(n, k), built iteratively."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    return rows


def stirling1_signed_rows(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of the signed Stirling numbers of the first kind,
    s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] - (n - 1) * prev[k] for k in range(1, n + 1)])
    return rows


def stirling_transform(seq: list[int]) -> list[int]:
    """s_n = sum_k S(n, k) l_k: orbits on all n-tuples from orbits on
    injective ones (s_0 = l_0)."""
    rows = stirling2_rows(len(seq) - 1)
    return [seq[0]] + [
        sum(rows[n][k] * seq[k] for k in range(1, n + 1)) for n in range(1, len(seq))
    ]


def refinement_pairs(n_max: int) -> list[int]:
    """A000258: pairs of set partitions (P, Q) of [n] with P refining Q,
    sum_k S(n, k) B_k."""
    bells = bell_numbers(n_max)
    rows = stirling2_rows(n_max)
    return [sum(rows[n][k] * bells[k] for k in range(n + 1)) for n in range(n_max + 1)]


def meet_trivial_pairs(n_max: int) -> list[int]:
    """A059849: pairs of set partitions of [n] whose meet is discrete.

    Pairs whose meet is at least a partition pi number B_{|pi|}^2, so by
    Moebius inversion on the partition lattice the count is
    sum_k s(n, k) B_k^2 with s the signed Stirling numbers of the first
    kind."""
    bells = bell_numbers(n_max)
    rows = stirling1_signed_rows(n_max)
    return [sum(rows[n][k] * bells[k] ** 2 for k in range(n + 1)) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# group expressions
# ---------------------------------------------------------------------------


def group_elements(degree: int, gens: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Every element of the group the generators generate, by closing
    the identity under composition with each generator."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = tuple(g[p] for p in e)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def falling_factorial(x: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= x - i
    return out


def leaf_growth(degree: int, gens, n_max: int) -> list[int]:
    """l_0..l_{n_max} of a finite permutation group by Burnside's lemma:
    an element fixes an injective n-tuple exactly when it fixes each of
    its points, so the orbit count is the mean over the elements of the
    falling factorial of their fixed-point count."""
    elements = group_elements(degree, tuple(gens))
    fixed = [sum(1 for p, q in enumerate(e) if p == q) for e in elements]
    out = []
    for n in range(n_max + 1):
        total = sum(falling_factorial(f, n) for f in fixed)
        if total % len(elements):
            raise ArithmeticError("Burnside sum is not divisible by the group order")
        out.append(total // len(elements))
    return out


def product_growth(a: list[int], b: list[int]) -> list[int]:
    """Binomial convolution: an injective tuple of a disjoint union
    splits into the positions that fall in each factor."""
    return [sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a))]


def wreath_growth(a: list[int]) -> list[int]:
    """Growth of base wr S_omega: b_0 = 1 and
    b_n = sum_{k=1..n} C(n-1, k-1) a_k b_{n-k}, choosing the k - 1
    positions that share a copy of the base with position 1."""
    b = [1]
    for n in range(1, len(a)):
        b.append(sum(comb(n - 1, k - 1) * a[k] * b[n - k] for k in range(1, n + 1)))
    return b


def expr_growth(expr, n_max: int) -> list[int]:
    """l_0..l_{n_max} of a group expression."""
    return list(_expr_growth(expr, n_max))


@lru_cache(maxsize=None)
def _expr_growth(expr, n_max: int) -> tuple[int, ...]:
    head = expr[0]
    if head == "finite":
        return tuple(leaf_growth(expr[1], expr[2], n_max))
    if head == "prod":
        seq = list(_expr_growth(expr[1][0], n_max))
        for factor in expr[1][1:]:
            seq = product_growth(seq, list(_expr_growth(factor, n_max)))
        return tuple(seq)
    if head == "wr":
        return tuple(wreath_growth(list(_expr_growth(expr[1], n_max))))
    raise ValueError(f"not an expression: {expr!r}")


def expr_degree(expr) -> int | None:
    """Domain size of the expression's group, None when infinite."""
    if expr[0] == "finite":
        return expr[1]
    if expr[0] == "prod":
        sizes = [expr_degree(f) for f in expr[1]]
        return None if None in sizes else sum(sizes)
    return None


def classification(expr) -> str:
    """finite (no wreath layer), cellular (every wreath layer over a
    finite domain) or msnc (some wreath layer over an infinite one)."""
    bases = []

    def walk(e):
        if e[0] == "prod":
            for f in e[1]:
                walk(f)
        elif e[0] == "wr":
            bases.append(e[1])
            walk(e[1])

    walk(expr)
    if not bases:
        return "finite"
    if all(expr_degree(b) is not None for b in bases):
        return "cellular"
    return "msnc"


def cycles_text(perm: tuple[int, ...]) -> str:
    """Cycle notation of a non-identity permutation, 0-based."""
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        q = perm[start]
        while q != start:
            cycle.append(q)
            seen.add(q)
            q = perm[q]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out)


def expr_text(expr) -> str:
    """The expression in growthlab's expression language."""
    if expr[0] == "finite":
        degree, gens = expr[1], expr[2]
        if not gens:
            return f"(finite {degree})"
        return f"(finite {degree} gens=[" + ", ".join(cycles_text(g) for g in gens) + "])"
    if expr[0] == "prod":
        return "(prod " + " ".join(expr_text(f) for f in expr[1]) + ")"
    return f"(wr {expr_text(expr[1])})"


# ---------------------------------------------------------------------------
# growth bounds
# ---------------------------------------------------------------------------


def bell_lower(seq: list[int]) -> dict:
    """l_n >= B_n for 1 <= n <= N; on failure the least violating n."""
    bells = bell_numbers(len(seq) - 1)
    for n in range(1, len(seq)):
        if seq[n] < bells[n]:
            return {"pass": False, "first_fail": n}
    return {"pass": True}


def factorial_upper(seq: list[int], c: Fraction) -> dict:
    """Some n0 <= N with l_n <= n!/c^n for n0 <= n <= N; the least n0.

    l_n <= n!/c^n is tested as l_n * num^n <= n! * den^n."""
    top = len(seq) - 1
    holds = [seq[n] * c.numerator**n <= factorial(n) * c.denominator**n for n in range(top + 1)]
    if not holds[top]:
        return {"pass": False, "first_fail": top}
    n0 = top
    while n0 > 0 and holds[n0 - 1]:
        n0 -= 1
    return {"pass": True, "n0": n0}


def cellular_first_fail(seq: list[int], c: Fraction, d: Fraction) -> int | None:
    """Least n in 2..N with l_n > c n^(d n), or None.

    With d = p/q the test is l_n^q > c^q n^(p n), in integers."""
    p, q = d.numerator, d.denominator
    for n in range(2, len(seq)):
        if seq[n] ** q * c.denominator**q > c.numerator**q * n ** (p * n):
            return n
    return None


def cellular_bound(seq: list[int], grid) -> dict:
    """Pass when some (c, d) with d < 1 bounds l_n <= c n^(d n) on
    2..N; report the passing entry of least d, then least c.  On failure
    report, per entry, where it first fails."""
    entries = [(Fraction(c), Fraction(d)) for c, d in grid if Fraction(d) < 1]
    fails = {(c, d): cellular_first_fail(seq, c, d) for c, d in entries}
    passing = [(d, c) for (c, d), at in fails.items() if at is None]
    if passing:
        d, c = min(passing)
        return {"pass": True, "c": c, "d": d}
    return {"pass": False, "first_fail_by_entry": fails}


# ---------------------------------------------------------------------------
# graph classes
# ---------------------------------------------------------------------------


def generated_class_count(generators, n: int) -> int:
    """Labelled graphs on [n] that are isomorphic to an induced subgraph
    of some generator.  Each generator is (v, edges).  Every n-subset of
    a generator's vertices gives an edge pattern on positions 0..n-1;
    the members are the distinct images of those patterns under all n!
    relabellings, each stored as a frozenset of edges."""
    patterns = set()
    for v, edges in generators:
        adjacent = {frozenset(e) for e in edges}
        for subset in combinations(range(v), n):
            patterns.add(
                frozenset(
                    (i, j)
                    for i, j in combinations(range(n), 2)
                    if frozenset((subset[i], subset[j])) in adjacent
                )
            )
    members = set()
    for pattern in patterns:
        for perm in permutations(range(n)):
            members.add(frozenset(frozenset((perm[i], perm[j])) for i, j in pattern))
    return len(members)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def order_witness_problems(pairs: set, size: int, a_seq, b_seq) -> list[str]:
    """Why (a, b) is not an order witness of the given size in the
    binary relation: (a_i, b_j) must be in it exactly when i < j, and
    each side must consist of distinct points."""
    problems = []
    if len(a_seq) != size or len(b_seq) != size:
        problems.append(f"witness sides have lengths {len(a_seq)}, {len(b_seq)}, not {size}")
    if len(set(a_seq)) != len(a_seq) or len(set(b_seq)) != len(b_seq):
        problems.append("a side repeats a point")
    for i, a in enumerate(a_seq):
        for j, b in enumerate(b_seq):
            if ((a, b) in pairs) != (i < j):
                problems.append(f"pair ({a}, {b}) at ({i}, {j}) breaks the order pattern")
                return problems
    return problems


def coding_witness_problems(triples: set, size: int, x_side, y_side, z_points, table) -> list[str]:
    """Why the grid is not a coding witness of the given size in the
    ternary relation: the m^2 table points are distinct, and restricted
    to them the fiber over (x_i, y_j) is exactly {table[i][j]}."""
    problems = []
    m = size
    if len(x_side) != m or len(y_side) != m or len(table) != m:
        return [f"witness is not {m} x {m}"]
    if any(len(row) != m for row in table):
        return [f"table is not {m} x {m}"]
    if len(set(map(tuple, x_side))) != m or len(set(map(tuple, y_side))) != m:
        problems.append("a side repeats a point")
    flat = [z for row in table for z in row]
    if len(set(flat)) != m * m:
        problems.append("table points are not distinct")
    if sorted(flat) != sorted(z_points):
        problems.append("z_points differ from the table entries")
    zs = set(flat)
    for i, x in enumerate(x_side):
        for j, y in enumerate(y_side):
            fiber = {z for z in zs if tuple(x) + tuple(y) + (z,) in triples}
            if fiber != {table[i][j]}:
                problems.append(f"fiber over cell ({i}, {j}) is {sorted(fiber)}, not [{table[i][j]}]")
                return problems
    return problems
