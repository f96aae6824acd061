"""The benchmark's references against OEIS b-files and small brute force.

Run from the root of the repository:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import reference as ref  # noqa: E402
from workloads import DATA, _read_bfile  # noqa: E402


def _bfile_values(name: str) -> list[int]:
    entries = _read_bfile(DATA / name)
    assert sorted(entries) == list(range(len(entries)))
    return [entries[n] for n in range(len(entries))]


def test_sequences_match_the_bfiles():
    bells = _bfile_values("b000110.txt")
    assert ref.bell_numbers(len(bells) - 1) == bells
    pairs = _bfile_values("b000258.txt")
    assert ref.refinement_pairs(len(pairs) - 1) == pairs
    meets = _bfile_values("b059849.txt")
    assert ref.meet_trivial_pairs(len(meets) - 1) == meets


def _set_partitions(n: int) -> list[list[set[int]]]:
    parts: list[list[set[int]]] = [[]]
    for x in range(n):
        parts = [p[:i] + [p[i] | {x}] + p[i + 1 :] for p in parts for i in range(len(p))] + [
            p + [{x}] for p in parts
        ]
    return parts


def test_sequences_match_brute_force():
    for n in range(7):
        partitions = _set_partitions(n)
        assert ref.bell_numbers(n)[n] == len(partitions)
        involutions = [p for p in permutations(range(n)) if all(p[p[i]] == i for i in range(n))]
        assert ref.involution_numbers(n)[n] == len(involutions)
        rows = ref.stirling2_rows(n)
        for k in range(n + 1):
            assert rows[n][k] == sum(1 for p in partitions if len(p) == k)
    for n in range(5):
        partitions = _set_partitions(n)
        meet_trivial = sum(
            1
            for p, q in product(partitions, repeat=2)
            if all(len(a & b) <= 1 for a in p for b in q)
        )
        assert ref.meet_trivial_pairs(n)[n] == meet_trivial


def _brute_orbits(degree: int, gens, n: int) -> int:
    elements = ref.group_elements(degree, gens)
    tuples = permutations(range(degree), n)
    return len({min(tuple(g[p] for p in t) for g in elements) for t in tuples})


def test_leaf_and_product_growth_match_brute_orbits():
    leaves = [
        (3, ()),
        (3, ((1, 2, 0),)),
        (3, ((1, 2, 0), (1, 0, 2))),
        (4, ((1, 0, 3, 2), (2, 3, 0, 1))),
        (4, ((1, 2, 3, 0),)),
    ]
    for degree, gens in leaves:
        got = ref.leaf_growth(degree, gens, degree + 1)
        assert got == [_brute_orbits(degree, gens, n) for n in range(degree + 1)] + [0]
    # a product of two leaves is the leaf on the disjoint union
    a, b = leaves[1], leaves[3]
    joined = tuple(g + tuple(range(3, 7)) for g in a[1]) + tuple(
        tuple(range(3)) + tuple(3 + p for p in g) for g in b[1]
    )
    got = ref.expr_growth(("prod", (("finite",) + a, ("finite",) + b)), 5)
    assert got == [_brute_orbits(7, joined, n) for n in range(6)]


def test_wreath_growth_gives_the_known_sequences():
    f1 = ("finite", 1, ())
    assert ref.expr_growth(("wr", f1), 8) == [1] * 9
    assert ref.expr_growth(("wr", ("wr", f1)), 12) == ref.bell_numbers(12)
    assert ref.expr_growth(("wr", ("wr", ("wr", f1))), 12) == ref.refinement_pairs(12)
    assert ref.expr_growth(("wr", ("finite", 2, ((1, 0),))), 10) == ref.involution_numbers(10)
    f3 = ("finite", 3, ())
    assert ref.expr_growth(("wr", ("wr", f3)), 4)[4] == 3195
    assert ref.expr_growth(("wr", ("wr", ("prod", (f3, f1)))), 4)[4] == 11256


def test_stirling_transform_counts_all_tuple_orbits():
    # S_omega: one orbit per equality pattern, so s_n = B_n
    assert ref.stirling_transform([1] * 10) == ref.bell_numbers(9)


def test_bound_verdicts():
    bells = ref.bell_numbers(30)
    assert ref.bell_lower(bells) == {"pass": True}
    short = list(bells)
    short[7] -= 1
    assert ref.bell_lower(short) == {"pass": False, "first_fail": 7}
    # B_n <= n!/2^n holds from n = 35 on; B_34 * 2^34 > 34!
    assert ref.factorial_upper(ref.bell_numbers(60), Fraction(2)) == {"pass": True, "n0": 35}
    assert ref.factorial_upper(bells, Fraction(2)) == {"pass": False, "first_fail": 30}
    assert ref.factorial_upper([1] * 31, Fraction(2))["n0"] == 4
    assert ref.factorial_upper([2**n * 1000 for n in range(31)], Fraction(1)) == {"pass": True, "n0": 10}
    assert ref.factorial_upper([n**n for n in range(31)], Fraction(1))["pass"] is False
    ones = [1] * 31
    grid = [(Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(4, 5))]
    assert ref.cellular_bound(ones, grid) == {"pass": True, "c": 1, "d": Fraction(1, 2)}
    fast = [n**n for n in range(31)]
    failed = ref.cellular_bound(fast, grid)
    assert failed["pass"] is False
    # 2^2 = 4 > 1 * 2^(2/2) fails at n = 2 for the first entry; the
    # second fails where 2 n^(4n/5) drops below n^n
    assert failed["first_fail_by_entry"][grid[0]] == 2
    assert failed["first_fail_by_entry"][grid[1]] == next(
        n for n in range(2, 31) if n**n > 2 * n ** (4 * n / 5)
    )


def _brute_class_count(member, n: int) -> int:
    pairs = list(combinations(range(n), 2))
    return sum(
        1
        for bits in range(1 << len(pairs))
        if member({p for i, p in enumerate(pairs) if bits >> i & 1}, n)
    )


def _induced_in(generator, edges: set, n: int) -> bool:
    v, gen_edges = generator
    adjacent = {frozenset(e) for e in gen_edges}
    for image in permutations(range(v), n):
        if all(
            (frozenset((image[i], image[j])) in adjacent) == ((i, j) in edges)
            for i, j in combinations(range(n), 2)
        ):
            return True
    return False


def test_generated_class_count_matches_brute_force():
    half3 = (6, [(i, 3 + j) for i in range(3) for j in range(3) if i <= j])
    path4 = (4, [(0, 1), (1, 2), (2, 3)])
    for gens in ([half3], [path4], [half3, path4]):
        for n in range(1, 5):
            want = _brute_class_count(lambda e, n: any(_induced_in(g, e, n) for g in gens), n)
            assert ref.generated_class_count(gens, n) == want


def test_forbidden_classes_are_counted_by_involutions_and_bell_numbers():
    def matching(edges: set, n: int) -> bool:
        degree = [0] * n
        for u, w in edges:
            degree[u] += 1
            degree[w] += 1
        return max(degree, default=0) <= 1

    def p3_k3_free(edges: set, n: int) -> bool:
        # an induced P3 spans two edges among three vertices, a triangle three
        for a, b, c in combinations(range(n), 3):
            if len({(a, b), (a, c), (b, c)} & edges) >= 2:
                return False
        return True

    def p3_free(edges: set, n: int) -> bool:
        for a, b, c in combinations(range(n), 3):
            if len({(a, b), (a, c), (b, c)} & edges) == 2:
                return False
        return True

    for n in range(1, 6):
        assert _brute_class_count(p3_k3_free, n) == ref.involution_numbers(n)[n]
        assert _brute_class_count(matching, n) == ref.involution_numbers(n)[n]
        # P3-free graphs are disjoint unions of cliques: set partitions
        assert _brute_class_count(p3_free, n) == ref.bell_numbers(n)[n]


def test_witness_definitions():
    less = {(x, y) for x in range(6) for y in range(6) if x < y}
    assert ref.order_witness_problems(less, 3, [1, 3, 5], [0, 2, 4]) == []
    assert ref.order_witness_problems(less, 3, [1, 5, 3], [0, 2, 4]) != []
    pairing = {(x, y, 3 * x + y) for x in range(3) for y in range(3)}
    table = [[3 * x + y for y in range(2)] for x in range(2)]
    zs = sorted(z for row in table for z in row)
    assert ref.coding_witness_problems(pairing, 2, [(0,), (1,)], [(0,), (1,)], zs, table) == []
    broken = [[0, 1], [3, 5]]
    assert ref.coding_witness_problems(pairing, 2, [(0,), (1,)], [(0,), (1,)], [0, 1, 3, 5], broken) != []
