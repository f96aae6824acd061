"""Order and coding witness searches with certified three-valued results."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import Budget, CodingWitness, FinRelation, OrderWitness, ParseError, SearchResult
from growthlab import find_coding_witness, find_order_witness
from growthlab import parse_relation, verify_coding_witness, verify_order_witness
from growthlab.witness_search import STATUS_FOUND, STATUS_INDETERMINATE, STATUS_NONE

import oracles


def less_rel(t: int) -> FinRelation:
    return FinRelation(t, 2, frozenset((i, j) for i in range(t) for j in range(t) if i < j))


def pairing_rel(m: int) -> FinRelation:
    return FinRelation(
        m * m, 3, frozenset((x, y, m * x + y) for x in range(m) for y in range(m))
    )


EQ5 = FinRelation(5, 2, frozenset((i, i) for i in range(5)))
EMPTY2 = FinRelation(6, 2, frozenset())
EMPTY3 = FinRelation(6, 3, frozenset())


@st.composite
def binary_relations(draw, max_u=5):
    u = draw(st.integers(min_value=1, max_value=max_u))
    pairs = [(i, j) for i in range(u) for j in range(u)]
    tuples = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return FinRelation(u, 2, frozenset(tuples))


@st.composite
def ternary_relations(draw, max_u=4):
    u = draw(st.integers(min_value=2, max_value=max_u))
    triples = [(i, j, k) for i in range(u) for j in range(u) for k in range(u)]
    tuples = draw(st.sets(st.sampled_from(triples), max_size=12))
    return FinRelation(u, 3, frozenset(tuples))


@st.composite
def coding_relations(draw):
    """A (2k+1)-ary relation for k in {1, 2} with at most 12 tuples,
    whose sides come from two small pools of k-tuples so that fibers
    share sides often.  Half of them hold a planted 2 x 2 grid on a
    universe of 4, the fewest points such a grid needs."""
    k = draw(st.sampled_from((1, 2)))
    planted = draw(st.booleans())
    u = 4 if planted else draw(st.integers(min_value=2, max_value=4))
    side = st.tuples(*[st.integers(min_value=0, max_value=u - 1)] * k)
    pool = st.lists(side, min_size=1 + planted, max_size=3, unique=True)
    xs, ys = draw(pool), draw(pool)
    cells = [x + y + (z,) for x in xs for y in ys for z in range(u)]
    tuples = draw(st.sets(st.sampled_from(cells), max_size=8))
    if planted:
        zs = draw(st.permutations(range(4)))
        tuples |= {xs[i] + ys[j] + (zs[2 * i + j],) for i in (0, 1) for j in (0, 1)}
    return FinRelation(u, 2 * k + 1, frozenset(tuples)), k


# ---------------------------------------------------------------------------
# Data types


def test_relation_validation():
    with pytest.raises(ValueError):
        FinRelation(3, 2, frozenset({(0, 1, 2)}))  # arity mismatch
    with pytest.raises(ValueError):
        FinRelation(3, 2, frozenset({(0, 5)}))  # point outside universe
    with pytest.raises(ValueError):
        FinRelation(0, 2, frozenset())


@pytest.mark.parametrize(
    "tuples, message",
    [
        (frozenset({(0, 1), (1, 2, 0)}), "tuple (1, 2, 0) has length 3, arity is 2"),
        (frozenset({(0, 1), (2, 3)}), "tuple (2, 3) leaves the universe 0..2"),
        (frozenset({(0, -1)}), "tuple (0, -1) leaves the universe 0..2"),
        ({(0, 1), (2,)}, "tuple (2,) has length 1, arity is 2"),
        ([(1, 0), (0, 7)], "tuple (0, 7) leaves the universe 0..2"),
    ],
)
def test_relation_rejects_a_bad_tuple_by_name(tuples, message):
    with pytest.raises(ValueError) as exc_info:
        FinRelation(3, 2, tuples)
    assert str(exc_info.value) == message


def test_relation_converts_entries_to_int_tuples():
    rel = FinRelation(3, 2, [[True, 2], (1.0, 0)])
    assert rel.tuples == frozenset({(1, 2), (1, 0)})
    assert type(rel.tuples) is frozenset
    assert {type(v) for t in rel.tuples for v in t} == {int}
    assert {type(t) for t in rel.tuples} == {tuple}


def test_order_witness_validation():
    OrderWitness((0, 1), (2, 3))
    with pytest.raises(ValueError):
        OrderWitness((0, 1), (2,))  # length mismatch
    with pytest.raises(ValueError):
        OrderWitness((0, 0), (1, 2))  # repeat within a side
    with pytest.raises(ValueError):
        OrderWitness((), ())


def test_coding_witness_validation():
    CodingWitness(((0,), (1,)), ((2,), (3,)), (4, 5, 6, 7), ((4, 5), (6, 7)))
    with pytest.raises(ValueError):
        CodingWitness(((0,),), ((1,), (2,)), (3, 4), ((3, 4),))  # ragged
    with pytest.raises(ValueError):
        CodingWitness(((0,), (1,)), ((2,), (3,)), (4, 5, 6, 4), ((4, 5), (6, 4)))


def test_search_result_validation():
    with pytest.raises(ValueError):
        SearchResult(STATUS_FOUND, None, 3)
    with pytest.raises(ValueError):
        SearchResult(STATUS_NONE, OrderWitness((0,), (1,)), 3)
    with pytest.raises(ValueError):
        SearchResult("maybe", None, 3)


# ---------------------------------------------------------------------------
# Order witnesses


def test_strict_order_has_witness_of_full_size():
    for t in (2, 3, 4, 5):
        r = find_order_witness(less_rel(t), t)
        assert r.status == STATUS_FOUND
        assert verify_order_witness(less_rel(t), r.witness)


def test_strict_order_witness_cannot_exceed_universe():
    for t in (2, 3, 4):
        assert find_order_witness(less_rel(t), t + 1).status == STATUS_NONE


def test_order_witness_lexicographically_least():
    r = find_order_witness(less_rel(10), 3)
    assert r.witness == OrderWitness((0, 1, 2), (0, 1, 2))


def test_equality_relation_has_size_two_witness_only():
    assert find_order_witness(EQ5, 2).status == STATUS_FOUND
    assert find_order_witness(EQ5, 3).status == STATUS_NONE


def test_empty_relation_order():
    assert find_order_witness(EMPTY2, 1).status == STATUS_FOUND
    assert find_order_witness(EMPTY2, 2).status == STATUS_NONE


def test_order_budget_exhaustion_is_indeterminate():
    budget = Budget(2)
    r = find_order_witness(less_rel(10), 5, budget=budget)
    assert r.status == STATUS_INDETERMINATE
    assert r.witness is None
    # the node that overshot is counted, in the result and in the budget
    assert r.nodes == budget.spent == 3


def test_searches_spend_one_budget_in_turn():
    budget = Budget(10**6)
    first = find_order_witness(less_rel(10), 5, budget=budget)
    second = find_coding_witness(pairing_rel(3), 3, budget=budget)
    assert first.status == second.status == STATUS_FOUND
    assert first.nodes > 0 and second.nodes > 0
    assert budget.spent == first.nodes + second.nodes
    # a budget too small for the second search leaves it indeterminate,
    # with the nodes it tried on top of the first search's
    budget = Budget(first.nodes + 1)
    assert find_order_witness(less_rel(10), 5, budget=budget).status == STATUS_FOUND
    second = find_coding_witness(pairing_rel(3), 3, budget=budget)
    assert second.status == STATUS_INDETERMINATE
    assert second.nodes == 2
    assert budget.spent == first.nodes + 2


def test_order_rejects_bad_arity():
    with pytest.raises(ValueError):
        find_order_witness(pairing_rel(2), 1)
    with pytest.raises(ValueError):
        find_order_witness(less_rel(3), 0)


@given(binary_relations(), st.integers(min_value=1, max_value=3))
@settings(deadline=None, max_examples=60)
def test_order_search_matches_brute_existence(rel, n):
    r = find_order_witness(rel, n)
    want = oracles.brute_order_witness_exists(rel.universe, rel.tuples, n)
    assert (r.status == STATUS_FOUND) == want
    if r.status == STATUS_FOUND:
        assert verify_order_witness(rel, r.witness)


def test_verifier_rejects_wrong_order_witness():
    w = OrderWitness((1, 0), (0, 1))
    assert not verify_order_witness(less_rel(4), w)


# ---------------------------------------------------------------------------
# Coding witnesses


def test_pairing_relation_has_full_coding_witness():
    for m in (2, 3):
        r = find_coding_witness(pairing_rel(3), m)
        assert r.status == STATUS_FOUND
        assert verify_coding_witness(pairing_rel(3), r.witness)
        assert r.witness.size == m


def test_pairing_relation_coding_capped_by_z_count():
    # A 4x4 grid needs 16 distinct private points; universe 9 cannot host it.
    assert find_coding_witness(pairing_rel(3), 4).status == STATUS_NONE


def test_empty_ternary_has_no_coding_witness():
    assert find_coding_witness(EMPTY3, 1).status == STATUS_NONE


def test_coding_budget_exhaustion_is_indeterminate():
    r = find_coding_witness(pairing_rel(3), 3, budget=Budget(1))
    assert r.status == STATUS_INDETERMINATE


def test_coding_rejects_bad_arity():
    with pytest.raises(ValueError):
        find_coding_witness(less_rel(3), 1)


@given(ternary_relations(), st.integers(min_value=1, max_value=2))
@settings(deadline=None, max_examples=60)
def test_coding_search_matches_brute_existence(rel, m):
    r = find_coding_witness(rel, m)
    want = oracles.brute_coding_witness_exists(rel.universe, rel.tuples, m)
    assert (r.status == STATUS_FOUND) == want
    if r.status == STATUS_FOUND:
        assert verify_coding_witness(rel, r.witness)


def test_coding_monotone_in_size():
    # A witness of size m restricts to one of size m-1.
    for m in (3, 2):
        assert find_coding_witness(pairing_rel(3), m).status == STATUS_FOUND


def test_verifier_rejects_swapped_table():
    r = find_coding_witness(pairing_rel(3), 2)
    w = r.witness
    bad = CodingWitness(
        w.x_side,
        w.y_side,
        w.z_points,
        (tuple(reversed(w.table[0])), w.table[1]),
    )
    assert not verify_coding_witness(pairing_rel(3), bad)


# ---------------------------------------------------------------------------
# Tuple coding


@given(coding_relations(), st.integers(min_value=1, max_value=2))
@settings(deadline=None, max_examples=80)
def test_coding_search_matches_brute_existence_any_width(rel_k, m):
    rel, k = rel_k
    r = find_coding_witness(rel, m, k)
    want = oracles.brute_coding_witness_exists(rel.universe, rel.tuples, m, k)
    assert (r.status == STATUS_FOUND) == want
    if r.status == STATUS_FOUND:
        assert r.witness.width == k
        assert verify_coding_witness(rel, r.witness)


def test_tuple_coding_pairs_example():
    # Arity 5 = 2+2+1: a 2x2 grid coded by pairs of points.
    tuples = set()
    xs = [(0, 0), (1, 1)]
    ys = [(0, 1), (1, 0)]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            tuples.add(x + y + (2 * i + j,))
    rel = FinRelation(4, 5, frozenset(tuples))
    r = find_coding_witness(rel, 2, 2)
    assert r.status == STATUS_FOUND
    assert r.witness.width == 2


def test_tuple_coding_rejects_incompatible_arity():
    with pytest.raises(ValueError):
        find_coding_witness(pairing_rel(2), 1, 2)  # arity 3 != 2k+1 for k=2


def test_tuple_coding_none_on_empty():
    rel = FinRelation(3, 5, frozenset())
    assert find_coding_witness(rel, 1, 2).status == STATUS_NONE


# ---------------------------------------------------------------------------
# Pinned witnesses and node ceilings on seeded relations


def random_relation(seed: int, universe: int, arity: int, density: float) -> FinRelation:
    rng = random.Random(seed)
    tuples = itertools.product(range(universe), repeat=arity)
    return FinRelation(universe, arity, frozenset(t for t in tuples if rng.random() < density))


def planted_coding(seed: int, universe: int, m: int, density: float) -> FinRelation:
    """A ternary relation holding a planted m x m coding witness; the
    other triples are present with the given density, except those that
    would put a planted point into another cell's fiber."""
    rng = random.Random(seed)
    points = rng.sample(range(universe), 2 * m + m * m)
    xs, ys, zs = points[:m], points[m : 2 * m], points[2 * m :]
    cell = {(x, y): zs[i * m + j] for i, x in enumerate(xs) for j, y in enumerate(ys)}
    tuples = set()
    for x, y, z in itertools.product(range(universe), repeat=3):
        if (x, y) in cell and z in zs:
            keep = z == cell[x, y]
        else:
            keep = rng.random() < density
        if keep:
            tuples.add((x, y, z))
    return FinRelation(universe, 3, frozenset(tuples))


def few_points(seed: int, universe: int, z_values: int, density: float) -> FinRelation:
    """A ternary relation whose third coordinate takes z_values values."""
    rng = random.Random(seed)
    zs = rng.sample(range(universe), z_values)
    tuples = itertools.product(range(universe), range(universe), zs)
    return FinRelation(universe, 3, frozenset(t for t in tuples if rng.random() < density))


# (seed, universe, density, n, witness or None, nodes of the search
# without the counting bound); every witness is the lexicographically
# least one, so pruning must leave it in place
ORDER_PINS = [
    (1, 14, 0.5, 3, ((0, 1, 11), (1, 3, 5)), 8),
    (2, 14, 0.5, 4, ((0, 4, 1, 6), (0, 2, 13, 7)), 41),
    (3, 16, 0.6, 5, ((0, 3, 7, 1, 11), (10, 6, 13, 0, 11)), 1368),
    (4, 12, 0.5, 5, ((0, 4, 3, 6, 1), (6, 3, 4, 5, 9)), 215),
    (5, 24, 0.5, 6, ((0, 8, 1, 13, 15, 12), (0, 23, 6, 12, 17, 18)), 1026),
    (6, 24, 0.5, 8, ((2, 21, 5, 3, 16, 11, 15, 13), (18, 13, 21, 7, 16, 19, 1, 10)), 639589),
    (7, 24, 0.6, 8, None, 1385692),
]


@pytest.mark.parametrize("seed, universe, density, n, want, unpruned", ORDER_PINS)
def test_order_witness_pinned(seed, universe, density, n, want, unpruned):
    r = find_order_witness(random_relation(seed, universe, 2, density), n)
    if want is None:
        assert r.status == STATUS_NONE
    else:
        assert r.status == STATUS_FOUND
        assert (r.witness.a_seq, r.witness.b_seq) == want
    assert r.nodes <= unpruned


# (relation, m, (x side, y side, table) or None, unpruned nodes)
CODING_PINS = [
    (planted_coding(11, 12, 2, 0.1), 2, ((0, 1), (0, 2), ((4, 11), (1, 8))), 5),
    (
        planted_coding(12, 16, 3, 0.1), 3,
        ((0, 6, 12), (0, 2, 15), ((13, 3, 0), (2, 5, 1), (4, 11, 15))), 94,
    ),
    (
        planted_coding(13, 24, 4, 0.05), 4,
        (
            (3, 5, 20, 21), (3, 19, 20, 22),
            ((6, 22, 5, 20), (14, 12, 17, 7), (18, 2, 15, 11), (4, 16, 10, 19)),
        ),
        99472,
    ),
    (random_relation(21, 6, 3, 0.2), 2, ((0, 2), (1, 5), ((4, 0), (2, 5))), 19),
    (random_relation(22, 8, 3, 0.1), 2, ((0, 4), (0, 2), ((2, 1), (4, 3))), 22),
    (random_relation(23, 8, 3, 0.05), 3, None, 153),
]


@pytest.mark.parametrize("rel, m, want, unpruned", CODING_PINS)
def test_coding_witness_pinned(rel, m, want, unpruned):
    r = find_coding_witness(rel, m)
    if want is None:
        assert r.status == STATUS_NONE
    else:
        assert r.status == STATUS_FOUND
        x_side, y_side, table = want
        assert r.witness.x_side == tuple((x,) for x in x_side)
        assert r.witness.y_side == tuple((y,) for y in y_side)
        assert r.witness.table == table
    assert r.nodes <= unpruned


def test_coding_too_few_points_answers_at_zero_nodes():
    # 15 < 4^2 distinct third coordinates: the unpruned search spent
    # 381,328 nodes on this relation
    r = find_coding_witness(few_points(41, 24, 15, 0.3), 4)
    assert r.status == STATUS_NONE
    assert r.nodes == 0


def test_coding_exactly_m_squared_points_node_ceiling():
    # exactly 16 = 4^2 third coordinates and no witness: the unpruned
    # search spent 432,284 nodes, the counting bound about 570
    r = find_coding_witness(few_points(31, 24, 16, 0.3), 4)
    assert r.status == STATUS_NONE
    assert r.nodes <= 2000


# ---------------------------------------------------------------------------
# Relation files


def test_parse_relation_roundtrip(data_dir):
    rel = parse_relation((data_dir / "pairing9.rel").read_text())
    assert rel.universe == 9 and rel.arity == 3
    assert rel == pairing_rel(3)


def test_parse_relation_errors_carry_lines():
    with pytest.raises(ParseError) as exc_info:
        parse_relation("a=4 r=2\n0 1 2\n")
    assert exc_info.value.position == 2
    with pytest.raises(ParseError):
        parse_relation("r=2\n0 1\n")
    with pytest.raises(ParseError):
        parse_relation("a=2 r=2\n0 9\n")


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("a=4 r=2\n0 1\n2 3 1\n", "line 3: expected 2 entries, got 3", 3),
        ("a=4 r=2\n0 1\n3\n", "line 3: expected 2 entries, got 1", 3),
        ("a=4 r=2\n0 x\n", "line 2: bad tuple '0 x'", 2),
        ("a=4 r=2\n  1.5   2 \n", "line 2: bad tuple '1.5   2'", 2),
        ("a=4 r=2\n0 1\n1 4\n", "line 3: entry 4 outside 0..3", 3),
        ("a=4 r=2\n-1 0\n", "line 2: entry -1 outside 0..3", 2),
        # comments and blank lines count toward the line number
        ("# a relation\n\na=4 r=2\n\n0 1\n# 9 9 9\n   \n2 9\n", "line 8: entry 9 outside 0..3", 8),
        ("\n\na=4 r=2\n# x\n0 1 1\n", "line 5: expected 2 entries, got 3", 5),
    ],
)
def test_parse_relation_names_the_bad_line(text, message, line):
    with pytest.raises(ParseError) as exc_info:
        parse_relation(text)
    assert str(exc_info.value) == message
    assert exc_info.value.position == line


@pytest.mark.parametrize("first", range(3))
def test_parse_relation_reports_the_first_of_several_bad_lines(first):
    # three kinds of bad line, each rotated to the front in turn
    bad = ["9 0", "0 1 2", "x 1"]
    bad = bad[first:] + bad[:first]
    text = "a=4 r=2\n# header done\n0 1\n\n" + "\n".join(bad) + "\n"
    want = {
        "9 0": "line 5: entry 9 outside 0..3",
        "0 1 2": "line 5: expected 2 entries, got 3",
        "x 1": "line 5: bad tuple 'x 1'",
    }[bad[0]]
    with pytest.raises(ParseError) as exc_info:
        parse_relation(text)
    assert str(exc_info.value) == want
    assert exc_info.value.position == 5


def test_parse_relation_skips_comments_and_blank_lines():
    text = "# pairs\na=3 r=2\n\n0 1\n  # 2 2\n1 2 \n\t\n2 0\n#"
    rel = parse_relation(text)
    assert rel == FinRelation(3, 2, frozenset({(0, 1), (1, 2), (2, 0)}))


def test_parse_relation_reports_a_bad_universe_without_a_line():
    with pytest.raises(ParseError) as exc_info:
        parse_relation("a=0 r=2\n")
    assert str(exc_info.value) == "universe must be non-empty"
    assert exc_info.value.position is None
