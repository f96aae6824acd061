"""Bitset graphs, hereditary class counting, semi-induced order, flip recovery."""
from __future__ import annotations

import itertools
import random
import subprocess
import sys
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import Budget, CapacityError, ClassSpec, FlipSpec, Graph, ParseError
from growthlab import count_labelled, flip_recover, flipped_paths
from growthlab import eval_lseq, half_graph, parse_class_spec, parse_expr, parse_graph
from growthlab import semi_induced_order
from growthlab.errors import DEFAULT_NODE_BUDGET
from growthlab.graph_classes import MODE_FORBIDDEN, MODE_GENERATORS

import oracles

K2 = Graph.from_edges(2, [(0, 1)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
K1 = Graph(1, (0,))
K4 = Graph.from_edges(4, itertools.combinations(range(4), 2))


def path(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def complement(g: Graph) -> Graph:
    pairs = itertools.combinations(range(g.v), 2)
    return Graph.from_edges(g.v, [(u, w) for u, w in pairs if not g.has_edge(u, w)])


def edge_sets(g: Graph) -> list[set[int]]:
    out = [set() for _ in range(g.v)]
    for u, w in g.edges():
        out[u].add(w)
        out[w].add(u)
    return out


@st.composite
def small_graphs(draw, max_v=5):
    v = draw(st.integers(min_value=1, max_value=max_v))
    pairs = list(itertools.combinations(range(v), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return Graph.from_edges(v, edges)


# ---------------------------------------------------------------------------
# Graph representation


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


@pytest.mark.parametrize("seed", range(4))
def test_graph_names_the_first_fault_the_pairwise_check_finds(seed):
    # symmetric graphs on up to 20 vertices (across byte boundaries of
    # the bitsets), each broken by up to two one-way edges, a self-loop
    # or a vertex out of range, against the pair-by-pair oracle
    rng = random.Random(seed)
    faults = 0
    for _ in range(300):
        v = rng.randint(1, 20)
        adj = [0] * v
        for u, w in itertools.combinations(range(v), 2):
            if rng.random() < rng.choice((0.1, 0.5, 0.9)):
                adj[u] |= 1 << w
                adj[w] |= 1 << u
        for _ in range(rng.randint(0, 2)):
            u = rng.randrange(v)
            adj[u] ^= 1 << rng.choice((rng.randrange(v), rng.randrange(v), u, v + rng.randrange(3)))
        want = oracles.adjacency_fault(v, adj)
        if want is None:
            assert Graph(v, tuple(adj)).adj == tuple(adj)
        else:
            faults += 1
            with pytest.raises(ValueError) as exc_info:
                Graph(v, tuple(adj))
            assert str(exc_info.value) == want
    assert faults > 100


def test_graph_rejects_bad_colors():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1)], colors=[0, 7])


def test_from_edges_roundtrip():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)


def test_half_graph_structure():
    h = half_graph(3)
    assert h.v == 6
    assert sorted(h.edges()) == [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5)]


# ---------------------------------------------------------------------------
# Labelled counting vs brute force


def test_forbidden_single_edge_counts_one():
    spec = ClassSpec(MODE_FORBIDDEN, (K2,))
    for n in range(1, 5):
        assert count_labelled(spec, n) == 1


def test_forbidden_p3_counts_equivalence_graphs():
    # No induced P_3 means disjoint unions of cliques: Bell many per n.
    spec = ClassSpec(MODE_FORBIDDEN, (P3,))
    want = [1, 1, 2, 5, 15]
    for n in range(1, 5):
        assert count_labelled(spec, n) == want[n]


def test_generators_path_triangle():
    spec = ClassSpec(MODE_GENERATORS, (P3, K3))
    assert count_labelled(spec, 3) == 4


def test_count_matches_brute():
    cases = [
        (MODE_FORBIDDEN, (K2,)),
        (MODE_FORBIDDEN, (P3,)),
        (MODE_FORBIDDEN, (K3, P4)),
        (MODE_GENERATORS, (P3, K3)),
        (MODE_GENERATORS, (half_graph(3),)),
        (MODE_GENERATORS, (P4,)),
        (MODE_GENERATORS, (K2, P4)),
        (MODE_FORBIDDEN, (K1,)),
        (MODE_GENERATORS, (K2, P3)),
    ]
    for mode, graphs in cases:
        spec = ClassSpec(mode, graphs)
        brute_graphs = [edge_sets(g) for g in graphs]
        for n in range(1, 6):
            got = count_labelled(spec, n)
            want = oracles.brute_count_labelled(mode, brute_graphs, n)
            assert got == want, (mode, n)
    # nothing on [n] avoids K1, and generators smaller than n have no
    # n-vertex induced subgraph
    assert count_labelled(ClassSpec(MODE_FORBIDDEN, (K1,)), 5) == 0
    assert count_labelled(ClassSpec(MODE_GENERATORS, (K2, P3)), 4) == 0


@given(small_graphs(max_v=4), st.integers(min_value=1, max_value=5))
@settings(deadline=None, max_examples=40)
def test_count_matches_brute_random_forbidden(g, n):
    spec = ClassSpec(MODE_FORBIDDEN, (g,))
    want = oracles.brute_count_labelled(MODE_FORBIDDEN, [edge_sets(g)], n)
    assert count_labelled(spec, n) == want


@given(small_graphs(max_v=5), st.integers(min_value=1, max_value=5))
@settings(deadline=None, max_examples=40)
def test_count_matches_brute_random_generators(g, n):
    spec = ClassSpec(MODE_GENERATORS, (g,))
    want = oracles.brute_count_labelled(MODE_GENERATORS, [edge_sets(g)], n)
    assert count_labelled(spec, n) == want


def test_forbidden_p3_k3_counts_involutions():
    # {P3, K3}-free graphs are matchings
    spec = ClassSpec(MODE_FORBIDDEN, (P3, K3))
    want = oracles.involutions_by_recurrence(9)
    assert [count_labelled(spec, n) for n in range(10)] == want


def test_forbidden_p3_counts_bell_to_8():
    spec = ClassSpec(MODE_FORBIDDEN, (P3,))
    assert [count_labelled(spec, n) for n in range(9)] == [
        oracles.bell_by_triangle(n) for n in range(9)
    ]


def test_generators_half_graph_8_at_7():
    assert count_labelled(ClassSpec(MODE_GENERATORS, (half_graph(8),)), 7) == 23647


@pytest.mark.parametrize("complemented", [False, True])
@pytest.mark.parametrize(
    "forbidden, expr",
    [
        ((P3,), "(wr (wr (finite 1)))"),
        ((P3, K3), "(wr (finite 2 full-sym))"),
        ((P3, K4), "(wr (finite 3 full-sym))"),
        ((K2,), "(wr (finite 1))"),
    ],
    ids=["P3", "P3-K3", "P3-K4", "K2"],
)
def test_forbidden_class_counts_match_the_expression(forbidden, expr, complemented):
    # two routes to one sequence: the graphs with no induced P3 are the
    # disjoint unions of cliques, which are the equivalence relations
    # that the wreath products count; taking complements keeps every count
    graphs = tuple(complement(g) for g in forbidden) if complemented else forbidden
    spec = ClassSpec(MODE_FORBIDDEN, graphs)
    assert [count_labelled(spec, n) for n in range(9)] == list(eval_lseq(parse_expr(expr), 8))


def test_count_reports_nodes():
    budget = Budget(DEFAULT_NODE_BUDGET)
    assert count_labelled(ClassSpec(MODE_FORBIDDEN, (P3, K3)), 5, budget=budget) == 26
    assert budget.spent > 0
    spent = budget.spent
    count_labelled(ClassSpec(MODE_GENERATORS, (P3, K3)), 3, budget=budget)
    assert budget.spent > spent


def test_one_budget_accumulates_over_counts():
    # two counts on one budget spend what each spends on its own
    forbidden, generated = ClassSpec(MODE_FORBIDDEN, (P3, K3)), ClassSpec(MODE_GENERATORS, (P3, K3))
    alone = []
    for spec, n in ((forbidden, 5), (generated, 3)):
        budget = Budget(DEFAULT_NODE_BUDGET)
        count_labelled(spec, n, budget=budget)
        alone.append(budget.spent)
    shared = Budget(sum(alone))
    assert count_labelled(forbidden, 5, budget=shared) == 26
    assert count_labelled(generated, 3, budget=shared) == 4
    assert shared.spent == sum(alone)
    # one node less and the second count runs out, under its own stage
    shared = Budget(sum(alone) - 1)
    count_labelled(forbidden, 5, budget=shared)
    with pytest.raises(CapacityError, match=rf"^labelled count at n = 3: node budget {sum(alone) - 1} exceeded$"):
        count_labelled(generated, 3, budget=shared)


def test_count_rejects_large_n():
    # forbidden K2 has one member per n, but the 2^k candidate
    # neighbourhoods of each vertex k exhaust the default budget
    spec = ClassSpec(MODE_FORBIDDEN, (K2,))
    with pytest.raises(CapacityError, match=r"count at n = 30: node budget 10000000 exceeded"):
        count_labelled(spec, 30)


def test_count_memory_stays_bounded_on_budget_exhaustion():
    # the K5-free graphs on [12] are far more than the default budget
    script = """
import resource
from itertools import combinations
from growthlab import CapacityError, ClassSpec, Graph, count_labelled
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
k5 = Graph.from_edges(5, combinations(range(5), 2))
try:
    count_labelled(ClassSpec("forbidden", (k5,)), 12)
    print("no error")
except CapacityError:
    print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) // 1024)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


def test_count_node_budget():
    spec = ClassSpec(MODE_GENERATORS, (half_graph(4),))
    with pytest.raises(CapacityError):
        count_labelled(spec, 5, budget=Budget(3))


def test_class_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec("nonsense", (K2,))
    with pytest.raises(ValueError):
        ClassSpec(MODE_FORBIDDEN, ())


# ---------------------------------------------------------------------------
# Paths and their labelled count


def test_labelled_path_count_matches_generator_count():
    # On exactly k vertices the age of P_k contains only P_k itself, and
    # each of its k! vertex orders but the reversed one gives a new path.
    for k in (3, 4, 5):
        spec = ClassSpec(MODE_GENERATORS, (path(k),))
        assert count_labelled(spec, k) == factorial(k) // 2


# ---------------------------------------------------------------------------
# Semi-induced order


def test_semi_induced_on_half_graphs():
    for t in range(1, 5):
        assert semi_induced_order(half_graph(t)) == t


def test_semi_induced_complete_bipartite_is_one():
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert semi_induced_order(k33) == 1


def test_semi_induced_edgeless_is_zero():
    assert semi_induced_order(Graph.from_edges(5, [])) == 0


def test_semi_induced_survives_side_noise():
    # Adding edges within one side must not destroy the half-graph:
    # within-side adjacency is unconstrained.
    h = half_graph(3)
    noisy = Graph.from_edges(h.v, list(h.edges()) + [(0, 1), (1, 2), (3, 4)])
    assert semi_induced_order(noisy) >= 3


@given(small_graphs(max_v=6))
@settings(deadline=None, max_examples=30)
def test_semi_induced_lax_at_least_strict(g):
    assert semi_induced_order(g, lax=True) >= semi_induced_order(g)


def test_semi_induced_node_budget():
    # t = 1 spends the two nodes a_0, b_0; t = 2 runs out at its first
    with pytest.raises(CapacityError, match=r"^semi-induced order t = 2: node budget 2 exceeded$"):
        semi_induced_order(half_graph(5), budget=Budget(2))


@given(small_graphs(max_v=7), st.booleans())
@settings(deadline=None, max_examples=80)
def test_semi_induced_matches_brute(g, lax):
    want = oracles.brute_semi_induced_order(g.v, edge_sets(g), lax)
    assert semi_induced_order(g, lax=lax) == want


def test_semi_induced_half_graph_11_node_ceiling():
    # without the counting bound the search spent 434,266 nodes here,
    # all of them proving that t = 12 fails
    budget = Budget(DEFAULT_NODE_BUDGET)
    assert semi_induced_order(half_graph(11), budget=budget) == 11
    assert budget.spent <= 300


# ---------------------------------------------------------------------------
# Flipped paths and flip recovery


def test_flipped_paths_clean_is_disjoint_paths():
    g = flipped_paths(3)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]
    assert g.colors == (0, 0, 0, 1, 1, 1, 2, 2, 2)


def test_flipped_paths_diagonal_flip_joins_copies():
    g = flipped_paths(3, spec=FlipSpec.from_pairs(3, [(0, 0)]))
    assert {(0, 3), (0, 6), (3, 6)} <= set(g.edges())


def test_flipped_paths_offdiagonal_flip():
    g = flipped_paths(3, spec=FlipSpec.from_pairs(3, [(0, 1)]))
    got = set(g.edges())
    assert (0, 1) not in got and (3, 4) not in got  # original rungs removed
    assert {(0, 4), (0, 7), (1, 3), (1, 6), (3, 7), (4, 6)} <= got


def test_flip_spec_symmetry_is_enforced():
    with pytest.raises(ValueError, match=r"^pairs must be symmetric; \(1, 0\) is missing$"):
        FlipSpec(3, (0b010, 0, 0))
    spec = FlipSpec.from_pairs(3, [(0, 1)])
    assert spec.rows == (0b010, 0b001, 0)
    assert list(spec.unordered()) == [(0, 1)]


def test_flip_spec_range_is_enforced():
    for rows in ((0b1000, 0, 0), (-1, 0, 0), (0, 0)):
        with pytest.raises(ValueError, match=r"^a spec needs 3 rows of pairs inside classes 0\.\.2$"):
            FlipSpec(3, rows)
    with pytest.raises(ValueError, match=r"^pair \(0, 3\) outside classes 0\.\.2$"):
        FlipSpec.from_pairs(3, [(0, 3)])


def test_flip_spec_random_keeps_its_draws_and_matches_the_toggle_oracle():
    # the spec holds one bitset row per position; its pairs are the ones
    # a twin generator draws in the order (0, 0), (0, 1), ..., (k-1, k-1)
    for k in (2, 3, 7, 12):
        rng, twin = random.Random(k), random.Random(k)
        spec = FlipSpec.random(k, rng)
        drawn = [(i, j) for i in range(k) for j in range(i, k) if twin.random() < 0.5]
        assert spec.unordered() == drawn
        assert spec == FlipSpec.from_pairs(k, drawn)
        assert all(spec.rows[i] >> j & 1 and spec.rows[j] >> i & 1 for i, j in drawn)
        assert sum(row.bit_count() for row in spec.rows) == sum(2 - (i == j) for i, j in drawn)
        assert rng.random() == twin.random()
        assert list(flipped_paths(k, spec).adj) == oracles.flipped_paths_by_toggles(k, drawn)


def test_flip_recover_exhaustive_k3():
    pairs = list(itertools.combinations_with_replacement(range(3), 2))
    for mask in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        spec = FlipSpec.from_pairs(3, chosen)
        recovered = flip_recover(flipped_paths(3, spec=spec))
        assert recovered == flipped_paths(3), chosen


def test_flip_recover_random_k6():
    rng = random.Random(99)
    for _ in range(30):
        spec = FlipSpec.random(6, rng)
        assert flip_recover(flipped_paths(6, spec=spec)) == flipped_paths(6)


def test_flip_layer_matches_the_pairwise_oracles_on_every_spec_at_k3():
    pairs = list(itertools.combinations_with_replacement(range(3), 2))
    clean = oracles.flipped_paths_by_toggles(3, [])
    for mask in range(1 << len(pairs)):
        spec = FlipSpec.from_pairs(3, [p for i, p in enumerate(pairs) if mask >> i & 1])
        g = flipped_paths(3, spec)
        assert list(g.adj) == oracles.flipped_paths_by_toggles(3, spec.unordered()), spec
        assert list(flip_recover(g).adj) == oracles.flip_recover_by_pairs(g.adj, g.colors) == clean


def test_flip_layer_matches_the_pairwise_oracles_on_random_specs():
    rng = random.Random(7)
    for k in range(2, 11):
        for _ in range(12):
            spec = FlipSpec.random(k, rng)
            g = flipped_paths(k, spec)
            assert list(g.adj) == oracles.flipped_paths_by_toggles(k, spec.unordered()), spec
            assert list(flip_recover(g).adj) == oracles.flip_recover_by_pairs(g.adj, g.colors)


def test_flip_recover_raises_where_the_pairwise_oracle_raises():
    # flipped paths with one vertex pair toggled: the recovery either
    # fails on both sides or gives the same graph on both
    rng = random.Random(11)
    raised = 0
    for _ in range(200):
        k = rng.randint(2, 7)
        adj = list(flipped_paths(k, FlipSpec.random(k, rng)).adj)
        u, w = rng.sample(range(3 * k), 2)
        adj[u] ^= 1 << w
        adj[w] ^= 1 << u
        g = Graph(3 * k, tuple(adj), flipped_paths(k).colors)
        try:
            want = oracles.flip_recover_by_pairs(g.adj, g.colors)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="input is not a flip of coloured paths"):
                flip_recover(g)
        else:
            assert list(flip_recover(g).adj) == want
    assert raised > 50


def test_flip_recover_requires_colors():
    with pytest.raises(ValueError):
        flip_recover(Graph.from_edges(9, [(0, 1)]))


def test_flip_recover_rejects_non_flip_input():
    base = flipped_paths(3, spec=FlipSpec.from_pairs(3, [(0, 1), (1, 2)]))
    sets = edge_sets(base)
    sets[0].discard(4)
    sets[4].discard(0)
    corrupted = Graph.from_edges(
        base.v,
        [(u, w) for u in range(base.v) for w in sets[u] if u < w],
        colors=base.colors,
    )
    with pytest.raises(ValueError):
        flip_recover(corrupted)


# ---------------------------------------------------------------------------
# Text formats


def test_parse_graph_roundtrip():
    text = "# a square\nv=4\n0 1\n1 2\n2 3\n0 3\n"
    g = parse_graph(text)
    assert g == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_parse_graph_colors():
    g = parse_graph("v=2\n0 1\ncolor 0 1\ncolor 1 2\n")
    assert g.colors == (1, 2)


def test_parse_graph_reports_line_of_error():
    with pytest.raises(ParseError) as exc_info:
        parse_graph("v=3\n0 9\n")
    assert exc_info.value.position == 2


def test_parse_graph_rejects_a_color_outside_the_vertices():
    with pytest.raises(ParseError) as exc_info:
        parse_graph("v=3\n0 1\ncolor 0 1\ncolor 1 1\ncolor 2 1\ncolor 9 1\n")
    assert exc_info.value.position == 6
    assert "outside 0..2" in str(exc_info.value)


def test_parse_graph_rejects_a_vertex_colored_twice():
    with pytest.raises(ParseError) as exc_info:
        parse_graph("v=2\n0 1\ncolor 0 1\ncolor 1 2\ncolor 0 3\n")
    assert exc_info.value.position == 5
    assert "colored twice" in str(exc_info.value)


def test_parse_class_spec_blocks(data_dir):
    spec = parse_class_spec((data_dir / "p3_k3.classes").read_text(), MODE_GENERATORS)
    assert spec.mode == MODE_GENERATORS
    assert len(spec.graphs) == 2


def test_parse_class_spec_bad_mode():
    with pytest.raises(ValueError):
        parse_class_spec("v=2\n0 1\n", "nope")


def test_parse_class_spec_empty_text():
    with pytest.raises(ParseError):
        parse_class_spec("\n\n", MODE_FORBIDDEN)
