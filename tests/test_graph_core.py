"""Graph construction, norms, layers, girth, distances, and IO round trips."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanorm.graph_core import (
    Graph,
    GraphError,
    INFINITY,
    UNBOUNDED,
    degree_norm,
    format_edge_list,
    girth,
    girth_at_least,
    layer_profile,
    lp_norm,
    parse_edge_list,
    short_cycle,
    shortest_paths,
    subset_norm,
    within_hops,
)

from helpers import (
    brute_force_girth,
    complete_graph,
    cycle_graph,
    floyd_warshall,
    path_graph,
    petersen_graph,
    random_connected_graph,
    reference_counter_norm,
    reference_lp_norm,
    star_graph,
    unit_graphs,
)

NORM_PS = (1, 2, 1.5, 2.5, Fraction(5, 2), (1 + math.sqrt(5)) / 2, INFINITY)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], {(0, 1): 0.0})

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_length(self, w):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], {(0, 1): w})

    def test_rejects_missing_length(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 2)], {(0, 1): 1.0})

    def test_degree_sum_even(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 12), None or rng.randint(1, 20) + 11)
            assert sum(g.degrees()) % 2 == 0
            assert sum(g.degrees()) == 2 * g.m


class TestNorms:
    def test_c5_l2(self):
        # all degrees 2, so the squared norm is 5 * 4 = 20
        assert lp_norm(cycle_graph(5), 2) == pytest.approx(math.sqrt(20), abs=1e-12)

    def test_star_linf(self):
        assert lp_norm(star_graph(5), INFINITY) == 5

    def test_star_l1_is_twice_edges(self):
        assert lp_norm(star_graph(3), 1) == 6

    def test_l1_twice_edge_count_random(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 15), rng.randint(1, 25) + 14)
            assert lp_norm(g, 1) == 2 * g.m

    def test_edgeless(self):
        g = Graph(4, [])
        assert lp_norm(g, 2) == 0.0
        assert lp_norm(g, INFINITY) == 0.0

    def test_monotone_in_p(self):
        rng = random.Random(11)
        ps = [1, 1.5, 2, 3, 10]
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 12), rng.randint(2, 20) + 11)
            norms = [lp_norm(g, p) for p in ps] + [lp_norm(g, INFINITY)]
            for a, b in zip(norms, norms[1:]):
                assert b <= a + 1e-9

    def test_subset_center_of_star(self):
        assert subset_norm(star_graph(3), {0}, 1) == 3

    def test_subset_empty(self):
        assert subset_norm(cycle_graph(5), set(), 2) == 0.0

    def test_subset_three_of_c5(self):
        assert subset_norm(cycle_graph(5), {0, 2, 4}, 2) == pytest.approx(math.sqrt(12))

    def test_subset_full_equals_norm(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(1, 18) + 11)
            for p in (1, 1.7, 2, INFINITY):
                assert subset_norm(g, range(g.n), p) == pytest.approx(lp_norm(g, p))

    def test_subset_out_of_range(self):
        with pytest.raises(GraphError):
            subset_norm(cycle_graph(4), {5}, 2)

    def test_p_below_one_rejected(self):
        with pytest.raises(GraphError):
            lp_norm(cycle_graph(4), 0.5)
        # p is a finite real >= 1 or INFINITY: a float infinity is refused,
        # since its power sum is not the max-degree norm
        path = Graph(3, [(0, 1), (1, 2)])
        assert lp_norm(path, INFINITY) == 2.0
        for p in (math.inf, float("nan")):
            with pytest.raises(GraphError):
                lp_norm(path, p)
            with pytest.raises(GraphError):
                subset_norm(path, range(3), p)


class TestDegreeNorm:
    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_matches_old_formulas(self, g):
        degs = g.degrees()
        hist = Counter(degs)
        evens = range(0, g.n, 2)
        for p in NORM_PS:
            want = reference_lp_norm(degs, p)
            assert degree_norm(degs, p) == want
            assert lp_norm(g, p) == want
            assert subset_norm(g, range(g.n), p) == want
            sub = [degs[v] for v in evens]
            assert subset_norm(g, evens, p) == reference_lp_norm(sub, p)
            want = reference_counter_norm(hist, p)
            assert degree_norm(hist.keys(), p, hist.values()) == want

    @settings(max_examples=150, deadline=None)
    @given(hist=st.dictionaries(st.integers(0, 10**7), st.integers(0, 10**7), max_size=8))
    def test_large_histograms_match_old_formula(self, hist):
        # virtual instances carry degrees and counts far beyond any explicit graph
        counts = Counter(hist)
        for p in NORM_PS:
            want = reference_counter_norm(counts, p)
            assert degree_norm(counts.keys(), p, counts.values()) == want

    def test_zero_counts_ignored_by_max(self):
        assert degree_norm([5, 2], INFINITY, [0, 3]) == 2.0
        assert degree_norm([5, 2], 2, [0, 3]) == math.sqrt(12)

    @pytest.mark.parametrize("p", [1100, 2000.5, 1e300, Fraction(10**300)])
    def test_huge_p_scaled_not_overflowed(self, p):
        # 2.0 ** p leaves the float range; the degree-1 terms vanish next to
        # 2 ** p, so the norm is 2 * (count of degree 2) ** (1/p)
        g = path_graph(3)
        root3 = 2 * 3 ** (1 / float(p))
        assert degree_norm([1, 2, 1], p) == pytest.approx(2.0, rel=1e-12)
        assert lp_norm(g, p) == pytest.approx(2.0, rel=1e-12)
        assert subset_norm(g, [0, 1], p) == pytest.approx(2.0, rel=1e-12)
        assert subset_norm(g, [0, 2], p) == 2 ** (1 / float(p))  # no overflow here
        assert degree_norm([2, 1], p, [3, 5]) == pytest.approx(root3, rel=1e-12)
        # a zero count takes no part in the scale
        assert degree_norm([9, 2, 1], p, [0, 3, 5]) == pytest.approx(root3, rel=1e-12)

    def test_scaled_form_near_the_overflow_edge(self):
        # 2**1024 overflows: the scaled sum is 2 * (2 + 2**-1024)**(1/1024)
        assert degree_norm([2, 2, 1], 1024) == pytest.approx(2 * 2 ** (1 / 1024), rel=1e-12)
        # one step below, the plain sum is taken and stays bit for bit
        assert degree_norm([2, 2, 1], 1000) == reference_lp_norm([2, 2, 1], 1000)


class TestLayerProfile:
    def test_petersen_layers(self):
        g = petersen_graph()
        for v in range(10):
            assert layer_profile(g, v, 2).counts == (1, 3, 6)

    def test_path_from_end(self):
        assert layer_profile(path_graph(3), 0, 2).counts == (1, 1, 1)

    def test_isolated_vertex(self):
        g = Graph(1, [])
        assert layer_profile(g, 0, 3).counts == (1, 0, 0, 0)

    def test_counts_match_floyd_warshall(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 12), rng.randint(2, 18) + 11)
            dist = floyd_warshall(g)
            v = rng.randrange(g.n)
            prof = layer_profile(g, v, 4)
            for i in range(5):
                assert prof.counts[i] == sum(1 for u in range(g.n) if dist[v][u] == i)

    def test_ignores_edge_lengths(self):
        g = Graph(3, [(0, 1), (1, 2)], {(0, 1): 5.0, (1, 2): 0.25})
        assert layer_profile(g, 0, 2).counts == (1, 1, 1)

    def test_ball_size_bounded_by_n(self):
        g = petersen_graph()
        assert sum(layer_profile(g, 0, 5).counts) == 10


class TestGirth:
    def test_petersen(self):
        g = petersen_graph()
        assert girth(g) == 5
        assert brute_force_girth(g) == 5

    def test_tree_unbounded(self):
        assert girth(path_graph(6)) == UNBOUNDED

    def test_k4(self):
        assert girth(complete_graph(4)) == 3

    def test_matches_brute_force_random(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(3, 10)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 6))
            g = random_connected_graph(rng, n, m)
            assert girth(g) == brute_force_girth(g)

    def test_girth_at_least_consistent(self):
        rng = random.Random(19)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(3, 10), rng.randint(2, 14) + 9)
            gv = girth(g)
            for k in range(3, 9):
                assert girth_at_least(g, k) == (gv >= k)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_girth_matches_brute_force_property(self, g):
        assert girth(g) == brute_force_girth(g)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_girth_at_least_matches_girth_property(self, g):
        gv = girth(g)
        for k in range(3, g.n + 2):
            assert girth_at_least(g, k) == (gv >= k)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_short_cycle_sound_and_complete(self, g):
        # a hit names an edge and a length between the girth and the limit,
        # and the first root whose own search hits; None means no cycle of
        # length <= limit
        adj = g.adjacency()
        best = brute_force_girth(g)
        for limit in range(g.n + 2):
            hit = short_cycle(adj, limit)
            if hit is None:
                assert best > limit
            else:
                length, x, y, root = hit
                assert y in g.neighbors(x)
                assert best <= length <= limit
                first = next(s for s in range(g.n) if short_cycle(adj, limit, [s]))
                assert root == first

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_short_cycle_hit_roots_ignore_adjacency_order(self, g, seed):
        # whether a root's own search hits depends on the edge set near it,
        # not on the order of the adjacency lists
        adj = [list(nbrs) for nbrs in g.adjacency()]
        shuffled = [list(nbrs) for nbrs in adj]
        rng = random.Random(seed)
        for nbrs in shuffled:
            rng.shuffle(nbrs)
        best = brute_force_girth(g)
        for limit in range(g.n + 2):
            hits = [short_cycle(adj, limit, [s]) for s in range(g.n)]
            shuffled_hits = [short_cycle(shuffled, limit, [s]) for s in range(g.n)]
            assert [h is None for h in hits] == [h is None for h in shuffled_hits]
            for hit in hits + shuffled_hits:
                if hit is not None:
                    assert best <= hit[0] <= limit

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(), edits=st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                           max_size=3))
    def test_short_cycle_hit_roots_far_from_an_edit_unchanged(self, g, edits):
        # toggling edges changes no root's hit status farther than
        # (limit-1)//2 hops from every endpoint of a toggled edge
        toggled = {(min(u, v), max(u, v)) for u, v in edits if u != v and max(u, v) < g.n}
        h = Graph(g.n, sorted(set(g.edges) ^ toggled))
        ends = {x for edge in toggled for x in edge}
        hops_to_edit = [min((shortest_paths(h, x)[s] for x in ends), default=math.inf)
                        for s in range(g.n)]
        before, after = g.adjacency(), h.adjacency()
        for limit in range(g.n + 2):
            for s in range(g.n):
                if hops_to_edit[s] > (limit - 1) // 2:
                    assert ((short_cycle(before, limit, [s]) is None)
                            == (short_cycle(after, limit, [s]) is None))

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_short_cycle_resumes_past_clean_roots(self, g):
        # skipping roots known to be clean leaves the first hit as it was
        adj = g.adjacency()
        for limit in range(g.n + 2):
            full = short_cycle(adj, limit)
            clean_below = g.n if full is None else full[3]
            for r in range(clean_below + 1):
                assert short_cycle(adj, limit, range(r, g.n)) == full

    def test_unique_short_paths_in_high_girth(self):
        # girth >= 2k+1 forces a unique i-hop path to each vertex of N_i(v), i <= k
        g = petersen_graph()  # girth 5, so k = 2
        adj = g.adjacency()
        for v in range(10):
            paths = {v: 1}
            frontier = {v: 1}
            for _ in range(2):
                nxt: dict[int, int] = {}
                for x, cnt in frontier.items():
                    for y in adj[x]:
                        if y not in paths:
                            nxt[y] = nxt.get(y, 0) + cnt
                for y in nxt:
                    paths[y] = nxt[y]
                frontier = nxt
                assert all(c == 1 for c in frontier.values())


class TestShortestPaths:
    def test_unit_path(self):
        d = shortest_paths(path_graph(3), 0)
        assert d == [0, 1, 2]

    def test_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        d = shortest_paths(g, 0)
        assert d[2] == math.inf and d[3] == math.inf

    def test_weighted_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
        d = shortest_paths(g, 0)
        assert d[2] == pytest.approx(2.0)

    def test_hops_flag_ignores_lengths(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
        d = shortest_paths(g, 0, use_lengths=False)
        assert d[2] == 1

    def test_matches_floyd_warshall_weighted(self):
        rng = random.Random(23)
        for _ in range(10):
            base = random_connected_graph(rng, rng.randint(3, 9), rng.randint(2, 12) + 8)
            lengths = {e: rng.uniform(0.5, 3.0) for e in base.edges}
            g = Graph(base.n, base.edges, lengths)
            dist = floyd_warshall(g)
            for v in range(g.n):
                d = shortest_paths(g, v)
                for u in range(g.n):
                    assert d[u] == pytest.approx(dist[v][u])


class TestWithinHops:
    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_matches_bfs_distance(self, g):
        # one stamp shared by every query, as the greedy and the stretch
        # check share it, and a fresh one per call; u == v and caps 0, 1
        # and t = 3, 5, 7 included
        adj = g.adjacency()
        stamp = [0] * g.n
        tick = 0
        for u in range(g.n):
            dist = shortest_paths(g, u)
            for v in range(g.n):
                for cap in (0, 1, 2, 3, 5, 7):
                    tick += 1
                    want = dist[v] <= cap
                    assert within_hops(adj, u, v, cap, stamp, tick) == want
                    assert within_hops(adj, u, v, cap) == want


class TestEdgeListFormat:
    def test_round_trip_unit(self):
        g = petersen_graph()
        assert parse_edge_list(format_edge_list(g)) == g

    def test_round_trip_weighted(self):
        g = Graph(3, [(0, 1), (1, 2)], {(0, 1): 1.5, (1, 2): 0.75})
        g2 = parse_edge_list(format_edge_list(g))
        assert g2.n == g.n and g2.edges == g.edges
        for e in g.edges:
            assert g2.lengths[e] == pytest.approx(g.lengths[e])

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(), data=st.data())
    def test_format_is_a_fixed_point_property(self, g, data):
        # any finite positive lengths, subnormals included
        lengths = data.draw(st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=g.m, max_size=g.m))
        graphs = [g, Graph(g.n, g.edges, dict(zip(g.edges, lengths)))] if g.m else [g]
        for h in graphs:
            text = format_edge_list(h)
            assert format_edge_list(parse_edge_list(text)) == text

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(), data=st.data())
    def test_twelve_digit_lengths_round_trip_property(self, g, data):
        twelve_digits = st.builds(
            lambda mantissa, exponent: float(f"{mantissa}e{exponent}"),
            st.integers(1, 10**12 - 1), st.integers(-200, 200))
        lengths = data.draw(st.lists(twelve_digits, min_size=g.m, max_size=g.m))
        graphs = [g, Graph(g.n, g.edges, dict(zip(g.edges, lengths)))] if g.m else [g]
        for h in graphs:
            assert parse_edge_list(format_edge_list(h)) == h

    def test_comments_and_errors(self):
        g = parse_edge_list("# a comment\n2 1\n0 1\n")
        assert g.m == 1
        with pytest.raises(GraphError):
            parse_edge_list("2 2\n0 1\n")
        with pytest.raises(GraphError):
            parse_edge_list("")

    @pytest.mark.parametrize("text,bad_line", [
        ("a b\n", "a b"), ("3.5 0\n", "3.5 0"), ("2\n", "2"), ("2 1 0\n0 1\n", "2 1 0"),
        ("2 1\n0 x\n", "0 x"), ("2 1\n0 1 abc\n", "0 1 abc"), ("2 1\n0\n", "0"),
    ])
    def test_malformed_line_named(self, text, bad_line):
        with pytest.raises(GraphError, match=repr(bad_line)):
            parse_edge_list(text)

    @pytest.mark.parametrize("w", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(GraphError):
            parse_edge_list(f"2 1\n0 1 {w}\n")
