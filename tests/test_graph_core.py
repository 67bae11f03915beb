"""Graph construction, norms, layers, girth, distances, and IO round trips."""

import heapq
import math
import random
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanorm import graph_core
from spanorm.cli import _random_graph
from spanorm.extremal import named_girth_graph, random_bipartite_lift
from spanorm.graph_core import (
    Graph,
    GraphError,
    INFINITY,
    LENGTH_RTOL,
    UNBOUNDED,
    degree_norm,
    format_edge_list,
    girth,
    girth_at_least,
    hop_layers,
    layer_profile,
    lp_norm,
    parse_edge_list,
    short_cycle,
    subset_norm,
    within_hops,
    within_length,
)
from spanorm.greedy import greedy_spanner

import helpers
from helpers import (
    bipartite_graphs,
    brute_force_girth,
    complete_graph,
    cycle_graph,
    floyd_warshall,
    path_graph,
    petersen_graph,
    random_connected_graph,
    reference_counter_norm,
    reference_cycle_free,
    reference_lp_norm,
    reference_min_vertex_verdict,
    reference_short_cycle,
    reference_within_length,
    star_graph,
    unit_graphs,
)

NORM_PS = (1, 2, 1.5, 2.5, Fraction(5, 2), (1 + math.sqrt(5)) / 2, INFINITY)


def fresh(g: Graph) -> Graph:
    """A copy of ``g`` that carries no girth bound, so ``girth_at_least`` on
    it scans instead of reading what an earlier verdict proved."""
    return Graph(g.n, g.edges, g.lengths)


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

    @pytest.mark.parametrize("r", [2.5, 2.0, True])
    def test_non_int_radius_refused(self, r):
        # a float used to raise a bare TypeError from range, and True
        # answered as r = 1
        with pytest.raises(GraphError, match="radius r must be an integer"):
            layer_profile(petersen_graph(), 0, r)

    @settings(max_examples=200, deadline=None)
    @given(g=unit_graphs(), data=st.data())
    def test_hop_layers_match_floyd_warshall(self, g, data):
        # one or more sources, repeats allowed, or none; the graph is often
        # disconnected, and r runs from 0 past the diameter to n + 1
        sources = data.draw(st.lists(st.integers(0, g.n - 1), max_size=4))
        r = data.draw(st.integers(0, g.n + 1))
        dist = floyd_warshall(g)
        layers = hop_layers(g.adjacency(), sources, r)
        assert len(layers) == r + 1
        placed = [v for layer in layers for v in layer]
        assert len(placed) == len(set(placed))
        near = [min((dist[s][v] for s in sources), default=math.inf) for v in range(g.n)]
        assert {v: d for d, layer in enumerate(layers) for v in layer} == {
            v: d for v, d in enumerate(near) if d <= r}


def _assert_first_hit_is_plain(adj) -> None:
    """At every limit, ``short_cycle`` returns the plain search's first hit,
    from root 0 and from every root r up to the hit's root."""
    n = len(adj)
    for limit in range(n + 2):
        plain = reference_short_cycle(adj, limit)
        assert short_cycle(adj, limit) == plain
        for r in range((n if plain is None else plain[3]) + 1):
            assert short_cycle(adj, limit, range(r, n)) == plain


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
                assert girth_at_least(fresh(g), k) == (gv >= k)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_girth_matches_brute_force_property(self, g):
        assert girth(g) == brute_force_girth(g)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_girth_at_least_matches_girth_property(self, g):
        gv = girth(g)
        for k in range(3, g.n + 2):
            assert girth_at_least(fresh(g), k) == (gv >= k)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(), data=st.data())
    def test_girth_at_least_memo_any_order_property(self, g, data):
        # bounds proven by earlier verdicts on one graph, asked for in
        # ascending, descending or shuffled order, give what a scan gives
        ks = list(range(g.n + 3))
        want = {k: girth_at_least(fresh(g), k) for k in ks}
        shuffled = data.draw(st.permutations(ks))
        for order in (ks, ks[::-1], shuffled):
            memo = fresh(g)
            assert [girth_at_least(memo, k) for k in order] == [want[k] for k in order]

    def test_girth_at_least_scans_once_per_open_bound(self, monkeypatch):
        # Petersen has girth 5: a verdict at 6 proves the ceiling 5, one at
        # 5 the floor 5, and every later bound is answered without a scan
        scans = []
        search = graph_core.short_cycle

        def counted(adj, limit, roots=None):
            scans.append(limit)
            return search(adj, limit, roots)

        monkeypatch.setattr(graph_core, "short_cycle", counted)
        g = petersen_graph()
        assert [girth_at_least(g, k) for k in (6, 5, 7, 4, 6, 5, 10**6)] == [
            False, True, False, True, False, True, False]
        assert scans == [5, 4]

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
        dist = floyd_warshall(h)
        hops_to_edit = [min((dist[x][s] for x in ends), default=math.inf) for s in range(g.n)]
        before, after = g.adjacency(), h.adjacency()
        for limit in range(g.n + 2):
            for s in range(g.n):
                if hops_to_edit[s] > (limit - 1) // 2:
                    assert ((short_cycle(before, limit, [s]) is None)
                            == (short_cycle(after, limit, [s]) is None))

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_short_cycle_resumes_past_clean_roots(self, g):
        # skipping roots known to be clean leaves the first hit as it was; root
        # s searches only G[>= s], yet while the roots below it are clean its
        # first hit is the one a search of all of G finds
        _assert_first_hit_is_plain(g.adjacency())

    @settings(max_examples=150, deadline=None)
    @given(pair=bipartite_graphs())
    def test_short_cycle_first_hit_is_the_plain_search_bipartite_property(self, pair):
        # the lift's graphs are bipartite, and its repair adds one edge at a time
        for g in pair:
            _assert_first_hit_is_plain(g.adjacency())

    def test_short_cycle_single_root_searches_no_smaller_vertex(self):
        # a triangle 1-2-3 with a pendant vertex 0: root 2 alone searches the
        # edge 2-3 and misses the triangle through 1, which the full scan
        # meets at root 1
        adj = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]).adjacency()
        assert reference_short_cycle(adj, 3, [2]) == (3, 1, 3, 2)
        assert short_cycle(adj, 3, [2]) is None
        assert short_cycle(adj, 3) == reference_short_cycle(adj, 3) == (3, 2, 3, 1)

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


class _CountingAdjacency:
    """Adjacency lists that log the vertex of every list read."""

    def __init__(self, adj):
        self.adj = adj
        self.reads = []

    def __len__(self):
        return len(self.adj)

    def __getitem__(self, x):
        self.reads.append(x)
        return self.adj[x]


def _verdict_graphs():
    """Spanners of criterion-1 graphs (every root scanned at limit t+1),
    the named graphs and the two acceptance lifts."""
    rng = random.Random(2323)
    for n in (100, 230, 360, 500):
        lo, hi = math.log(n), math.log(int(n**1.5))
        g = _random_graph(rng, n, int(math.exp(rng.uniform(lo, hi))))
        for t in (3, 5, 7):
            yield f"spanner n={n} t={t}", greedy_spanner(g, t).graph(), t + 2
    for name in ("petersen", "heawood", "mcgee", "robertson", "tutte_coxeter",
                 "pg2_2", "pg2_3", "pg2_4", "pg2_5"):
        yield name, named_girth_graph(name), 5
    yield "lift 300,4,8", random_bipartite_lift(300, 4, 8, seed=11), 8
    yield "lift 350,3,10", random_bipartite_lift(350, 3, 10, seed=5), 10


def _farthest_pair(adj, cap: int) -> tuple[int, int, int]:
    """``(d, u, v)``: two vertices d hops apart, with d as large as possible
    up to ``cap``."""
    best = (0, 0, 0)
    for u in range(len(adj)):
        layers = hop_layers(adj, (u,), cap)
        d = max(i for i, layer in enumerate(layers) if layer)
        if d > best[0]:
            best = (d, u, layers[d][0])
            if d == cap:
                break
    return best


class TestCycleVerdict:
    """The verdict behind ``girth`` and ``girth_at_least``, refereed by a
    per-root search of G[>= s], by the plain first-hit search over all of G
    and by exhaustive cycle search."""

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_matches_min_vertex_reference_property(self, g):
        # the same length as root s's own search of G[>= s], at every limit
        adj = g.adjacency()
        for limit in range(g.n + 2):
            hit = short_cycle(adj, limit)
            assert (None if hit is None else hit[0]) == reference_min_vertex_verdict(adj, limit)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs())
    def test_matches_first_hit_search_and_brute_force_property(self, g):
        adj = g.adjacency()
        best = brute_force_girth(g)
        for limit in range(g.n + 2):
            hit = short_cycle(adj, limit)
            length = None if hit is None else hit[0]
            free = reference_cycle_free(adj, limit)
            assert (length is None) == free == (best > limit)
            if length is not None:
                assert best <= length <= limit
            assert girth_at_least(fresh(g), limit + 1) == free

    def test_seeded_graphs_and_one_edge_flips(self):
        # at limits girth-1 and girth the verdict agrees with the reference;
        # an edge between two vertices d <= girth-2 hops apart closes a cycle
        # of d+1 edges and no shorter one, which flips the verdict at girth-1
        for name, g, floor in _verdict_graphs():
            adj = g.adjacency()
            gv = girth(g)
            assert floor <= gv < UNBOUNDED, name
            assert reference_cycle_free(adj, gv - 1) and not reference_cycle_free(adj, gv), name
            for limit in (gv - 1, gv):
                assert girth_at_least(fresh(g), limit + 1) == reference_cycle_free(adj, limit), name
            d, u, v = _farthest_pair(adj, gv - 2)
            h = Graph(g.n, g.edges + ((u, v),))
            flipped = h.adjacency()
            assert d >= 2 and girth(h) == d + 1, name
            assert reference_cycle_free(flipped, d) and girth_at_least(fresh(h), d + 1), name
            assert not reference_cycle_free(flipped, d + 1), name
            assert not girth_at_least(fresh(h), d + 2), name
            assert not girth_at_least(fresh(h), gv), name

    def test_root_reads_no_vertex_below_it(self, monkeypatch):
        # Heawood has girth 6, so at limit 5 every root runs its search out to
        # two hops; root s reads only its ball in the subgraph on s..n-1.  The
        # shim wraps g's own lists, which girth_at_least hands to short_cycle.
        g = named_girth_graph("heawood")
        adj = g.adjacency()
        shims = []
        search = graph_core.short_cycle

        def counted(lists, limit, roots=None):
            shims.append(_CountingAdjacency(lists))
            return search(shims[-1], limit, roots)

        monkeypatch.setattr(graph_core, "short_cycle", counted)
        assert girth_at_least(g, 6)
        (shim,) = shims
        pos = 0
        for s in range(g.n):
            above = [[y for y in nbrs if y >= s] for nbrs in adj]
            ball = sorted(x for layer in hop_layers(above, (s,), 2) for x in layer)
            reads = shim.reads[pos:pos + len(ball)]
            pos += len(ball)
            assert reads[0] == s == min(reads)
            assert sorted(reads) == ball
        assert pos == len(shim.reads) == 68

    @pytest.mark.parametrize("k", [5.5, 6.0, Fraction(6), True, False, "6", None])
    def test_girth_at_least_refuses_non_integer_bound(self, k):
        # 5.5 would otherwise pass Petersen, whose 5-cycles are shorter
        with pytest.raises(ValueError, match="girth bound must be an integer"):
            girth_at_least(petersen_graph(), k)


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
        dist = floyd_warshall(g)
        for u in range(g.n):
            for v in range(g.n):
                for cap in (0, 1, 2, 3, 5, 7):
                    tick += 1
                    want = dist[u][v] <= cap
                    assert within_hops(adj, u, v, cap, stamp, tick) == want
                    assert within_hops(adj, u, v, cap) == want


class TestWithinLength:
    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(), data=st.data())
    def test_matches_floyd_warshall(self, g, data):
        # dyadic lengths keep every sum exact, so a cap equal to the
        # distance must pass and a cap just below it must not
        lengths = data.draw(st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.25)),
                                     min_size=g.m, max_size=g.m))
        wg = Graph(g.n, g.edges, dict(zip(g.edges, lengths)))
        dist = floyd_warshall(wg)
        for u in range(g.n):
            for v in range(g.n):
                d = dist[u][v]
                near = (d, d - 0.25) if d < math.inf else ()
                for cap in (0.0, 1.0, 2.5, 6.5, *near):
                    assert within_length(wg.adjacency(), wg.lengths, u, v, cap) == (d <= cap)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(), data=st.data())
    def test_matches_one_directional_reference(self, g, data):
        # non-dyadic lengths, so sums round; the caps stay at least 1e-9
        # (relative) away from the tolerance edge, where the order in which
        # a path's lengths are added could tip the verdict
        pick = st.one_of(st.floats(0.1, 5.0), st.sampled_from((0.1, 0.2, 0.3, 0.6, 1.0)))
        lengths = data.draw(st.lists(pick, min_size=g.m, max_size=g.m))
        wg = Graph(g.n, g.edges, dict(zip(g.edges, lengths)))
        adj, lens = wg.adjacency(), wg.lengths
        dist = floyd_warshall(wg)
        for u in range(g.n):
            for v in range(u, g.n):
                d = dist[u][v]
                near = (d, d * (1 - 1e-9), d * (1 + 1e-9), d / 2) if d < math.inf else ()
                for cap in (0.0, 0.05, 1.0, 2.5, 100.0, *near):
                    want = reference_within_length(adj, lens, u, v, cap)
                    if not math.isclose(cap, d, rel_tol=1e-9):
                        assert want == (d <= cap)
                    assert within_length(adj, lens, u, v, cap) == want, (u, v, cap)
                    assert within_length(adj, lens, v, u, cap) == \
                        reference_within_length(adj, lens, v, u, cap), (v, u, cap)

    def test_same_vertex_at_cap_zero(self):
        g = Graph(3, [(0, 1)], {(0, 1): 0.3})
        for v in range(3):
            assert within_length(g.adjacency(), g.lengths, v, v, 0.0)

    def test_cap_below_lightest_edge(self):
        g = random_connected_graph(random.Random(5), 12, 30)
        rng = random.Random(6)
        wg = Graph(g.n, g.edges, {e: rng.uniform(0.7, 5.0) for e in g.edges})
        cap = min(wg.lengths.values()) * 0.999
        for u in range(g.n):
            for v in range(g.n):
                assert within_length(wg.adjacency(), wg.lengths, u, v, cap) == (u == v)

    def test_infinite_cap_needs_a_path(self):
        # an infinite cap spans exactly the vertices a path reaches: the
        # sides meet only on a label both have set
        adj, lens = [[1], [0], []], {(0, 1): 1.0}
        assert within_length(adj, lens, 0, 1, math.inf)
        for u, v in ((0, 2), (2, 0), (1, 2)):
            assert not within_length(adj, lens, u, v, math.inf)

    def test_endpoint_isolated_or_in_a_small_component(self):
        # vertex 0 is isolated and {1, 2} is an edge apart from the path
        # 3-4-...-9, so one heap empties while the other still holds labels
        edges = [(1, 2)] + [(i, i + 1) for i in range(3, 9)]
        g = Graph(10, edges, {e: 0.1 * (e[0] + 1) for e in edges})
        adj, lens = g.adjacency(), g.lengths
        for small in (0, 1, 2):
            for big in range(3, 10):
                for cap in (0.5, 10.0, 1e9):
                    assert not within_length(adj, lens, small, big, cap)
                    assert not within_length(adj, lens, big, small, cap)
        assert not within_length(adj, lens, 0, 1, 1e9)
        assert within_length(adj, lens, 2, 1, 0.2)
        assert not within_length(adj, lens, 2, 1, 0.19)

    def test_cap_equal_to_a_dyadic_distance(self):
        # a path of 2.0 whose halves meet in the middle, and a detour of
        # 2.125; the cap 2.0 passes and the next dyadic below it does not
        lengths = {(0, 1): 0.5, (1, 2): 0.25, (2, 3): 1.25, (0, 4): 1.0, (3, 4): 1.125}
        g = Graph(5, list(lengths), lengths)
        for u, v in ((0, 3), (3, 0)):
            assert within_length(g.adjacency(), g.lengths, u, v, 2.0)
            assert not within_length(g.adjacency(), g.lengths, u, v, 1.9375)

    def test_path_of_exactly_the_bound_passes(self):
        # halves and quarters of the bound add up to it exactly, so the
        # meeting test must accept a sum equal to the bound
        bound = 3.0 * (1.0 + LENGTH_RTOL)
        for parts in ((bound,), (bound / 2, bound / 2), (bound / 4, bound / 2, bound / 4)):
            k = len(parts)
            lengths = {(i, i + 1): w for i, w in enumerate(parts)}
            g = Graph(k + 1, list(lengths), lengths)
            for u, v in ((0, k), (k, 0)):
                assert within_length(g.adjacency(), g.lengths, u, v, 3.0)
                assert reference_within_length(g.adjacency(), g.lengths, u, v, 3.0)

    def test_meets_in_the_middle(self, monkeypatch):
        # a complete binary tree of depth 8, leaf to leaf across the root
        # (16 hops): the search from one leaf alone settles most of the
        # tree, the two half-radius searches under half as many vertices
        n = 511
        g = Graph(n, [((i - 1) // 2, i) for i in range(1, n)])
        lens = dict.fromkeys(g.edges, 1.0)
        pops = Counter()

        def shim(name):
            def pop(heap):
                pops[name] += 1
                return heapq.heappop(heap)
            return types.SimpleNamespace(heappop=pop, heappush=heapq.heappush)

        monkeypatch.setattr(graph_core, "heapq", shim("both"))
        monkeypatch.setattr(helpers, "heapq", shim("one"))
        for cap, want in ((15.0, False), (14.0, False), (16.0, True)):
            pops.clear()
            assert within_length(g.adjacency(), lens, 255, 510, cap) == want
            assert reference_within_length(g.adjacency(), lens, 255, 510, cap) == want
            assert 2 * pops["both"] < pops["one"], (cap, pops)


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
