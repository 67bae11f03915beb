"""Oracle: exhaustive vs pruned equivalence, reference values, ball growth."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanorm.oracle
from spanorm.graph_core import (
    Graph,
    GraphError,
    INFINITY,
    degree_norm,
    girth_at_least,
    lp_norm,
    subset_norm,
    within_hops,
)
from spanorm.greedy import Spanner, greedy_spanner, verify_stretch
from spanorm.oracle import (
    OracleSizeError,
    _mask_spanned,
    ball_growth_check,
    greedy_ratio,
    optimal_spanner,
    two_path_count,
)

from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    seeded_oracle_case,
    small_connected_graphs,
    star_graph,
)

# (seed, kept_edges, optimum_norm, explored, pruned) of the pruned search on
# seeded_oracle_case(seed); the counts pin the search tree, not just the answer
SEARCH_PINS = [
    (0, ((0, 1), (1, 3), (2, 4), (2, 5), (3, 5), (5, 6)), 4.172342132765461, 1369, 881),
    (1, ((0, 1), (1, 2), (1, 3), (1, 4)), 8.0, 223, 118),
    (2, ((0, 1), (1, 3), (2, 3)), 2.0, 5, 3),
    (3, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3)), 4.076840381471144, 47, 38),
    (4, ((0, 3), (0, 4), (1, 2), (1, 4), (2, 3)), 3.8073078774317572, 18, 13),
    (5, ((0, 2), (0, 7), (1, 2), (1, 4), (2, 3), (2, 5), (3, 6), (6, 7)), 5.220971890021551, 69, 60),
    (6, ((0, 3), (1, 5), (1, 6), (2, 4), (2, 7), (3, 6), (4, 5)), 4.190218492454793, 25, 19),
    (7, ((0, 5), (1, 3), (1, 5), (2, 3), (2, 4)), 3.602197708484683, 33, 25),
    (8, ((0, 2), (0, 3), (0, 4), (1, 4)), 8.0, 52, 30),
    (9, ((0, 4), (1, 2), (1, 6), (3, 4), (3, 5), (3, 6)), 12.0, 2952, 2090),
    (10, ((0, 1), (1, 5), (2, 5), (2, 6), (3, 5), (4, 7), (5, 7)), 4.893435121819839, 9, 7),
    (11, ((0, 2), (0, 3), (1, 3), (1, 4), (4, 5), (5, 6)), 3.9127928026215755, 4040, 2605),
    (12, ((0, 1), (0, 3), (0, 5), (1, 2), (1, 6), (2, 4), (3, 5), (4, 5)), 3.0, 202, 139),
    (13, ((0, 2), (0, 3), (1, 3), (1, 4), (4, 5)), 3.602197708484683, 120, 82),
    (14, ((0, 1), (0, 2), (0, 3)), 6.0, 13, 6),
    (15, ((0, 3), (1, 2), (1, 3), (2, 4)), 3.7416573867739413, 6, 4),
    (16, ((0, 1), (0, 2), (0, 3), (0, 5), (1, 4)), 10.0, 2854, 1398),
    (17, ((0, 3), (0, 4), (1, 4), (1, 5), (2, 4), (3, 7), (5, 6)), 5.291502622129181, 732, 555),
    (18, ((0, 4), (1, 2), (1, 4), (2, 3)), 3.7416573867739413, 6, 4),
    (19, ((0, 2), (0, 3), (1, 3)), 6.0, 5, 3),
]

# the same search at p = 1.001 on seeded_oracle_case(seed) for seeds 0-5:
# non-integer powers go through the norm memo, and the counts move if the
# prune slack 1e-12 is loosened (to 1e-3, seed 0 explores 1471 nodes)
P1001_PINS = [
    (0, ((0, 1), (1, 3), (2, 4), (2, 5), (3, 5), (5, 6)), 11.977679900776948, 1397, 862),
    (1, ((0, 1), (1, 2), (2, 4), (3, 4)), 7.987545879016461, 175, 102),
    (2, ((0, 1), (1, 3), (2, 3)), 5.992035612500406, 5, 3),
    (3, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3)), 9.984456989005736, 47, 38),
    (4, ((0, 3), (0, 4), (1, 2), (1, 4), (2, 3)), 9.983934617839754, 18, 13),
    (5, ((0, 2), (0, 7), (1, 2), (1, 4), (2, 3), (2, 5), (3, 6), (6, 7)), 15.968180145260144, 69, 60),
]

# (p, kept_edges, optimum_norm, explored, pruned, greedy_norm) at t = 3 on a
# fan: hub 0 joined to 1..5 plus the path 1-2-3-4-5.  At p = 1000 and 1e6 a
# degree of 3 or more overflows float(d) ** p, so degree_norm takes its
# scaled branch inside the search and for the greedy star; at p = 300 no term
# overflows
FAN_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]
LARGE_P_PINS = [
    (300, ((0, 1), (0, 3), (1, 2), (3, 4), (4, 5)), 2.0092633488041076, 290, 151, 5.000000000000001),
    (1000, ((0, 1), (0, 3), (1, 2), (3, 4), (4, 5)), 2.002774511422669, 290, 151, 5.0),
    (1e6, ((0, 1), (0, 3), (1, 2), (3, 4), (4, 5)), 2.000002772590644, 290, 151, 5.0),
]

# ball_growth_check(petersen_graph(), 3.0, 3).optimal_bound_violations: the
# bound 1 + n ** ((2 - 2 ** (1 - r)) * alpha) at r = 2 and 3, alpha = log_10 3
PETERSEN_OPTIMAL_VIOLATIONS = tuple(
    (v, r, 10, bound)
    for v in range(10)
    for r, bound in ((2, 6.196152422706632), (3, 7.8385211708643325))
)


class TestOptimalSpanner:
    def test_path_is_its_own_optimum(self):
        g = path_graph(3)
        res = optimal_spanner(g, 3, 2)
        assert res.optimum.kept_edges == g.edges
        assert res.optimum_norm == pytest.approx(math.sqrt(6))

    def test_k4_hamiltonian_path(self):
        res = optimal_spanner(complete_graph(4), 3, 2)
        assert res.optimum_norm == pytest.approx(math.sqrt(10))
        degs = sorted(res.optimum.graph().degrees())
        assert degs == [1, 1, 2, 2]
        # lexicographically smallest among the norm-sqrt(10) spanners
        assert res.optimum.kept_edges == ((0, 1), (0, 2), (1, 3))

    def test_c5_keeps_everything(self):
        g = cycle_graph(5)
        res = optimal_spanner(g, 3, 1)
        assert res.optimum.kept_edges == g.edges
        assert res.optimum_norm == pytest.approx(10.0)

    def test_size_limits(self):
        g = random_connected_graph(random.Random(1), 12, 30)
        with pytest.raises(OracleSizeError):
            optimal_spanner(g, 3, 2, prune=False)
        big = random_connected_graph(random.Random(2), 14, 44)
        with pytest.raises(OracleSizeError):
            optimal_spanner(big, 3, 2)

    def test_pruned_equals_exhaustive(self):
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(3, 6)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, 10))
            g = random_connected_graph(rng, n, m)
            t = rng.choice([2, 3])
            p = rng.choice([1, 2, INFINITY])
            fast = optimal_spanner(g, t, p, prune=True)
            slow = optimal_spanner(g, t, p, prune=False)
            assert math.isclose(fast.optimum_norm, slow.optimum_norm, rel_tol=1e-12)
            assert fast.optimum.kept_edges == slow.optimum.kept_edges

    def test_weighted_instance(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
        res = optimal_spanner(g, 3, 2)
        assert res.optimum.kept_edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("pin", SEARCH_PINS, ids=lambda pin: f"seed{pin[0]}")
    def test_search_tree_pinned(self, pin):
        seed, kept, norm, explored, pruned = pin
        g, t, p = seeded_oracle_case(seed)
        res = optimal_spanner(g, t, p)
        assert (res.optimum.kept_edges, res.optimum_norm, res.explored, res.pruned) == (
            kept, norm, explored, pruned
        )

    @pytest.mark.parametrize("pin", SEARCH_PINS, ids=lambda pin: f"seed{pin[0]}")
    def test_given_greedy_searches_the_same_tree(self, pin):
        g, t, p = seeded_oracle_case(pin[0])
        res = optimal_spanner(g, t, p, greedy=greedy_spanner(g, t))
        assert res == optimal_spanner(g, t, p)
        assert (res.optimum.kept_edges, res.optimum_norm, res.explored, res.pruned) == pin[1:]

    @settings(max_examples=200, deadline=None)
    @given(
        small_connected_graphs(),
        st.sampled_from([2, 3, 5]),
        st.sampled_from([1, 2, Fraction(5, 2), INFINITY]),
    )
    def test_pruned_matches_exhaustive_property(self, g, t, p):
        fast = optimal_spanner(g, t, p, prune=True)
        slow = optimal_spanner(g, t, p, prune=False)
        assert fast.optimum.kept_edges == slow.optimum.kept_edges
        assert fast.optimum_norm == slow.optimum_norm
        assert fast.optimum_norm <= fast.greedy_norm
        assert verify_stretch(g, fast.optimum, t)

    def test_weighted_edge_longer_than_its_budget(self):
        # edges of length 5 next to a 1-1 path are longer than d_G = 2; the
        # pruned leaves check only dropped edges against 2 * w and agree
        # with verify_stretch
        rng = random.Random(89)
        for _ in range(20):
            n = rng.randint(3, 6)
            base = random_connected_graph(rng, n, rng.randint(n - 1, min(n * (n - 1) // 2, 9)))
            lengths = {e: rng.choice([1, 1, 5]) for e in base.edges}
            g = Graph(base.n, base.edges, lengths)
            for p in (1, 2, INFINITY):
                fast = optimal_spanner(g, 2, p)
                slow = optimal_spanner(g, 2, p, prune=False)
                assert fast.optimum.kept_edges == slow.optimum.kept_edges
                assert fast.optimum_norm == slow.optimum_norm
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], {(0, 1): 1, (1, 2): 1, (0, 2): 5})
        assert optimal_spanner(g, 2, 2).optimum.kept_edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("pin", P1001_PINS, ids=lambda pin: f"seed{pin[0]}")
    def test_search_tree_pinned_at_p_1001(self, pin):
        seed, kept, norm, explored, pruned = pin
        g, t, _ = seeded_oracle_case(seed)
        res = optimal_spanner(g, t, 1.001)
        assert (res.optimum.kept_edges, res.optimum_norm, res.explored, res.pruned) == (
            kept, norm, explored, pruned
        )

    @pytest.mark.parametrize("pin", LARGE_P_PINS, ids=lambda pin: f"p{pin[0]:g}")
    def test_search_tree_pinned_at_large_p(self, pin):
        p, kept, norm, explored, pruned, greedy_norm = pin
        res = optimal_spanner(Graph(6, FAN_EDGES), 3, p)
        assert (res.optimum.kept_edges, res.optimum_norm, res.explored, res.pruned,
                res.greedy_norm) == (kept, norm, explored, pruned, greedy_norm)

    def test_isolated_vertices_cost_little(self):
        # the fan spread over 5001 vertices, labels kept in order so the
        # search meets the edges as on 6 vertices: the same tree and norms,
        # and the norm memo's power table stops at the largest degree (a
        # table up to degree n would hold about 19 MB here)
        spread = 1000
        g = Graph(5 * spread + 1, [(u * spread, v * spread) for u, v in FAN_EDGES])
        tracemalloc.start()
        try:
            res = optimal_spanner(g, 3, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        small = optimal_spanner(Graph(6, FAN_EDGES), 3, 2)
        assert res.optimum.kept_edges == tuple(
            (u * spread, v * spread) for u, v in small.optimum.kept_edges
        )
        assert (res.optimum_norm, res.explored, res.pruned, res.greedy_norm) == (
            small.optimum_norm, small.explored, small.pruned, small.greedy_norm
        )
        assert peak < 4 * 2**20

    def test_pruned_leaves_skip_verify_stretch(self, monkeypatch):
        # only the greedy incumbent goes through verify_stretch; the leaves
        # of the pruned search check their dropped edges in place
        calls = []

        def counting_verify(g, h, t):
            calls.append(t)
            return verify_stretch(g, h, t)

        monkeypatch.setattr(spanorm.oracle, "verify_stretch", counting_verify)
        g, t, p = seeded_oracle_case(16)
        res = optimal_spanner(g, t, p)
        assert res.explored > 1000 and calls == [t]

    def test_complement_prefix_skips_prune_test(self, monkeypatch):
        # while only greedy-complement edges are dropped the greedy spanner
        # is still available and spans them, so the search skips their prune
        # test: 3959 bitmask hop tests here against 4085 with the test, and
        # the same search tree
        calls = []
        real = spanorm.oracle._mask_spanned

        def counting_factory(mask, order, t):
            spanned = real(mask, order, t)
            return lambda i: calls.append(i) or spanned(i)

        monkeypatch.setattr(spanorm.oracle, "_mask_spanned", counting_factory)
        g, t, p = seeded_oracle_case(16)
        assert g.lengths is None
        res = optimal_spanner(g, t, p)
        assert (res.explored, res.pruned) == SEARCH_PINS[16][3:]
        assert len(calls) == 3959

    def test_unit_masks_match_unit_lengths(self):
        # a unit graph searches on bitmask adjacency with the mask hop test,
        # its copy with every length 1.0 on list adjacency with
        # within_length: the verdicts are the same, so is the whole search
        def outcome(g, t, p):
            res = optimal_spanner(g, t, p)
            return res.optimum.kept_edges, res.optimum_norm, res.explored, res.pruned

        cases = []
        for seed in range(len(SEARCH_PINS)):
            g, t, p = seeded_oracle_case(seed)
            cases.append((Graph(g.n, g.edges), [t], [p]))
        rng = random.Random(97)
        for n in range(4, 10):
            for _ in range(2):
                m = rng.randint(n - 1, min(16, n * (n - 1) // 2))
                cases.append((random_connected_graph(rng, n, m), [1, 2, 3, 5], [1, 1.5, 2]))
        for g, ts, ps in cases:
            ones = Graph(g.n, g.edges, dict.fromkeys(g.edges, 1.0))
            for t in ts:
                for p in ps:
                    assert outcome(g, t, p) == outcome(ones, t, p), (g.edges, t, p)

    def test_one_norm_per_degree_multiset(self, monkeypatch):
        # the bound test computes degree_norm once per degree multiset it
        # meets: 44 multisets over a 4040-node search
        multisets = []
        real = spanorm.oracle.degree_norm

        def counting_norm(degrees, p):
            multisets.append(tuple(sorted(degrees)))
            return real(degrees, p)

        monkeypatch.setattr(spanorm.oracle, "degree_norm", counting_norm)
        g, t, p = seeded_oracle_case(11)
        res = optimal_spanner(g, t, p)
        assert (res.optimum.kept_edges, res.optimum_norm, res.explored, res.pruned) == (
            SEARCH_PINS[11][1:]
        )
        assert len(multisets) == len(set(multisets)) == 44

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 1000), max_size=12).flatmap(
            lambda ds: st.tuples(st.just(ds), st.permutations(ds))
        ),
        st.sampled_from([1, 1.001, 2, Fraction(5, 2), 1e6, INFINITY]),
    )
    def test_degree_norm_ignores_order(self, pair, p):
        # the lemma behind the memo: the norm is a function of the multiset,
        # also where p = 1e6 overflows and the scaled branch runs
        degrees, permuted = pair
        assert degree_norm(permuted, p) == degree_norm(degrees, p)

    @pytest.mark.parametrize("p", [True, False, "2", None, 0.5], ids=repr)
    def test_bad_p_refused(self, p):
        # p = True answered as p = 1 before, and p = "2" escaped as TypeError
        for prune in (True, False):
            with pytest.raises(GraphError, match="norm parameter p must be"):
                optimal_spanner(cycle_graph(5), 3, p, prune=prune)

    def test_petersen_forced_whole(self):
        # girth 5 means no 3-spanner may drop an edge
        g = petersen_graph()
        res = optimal_spanner(g, 3, 2)
        assert res.optimum.kept_edges == g.edges


def kernel_graphs():
    """Unit graphs on 2..12 vertices for the hop-kernel test: edgeless, long
    paths (distances up to n - 1), two components with isolated vertices,
    dense and sparse random graphs, each with an isolated vertex or not."""
    yield Graph(12, [])
    yield path_graph(12)
    yield cycle_graph(11)
    yield complete_graph(6)
    yield petersen_graph()
    yield Graph(12, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 8), (8, 5), (9, 10)])
    rng = random.Random(36)
    for n in range(2, 13):
        for density in (0.15, 0.3, 0.6):
            top = n - 1 if rng.random() < 0.5 else n
            edges = [(u, v) for u in range(top) for v in range(u + 1, top)
                     if rng.random() < density]
            yield Graph(n, edges)


class TestMaskSpanned:
    def test_matches_within_hops(self):
        # the factory's verdict against the list BFS on every ordered pair
        # and every cap 1..n+1, isolated vertices and other components too;
        # a cap far above n costs what cap n does
        met = set()
        for g in kernel_graphs():
            adj = g.adjacency()
            mask = [sum(1 << y for y in nbrs) for nbrs in adj]
            order = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
            for cap in [*range(1, g.n + 2), 10**12]:
                spanned = _mask_spanned(mask, order, cap)
                for i, (u, v) in enumerate(order):
                    want = within_hops(adj, u, v, cap)
                    assert spanned(i) == want, (g.edges, u, v, cap)
                    met.add((min(cap, 4), want, within_hops(adj, u, v, cap - 1)))
        # each of caps 1, 2, 3 and 4+ answers yes at exactly the cap and
        # no, and caps from 2 on yes below the cap too
        assert met == {(c, w, b) for c in range(1, 5) for w, b in
                       ((True, True), (True, False), (False, False))} - {(1, True, True)}


class TestGreedyRatio:
    def test_tree(self):
        assert greedy_ratio(path_graph(5), 3, 2) == pytest.approx(1.0)

    def test_k4_reference(self):
        assert greedy_ratio(complete_graph(4), 3, 2) == pytest.approx(math.sqrt(1.2))

    def test_c5(self):
        assert greedy_ratio(cycle_graph(5), 3, 2) == pytest.approx(1.0)

    def test_dominance_random(self):
        rng = random.Random(73)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 7), rng.randint(2, 12) + 6)
            ratio = greedy_ratio(g, 3, 2)
            assert ratio >= 1.0 - 1e-12
            assert ratio <= g.n ** (63 / 128) + 1e-9

    def test_result_carries_greedy_norm(self):
        # the ratio as it was computed from a separate greedy run, bit for bit
        rng = random.Random(79)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 7), rng.randint(2, 12) + 6)
            for p in (2, 1.5, INFINITY):
                greedy_norm = lp_norm(greedy_spanner(g, 3).graph(), p)
                for prune in (True, False):
                    res = optimal_spanner(g, 3, p, prune=prune)
                    assert res.greedy_norm == greedy_norm
                    want = greedy_norm / res.optimum_norm if res.optimum_norm else 1.0
                    assert res.greedy_ratio == want
                assert greedy_ratio(g, 3, p) == want

    def test_foreign_greedy_refused(self):
        # another graph's greedy gave 0.905 here and the t = 1 greedy 2.61,
        # against a true ratio of 1.17
        g = complete_graph(6)
        for other in (greedy_spanner(path_graph(6), 3), greedy_spanner(g, 1)):
            with pytest.raises(ValueError, match="greedy is a spanner of"):
                greedy_ratio(g, 3, 2, greedy=other)
            with pytest.raises(ValueError, match="greedy is a spanner of"):
                optimal_spanner(g, 3, 2, greedy=other)

    def test_greedy_not_a_spanner_refused(self):
        # a Graph or a tuple has no base or t: refused by name, not with
        # an AttributeError
        g = complete_graph(5)
        for other in (greedy_spanner(g, 3).graph(), greedy_spanner(g, 3).kept_edges):
            with pytest.raises(ValueError, match="^greedy must be a Spanner"):
                greedy_ratio(g, 3, 2, greedy=other)
            for prune in (True, False):
                with pytest.raises(ValueError, match="^greedy must be a Spanner"):
                    optimal_spanner(g, 3, 2, prune=prune, greedy=other)

    def test_one_greedy_per_ratio(self, monkeypatch):
        calls = []

        def counting_greedy(g, t):
            calls.append(t)
            return greedy_spanner(g, t)

        monkeypatch.setattr(spanorm.oracle, "greedy_spanner", counting_greedy)
        greedy_ratio(complete_graph(4), 3, 2)
        assert calls == [3]


class TestBallGrowth:
    def test_r1_base_case(self):
        g = petersen_graph()
        report = ball_growth_check(g, lp_norm(g, 2), 3)
        assert report.inductive_ok

    def test_k4_optimal_spanner(self):
        res = optimal_spanner(complete_graph(4), 3, 2)
        report = ball_growth_check(res.optimum, res.optimum_norm, 3)
        assert report.inductive_ok
        assert not report.optimal_bound_violations

    def test_star_saturates(self):
        g = star_graph(9)
        report = ball_growth_check(g, lp_norm(g, 2), 4)
        assert report.inductive_ok
        # bound grows past the saturated ball size 10 by r = 2
        assert not report.optimal_bound_violations

    def test_petersen_optimal_bound_pinned(self):
        # a 2-norm of 3 is below the Petersen graph's own sqrt(90), so every
        # ball of radius 2 and 3 breaks the optimal-spanner bound; the bound
        # values pin its exponent
        report = ball_growth_check(petersen_graph(), 3.0, 3)
        assert report.optimal_bound_violations == PETERSEN_OPTIMAL_VIOLATIONS

    @pytest.mark.parametrize("p2_norm, r_max, name", [
        (2.0, -1, "r_max"), (2.0, True, "r_max"), (2.0, 1.0, "r_max"),
        (math.nan, 2, "p2_norm"), (math.inf, 2, "p2_norm"), (-1.0, 2, "p2_norm"),
    ])
    def test_bad_arguments_refused(self, p2_norm, r_max, name):
        # unchecked, r_max = -1 raises a bare IndexError, True runs as 1,
        # and a NaN norm gives alpha 0.0 and 8 bound violations on C4
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ball_growth_check(cycle_graph(4), p2_norm, r_max)

    def test_inductive_step_every_spanner(self):
        rng = random.Random(79)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(4, 12), rng.randint(4, 20) + 5)
            report = ball_growth_check(g, lp_norm(g, 2), 4)
            assert report.inductive_ok


class TestTwoPathCount:
    def test_path(self):
        assert two_path_count(path_graph(3)) == 6

    def test_c5(self):
        assert two_path_count(cycle_graph(5)) == 20

    def test_star(self):
        assert two_path_count(star_graph(3)) == 12

    def test_equals_norm_squared(self):
        rng = random.Random(83)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 10), rng.randint(2, 16) + 8)
            assert two_path_count(g) == pytest.approx(lp_norm(g, 2) ** 2)

    def test_girth5_cross_check_runs(self):
        two_path_count(petersen_graph())
        two_path_count(path_graph(6))
