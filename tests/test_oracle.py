"""Oracle: exhaustive vs pruned equivalence, reference values, ball growth."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanorm.oracle
from spanorm.graph_core import Graph, INFINITY, girth_at_least, lp_norm
from spanorm.greedy import Spanner, greedy_spanner, verify_stretch
from spanorm.oracle import (
    OracleSizeError,
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
        # test: 3959 within_hops calls here against 4085 with the test, and
        # the same search tree
        calls = []
        real = spanorm.oracle.within_hops
        monkeypatch.setattr(spanorm.oracle, "within_hops",
                            lambda *args: calls.append(args) or real(*args))
        g, t, p = seeded_oracle_case(16)
        res = optimal_spanner(g, t, p)
        assert (res.explored, res.pruned) == SEARCH_PINS[16][3:]
        assert len(calls) == 3959

    def test_petersen_forced_whole(self):
        # girth 5 means no 3-spanner may drop an edge
        g = petersen_graph()
        res = optimal_spanner(g, 3, 2)
        assert res.optimum.kept_edges == g.edges


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
