"""Oracle: exhaustive vs pruned equivalence, reference values, ball growth."""

import math
import random

import pytest

import spanorm.oracle
from spanorm.graph_core import Graph, INFINITY, girth_at_least, lp_norm
from spanorm.greedy import Spanner, greedy_spanner
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
    star_graph,
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
