"""Vertex classification, coverage, contribution bounds, Phi, and peeling."""

import math
import random
from fractions import Fraction as F

import pytest

from spanorm.decomposition import (
    GirthTooSmallError,
    check_coverage,
    class_contributions,
    classify,
    heavy_mass,
    peel_low_degree,
    phi,
)
from spanorm.extremal import named_girth_graph, random_bipartite_lift
from spanorm.graph_core import Graph, girth_at_least, layer_profile, lp_norm, subset_norm

from helpers import cycle_graph, petersen_graph, random_connected_graph, star_graph


def random_tree(rng, n):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


class TestClassify:
    def test_regular_low(self):
        # 3-regular on many vertices: every degree 3 <= n**(1/3)
        g = random_bipartite_lift(50, 3, 6, seed=2)
        classes = classify(g, 3)
        assert classes.low == frozenset(range(g.n))

    def test_pg23_coverage_holds_despite_girth(self):
        # classify itself has no girth precondition, and the union covers
        g = named_girth_graph("pg2_3")
        classes = classify(g, 3)
        assert classes.union() == frozenset(range(g.n))

    def test_single_vertex(self):
        g = Graph(1, [])
        classes = classify(g, 3)
        assert 0 in classes.low
        # d_i = 0 conventions put the degenerate vertex in every high class
        assert all(0 in members for members in classes.high.values())

    def test_k_below_3_rejected(self):
        with pytest.raises(ValueError):
            classify(petersen_graph(), 2)

    def test_high_class_count(self):
        g = named_girth_graph("tutte_coxeter")
        assert set(classify(g, 3).high) == {0}
        assert set(classify(g, 4).high) == {0}
        assert set(classify(g, 5).high) == {0, 1}


class TestCoverage:
    def test_petersen_k2_rejected(self):
        with pytest.raises(ValueError):
            check_coverage(petersen_graph(), 2)

    def test_pg23_k3_girth_too_small(self):
        with pytest.raises(GirthTooSmallError):
            check_coverage(named_girth_graph("pg2_3"), 3)

    def test_trees_covered(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_tree(rng, rng.randint(2, 60))
            assert check_coverage(g, 3)

    def test_named_k3(self):
        for name in ("mcgee", "tutte_coxeter"):
            assert check_coverage(named_girth_graph(name), 3)

    def test_lift_k4(self):
        g = random_bipartite_lift(200, 3, 10, seed=9)
        assert check_coverage(g, 4)


class TestContributions:
    def test_mcgee_low_dominates(self):
        g = named_girth_graph("mcgee")
        report = class_contributions(g, 3)
        assert report.norms["low"] <= g.n
        # 3-regular with 24**(1/3) = 2.88 < 3: wait, degree 3 > 2.88, so low
        # may be empty; the bound still holds trivially
        assert report.slack("low") >= 0

    def test_empty_graph(self):
        g = Graph(5, [])
        report = class_contributions(g, 3)
        assert all(v == 0 for v in report.norms.values())

    def test_bounds_on_min_degree_4(self):
        g = random_bipartite_lift(300, 4, 8, seed=11)
        report = class_contributions(g, 3)
        assert report.min_degree == 4
        for j in (0,):
            assert report.norms[("high", j)] <= 8 * g.n

    def test_girth_precondition(self):
        with pytest.raises(GirthTooSmallError):
            class_contributions(cycle_graph(4), 3)


class TestPhi:
    def test_pg23_exact_value(self):
        g = named_girth_graph("pg2_3")
        assert phi(g, 2) == F(104, 3)

    def test_phi1_is_n(self):
        for g in (petersen_graph(), named_girth_graph("pg2_3")):
            assert phi(g, 1) == g.n

    def test_robertson_bound(self):
        g = named_girth_graph("robertson")
        value = phi(g, 2)
        assert value <= 2 * g.n

    def test_direct_summation_matches(self):
        # independent recomputation from layer profiles
        g = named_girth_graph("pg2_4")
        total = F(0)
        for w in range(g.n):
            d2 = layer_profile(g, w, 2).d(2)
            total += F(sum(layer_profile(g, v, 1).d(1) for v in g.neighbors(w)), d2)
        assert phi(g, 2) == total

    def test_min_degree4_graphs(self):
        for name in ("pg2_3", "pg2_4", "pg2_5", "robertson"):
            g = named_girth_graph(name)
            assert phi(g, 2) <= 2 * g.n


class TestStructuralInequalities:
    def test_heavy_mass_examples(self):
        g = petersen_graph()
        assert heavy_mass(g) == 0
        star = star_graph(9)
        assert heavy_mass(star) == 9
        assert heavy_mass(star) <= 2 * star.n
        heavy_mass(cycle_graph(4))  # low girth: value returned, no bound

    def test_heavy_mass_bound_girth5(self):
        for name in ("petersen", "heawood", "mcgee", "robertson", "pg2_5"):
            g = named_girth_graph(name)
            assert heavy_mass(g) <= 2 * g.n

    def test_backtrack_inequality(self):
        # sum over neighbors of d_{k-1}(w) <= d_k(v) + d_1(v) d_{k-2}(v)
        cases = [("petersen", 2), ("pg2_3", 2), ("mcgee", 3), ("tutte_coxeter", 3)]
        for name, k in cases:
            g = named_girth_graph(name)
            assert girth_at_least(g, 2 * k + 1)
            for v in range(g.n):
                prof = layer_profile(g, v, k)
                lhs = sum(layer_profile(g, w, k - 1).d(k - 1) for w in g.neighbors(v))
                assert lhs <= prof.d(k) + prof.d(1) * prof.d(k - 2)

    def test_techratio(self):
        # min degree >= 4 and girth >= 2k+1
        for g, k in [
            (named_girth_graph("pg2_3"), 2),
            (named_girth_graph("robertson"), 2),
            (random_bipartite_lift(300, 4, 8, seed=11), 3),
        ]:
            total = F(0)
            for v in range(g.n):
                prof = layer_profile(g, v, k)
                num = prof.d(1) ** 2 * prof.d(k - 2)
                den = prof.d(k) + prof.d(1) * prof.d(k - 2)
                total += F(num, den)
            assert total <= 2 * g.n

    def test_upper_assuming_degree_constant(self):
        # ||G||_{k/(k-1)} <= 8 k n on min-degree-4 high-girth instances
        for g, k in [
            (named_girth_graph("pg2_3"), 2),
            (named_girth_graph("robertson"), 2),
            (random_bipartite_lift(300, 4, 8, seed=11), 3),
        ]:
            p = k / (k - 1)
            assert lp_norm(g, p) <= 8 * k * g.n

    def test_holder_reduction(self):
        # ||H||_p <= n**(1/p - (k-1)/k) ||H||_{k/(k-1)} for p < k/(k-1)
        from spanorm.greedy import greedy_spanner

        rng = random.Random(23)
        g = random_connected_graph(rng, 80, 400)
        for k in (2, 3):
            h = greedy_spanner(g, 2 * k - 1).graph()
            base = lp_norm(h, k / (k - 1))
            for p in (1.0, 1.1, 1.2):
                if p >= k / (k - 1):
                    continue
                bound = h.n ** (1 / p - (k - 1) / k) * base
                assert lp_norm(h, p) <= bound * (1 + 1e-9)


class TestPeel:
    def test_perturbation_bound(self):
        rng = random.Random(31)
        g = random_connected_graph(rng, 40, 140)
        result = peel_low_degree(g)
        # replay the peel and check the l1 change of the degree vector per step
        adj = {v: set(g.neighbors(v)) for v in range(g.n)}
        for victim in result.removed:
            before = {v: len(adj[v]) for v in adj}
            removed_deg = before[victim]
            assert removed_deg <= 3
            for u in list(adj[victim]):
                adj[u].discard(victim)
            adj[victim] = set()
            after = {v: len(adj[v]) for v in adj}
            l1 = sum(abs(before[v] - after[v]) for v in adj)
            assert l1 == 2 * removed_deg <= 6

    def test_core_min_degree(self):
        rng = random.Random(37)
        for _ in range(5):
            g = random_connected_graph(rng, 30, rng.randint(60, 120))
            result = peel_low_degree(g)
            if result.core:
                assert min(result.graph.degree(v) for v in result.core) >= 4
            for v in result.removed:
                assert result.graph.degree(v) == 0

    def test_high_girth_regular_survives(self):
        g = named_girth_graph("pg2_3")  # 4-regular
        result = peel_low_degree(g)
        assert result.core == frozenset(range(g.n))
