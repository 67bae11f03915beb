"""Vertex classification, coverage, contribution bounds, Phi, and peeling."""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from spanorm import decomposition, graph_core
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
from spanorm.graph_core import (
    Graph,
    girth,
    girth_at_least,
    layer_profile,
    lp_norm,
    subset_norm,
)
from spanorm.greedy import greedy_spanner

from helpers import (
    bipartite_graphs,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)

NAMED = ("petersen", "heawood", "mcgee", "robertson", "tutte_coxeter",
         "pg2_2", "pg2_3", "pg2_4", "pg2_5")

# sha256 of decomposition_outputs_digest(), recorded when every layer count
# came from a BFS per vertex: the classes, norms and Phi must not move with
# the way the counts are made.
DECOMPOSITION_PIN = "776fdc7fd6f50e26f5e9ba62e50d33d68addb84c7516ae6961b79073ba4c86e0"


def random_tree(rng, n):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def pin_cases():
    """``(label, graph, ks)`` for the pin: the named graphs, the acceptance
    lifts, the two ``desk_suite`` lift sizes at seeds 0-7, graphs below the
    girth bound of every k they are read at, and forests, whose layers run
    out before k."""
    for name in NAMED:
        yield name, named_girth_graph(name), (3, 4, 5)
    yield "lift_4reg_g8", random_bipartite_lift(300, 4, 8, seed=11), (3, 4)
    yield "lift_3reg_g10", random_bipartite_lift(350, 3, 10, seed=5), (3, 4, 5)
    for seed in range(8):
        yield f"lift.300.4.8.{seed}", random_bipartite_lift(300, 4, 8, seed=seed), (3,)
        yield f"lift.350.3.10.{seed}", random_bipartite_lift(350, 3, 10, seed=seed), (4,)
    for n in range(3, 11):
        yield f"cycle.{n}", cycle_graph(n), (3, 4, 5)
    yield "k5", complete_graph(5), (3, 4, 5)
    rng = random.Random(41)
    for i in range(6):
        g = random_connected_graph(rng, 16 + 4 * i, 24 + 10 * i)
        yield f"random.{i}", g, (3, 4, 5)
    for i in range(4):
        yield f"tree.{i}", random_tree(rng, 5 + 9 * i), (3, 4, 5, 12)
    yield "star.9", star_graph(9), (3, 4, 12)
    yield "forest", Graph(7, [(0, 1), (1, 2), (4, 5)]), (3, 5, 12)
    yield "empty.1", Graph(1, []), (3, 4)
    yield "empty.5", Graph(5, []), (3, 4)


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the name is pinned too
        return type(exc).__name__


def decomposition_outputs_digest() -> str:
    lines = []
    for label, g, ks in pin_cases():
        for k in ks:
            classes = _outcome(classify, g, k)
            if not isinstance(classes, str):
                classes = (sorted(classes.low), sorted(classes.med),
                           [(j, sorted(classes.high[j])) for j in sorted(classes.high)])
            report = _outcome(class_contributions, g, k)
            if not isinstance(report, str):
                report = (sorted((repr(key), repr(v)) for key, v in report.norms.items()),
                          report.min_degree)
            lines.append(repr((label, k, classes, report)))
        for k in (1, 2) + ks:
            value = _outcome(phi, g, k)
            if isinstance(value, F):
                value = (value.numerator, value.denominator)
            lines.append(repr((label, k, value)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


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


def bfs_table(g, r):
    """``d_0(v) .. d_r(v)`` for every v, one BFS per vertex: the definition."""
    return [layer_profile(g, v, r).counts for v in range(g.n)]


def as_table(rows, n, r):
    """Per-vertex tuples of ``rows``, read as 0 past the last row given."""
    rows = rows + [[0] * n] * (r + 1 - len(rows))
    return [tuple(row[v] for row in rows) for v in range(n)]


def assert_walks_match(g, max_r=10):
    """The recurrence equals the BFS at every r with girth >= 2r+1."""
    top = girth(g)
    r = 0
    while r <= max_r and top >= 2 * r + 1:
        assert as_table(decomposition._walk_rows(g, r), g.n, r) == bfs_table(g, r), r
        r += 1


class TestLayerCounts:
    def test_outputs_pinned(self):
        assert decomposition_outputs_digest() == DECOMPOSITION_PIN

    def test_walks_match_bfs_on_trees(self):
        rng = random.Random(3)
        for _ in range(20):
            assert_walks_match(random_tree(rng, rng.randint(1, 40)), max_r=12)

    def test_walks_match_bfs_on_greedy_spanners(self):
        rng = random.Random(17)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(10, 40), rng.randint(40, 120))
            for t in range(3, 10):
                assert_walks_match(greedy_spanner(g, t).graph())

    @settings(max_examples=150, deadline=None)
    @given(pair=bipartite_graphs())
    def test_walks_match_bfs_on_bipartite_graphs(self, pair):
        for g in pair:
            assert_walks_match(g)

    def test_walks_match_bfs_on_named_graphs_and_lifts(self):
        for name in NAMED:
            assert_walks_match(named_girth_graph(name))
        for seed in (0, 1, 2):
            assert_walks_match(random_bipartite_lift(60, 3, 8, seed=seed))
            assert_walks_match(random_bipartite_lift(120, 3, 10, seed=seed))

    def test_low_girth_takes_bfs(self, monkeypatch):
        # below girth 2r+1 the walks overcount, so the BFS must answer
        pg23 = named_girth_graph("pg2_3")
        assert as_table(decomposition._walk_rows(pg23, 3), pg23.n, 3) != bfs_table(pg23, 3)
        cases = [(pg23, 3)] + [(cycle_graph(n), k) for k in (3, 4, 5) for n in range(3, 2 * k + 1)]
        expected = [(classify(g, k), _outcome(phi, g, k)) for g, k in cases]

        def refuse(g, radius):
            raise AssertionError("walk recurrence used below the girth bound")

        monkeypatch.setattr(decomposition, "_walk_rows", refuse)
        # a triangle with two tails: vertex 0's layers run out before vertex 5's
        lollipop = Graph(6, [(0, 1), (0, 2), (1, 5), (2, 3), (2, 4), (3, 4)])
        for r in range(8):
            assert as_table(decomposition._layer_rows(lollipop, r, False), 6, r) == bfs_table(lollipop, r)
        for (g, k), want in zip(cases, expected):
            assert as_table(decomposition._layer_rows(g, k, False), g.n, k) == bfs_table(g, k)
            assert (classify(g, k), _outcome(phi, g, k)) == want

    def test_one_girth_verdict_per_call(self, monkeypatch):
        calls = []

        def counted(g, bound):
            calls.append(bound)
            return girth_at_least(g, bound)

        monkeypatch.setattr(decomposition, "girth_at_least", counted)
        g = named_girth_graph("mcgee")
        for call in (classify, check_coverage, class_contributions, phi):
            calls.clear()
            call(g, 3)
            assert calls == [7], call.__name__

    def test_named_graph_build_leaves_its_girth(self, monkeypatch):
        # McGee's build proves its girth 7 in two scans (a witness, then
        # nothing shorter) and keeps it, so the k = 3 calls, which need girth
        # >= 7, scan nothing more
        scans = []
        search = graph_core.short_cycle

        def counted(adj, limit, roots=None):
            scans.append(limit)
            return search(adj, limit, roots)

        monkeypatch.setattr(graph_core, "short_cycle", counted)
        g = named_girth_graph("mcgee")
        assert len(scans) == 2 and scans[-1] == 6
        assert check_coverage(g, 3)
        class_contributions(g, 3)
        phi(g, 3)
        assert len(scans) == 2

    @pytest.mark.parametrize("side, degree, min_girth, k", [(300, 4, 8, 3), (350, 3, 10, 4)])
    def test_lift_leaves_its_girth_proof(self, monkeypatch, side, degree, min_girth, k):
        # the lift's final girth check proves girth >= min_girth - 1 on the
        # graph it returns, so the decomposition calls after it scan nothing
        g = random_bipartite_lift(side, degree, min_girth, seed=11)
        scans = []
        search = graph_core.short_cycle

        def counted(adj, limit, roots=None):
            scans.append(limit)
            return search(adj, limit, roots)

        monkeypatch.setattr(graph_core, "short_cycle", counted)
        assert check_coverage(g, k)
        class_contributions(g, k)
        phi(g, 3)
        assert scans == []
        # a copy that was never verified is scanned once for all three
        copy = Graph(g.n, g.edges)
        assert check_coverage(copy, k)
        class_contributions(copy, k)
        phi(copy, 3)
        assert scans == [2 * k]

    def test_layers_past_the_last_stop(self):
        # a path's layers run out after 3 hops; a huge k builds none past them
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert len(decomposition._layer_rows(g, 10**6, True)) == 4
        assert check_coverage(g, 10**5)
        ring = cycle_graph(5)
        assert len(decomposition._layer_rows(ring, 10**6, False)) == 3

    def test_non_int_k_refused(self):
        g = named_girth_graph("mcgee")
        for call in (classify, check_coverage, class_contributions, phi):
            for k in (3.0, F(3), True):
                with pytest.raises(ValueError, match=r"^k must be an integer") as info:
                    call(g, k)
                assert info.type is ValueError, (call.__name__, k)
