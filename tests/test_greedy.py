"""Greedy spanner behavior, stretch verification, and the upper-bound exponent."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanorm.graph_core import (
    Graph,
    INFINITY,
    UNBOUNDED,
    girth,
    girth_at_least,
    lp_norm,
)
from spanorm.greedy import (
    Spanner,
    greedy_spanner,
    spanner_summary,
    upper_bound_exponent,
    verify_stretch,
    verify_stretch_all_pairs,
)

from helpers import (
    complete_graph,
    cycle_graph,
    is_t_spanner_all_pairs,
    one_sided_greedy,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
    unit_graphs,
)


class TestGreedyExamples:
    def test_tree_kept_whole(self):
        g = path_graph(6)
        h = greedy_spanner(g, 3)
        assert h.kept_edges == g.edges

    def test_c5_all_edges_kept(self):
        # when the last edge comes up the alternative path has length 4 > 3
        g = cycle_graph(5)
        h = greedy_spanner(g, 3)
        assert h.kept_edges == g.edges
        assert verify_stretch(g, h, 3)

    def test_k4_gives_star(self):
        g = complete_graph(4)
        h = greedy_spanner(g, 3)
        assert h.kept_edges == ((0, 1), (0, 2), (0, 3))
        assert girth(h.graph()) == UNBOUNDED
        assert verify_stretch(g, h, 3)
        assert is_t_spanner_all_pairs(g, h.graph(), 3)

    def test_empty_graph(self):
        h = greedy_spanner(Graph(0, []), 3)
        assert h.kept_edges == ()

    def test_c6_t3_drops_nothing(self):
        g = cycle_graph(6)
        h = greedy_spanner(g, 3)
        # dropping any edge of C_6 leaves endpoints at distance 5 > 3
        assert h.kept_edges == g.edges

    def test_stretch_one_keeps_everything(self):
        g = complete_graph(5)
        h = greedy_spanner(g, 1)
        assert h.kept_edges == g.edges

    def test_invalid_stretch(self):
        with pytest.raises(ValueError):
            greedy_spanner(cycle_graph(3), 0)


class TestGreedyWeighted:
    def test_weighted_triangle_heavy_edge_dropped(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
        # d_G(0,2) = 2 via the two unit edges; budget 3*2 = 6 >= 3, so the
        # heavy edge is spanned and dropped.
        h = greedy_spanner(g, 3)
        assert h.kept_edges == ((0, 1), (1, 2))
        assert verify_stretch(g, h, 3)

    def test_weighted_edge_kept_when_needed(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 0.1})
        h = greedy_spanner(g, 2)
        assert (0, 2) in h.kept_edges

    def test_weighted_random_valid(self):
        rng = random.Random(31)
        for _ in range(10):
            base = random_connected_graph(rng, rng.randint(4, 10), rng.randint(3, 16) + 9)
            lengths = {e: rng.choice([0.5, 1.0, 2.0, 2.5]) for e in base.edges}
            g = Graph(base.n, base.edges, lengths)
            for t in (1, 2, 3):
                h = greedy_spanner(g, t)
                assert verify_stretch(g, h, t)
                assert is_t_spanner_all_pairs(g, h.graph(), t)


class TestVerifyStretch:
    def test_identity_spanner(self):
        g = petersen_graph()
        h = Spanner(base=g, kept_edges=g.edges, t=3, provenance="ORACLE")
        assert verify_stretch(g, h, 3)

    def test_c5_minus_edge_fails(self):
        g = cycle_graph(5)
        h = Spanner(base=g, kept_edges=g.edges[:-1], t=3, provenance="ORACLE")
        assert not verify_stretch(g, h, 3)

    def test_k4_star_ok(self):
        g = complete_graph(4)
        h = Spanner(base=g, kept_edges=((0, 1), (0, 2), (0, 3)), t=3)
        assert verify_stretch(g, h, 3)
        assert verify_stretch_all_pairs(g, h, 3)

    def test_foreign_edge_rejected(self):
        g = cycle_graph(4)
        h = Spanner(base=g, kept_edges=((0, 2),), t=3)
        with pytest.raises(ValueError):
            verify_stretch(g, h, 3)

    def test_edge_check_equals_all_pairs(self):
        # the per-edge criterion must agree with the all-pairs one
        rng = random.Random(37)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(4, 9), rng.randint(3, 14) + 8)
            edges = list(g.edges)
            rng.shuffle(edges)
            sub = g.subgraph(edges[: rng.randint(0, len(edges))])
            for t in (2, 3):
                assert verify_stretch(g, sub, t) == is_t_spanner_all_pairs(g, sub, t)

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(), t=st.integers(1, 7), data=st.data())
    def test_edge_check_equals_all_pairs_property(self, g, t, data):
        # a random subgraph (often not a spanner), and the same subgraph
        # plus the greedy spanner's edges (always a spanner)
        some = data.draw(st.sets(st.sampled_from(g.edges))) if g.edges else set()
        greedy = set(greedy_spanner(g, t).kept_edges)
        for kept in (some, some | greedy):
            sub = g.subgraph(sorted(kept))
            assert verify_stretch(g, sub, t) == verify_stretch_all_pairs(g, sub, t)
        assert verify_stretch(g, g.subgraph(sorted(some | greedy)), t)


class TestGreedyInvariants:
    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(max_n=16), t=st.integers(1, 7))
    def test_matches_one_sided_reference(self, g, t):
        assert greedy_spanner(g, t).kept_edges == one_sided_greedy(g, t)

    def test_girth_bound_random(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(5, 40)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
            g = random_connected_graph(rng, n, m)
            for t in (2, 3, 5):
                h = greedy_spanner(g, t)
                assert girth_at_least(h.graph(), t + 2)
                assert verify_stretch(g, h, t)

    def test_connectivity_preserved(self):
        rng = random.Random(43)
        g = random_connected_graph(rng, 12, 25)
        h = greedy_spanner(g, 3).graph()
        from spanorm.graph_core import shortest_paths

        assert all(d < math.inf for d in shortest_paths(h, 0))

    def test_idempotent(self):
        rng = random.Random(47)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(5, 15), rng.randint(6, 25) + 4)
            h = greedy_spanner(g, 3)
            again = greedy_spanner(h.graph(), 3)
            assert again.kept_edges == h.kept_edges

    def test_stretch3_desk_bound_small(self):
        rng = random.Random(53)
        for n, m in [(60, 200), (120, 700), (200, 1500)]:
            g = random_connected_graph(rng, n, m)
            h = greedy_spanner(g, 3).graph()
            for p in (1, 1.5, 2, 3):
                bound = 8 * max(n, n ** ((2 + p) / (2 * p)))
                assert lp_norm(h, p) <= bound
            assert lp_norm(h, INFINITY) <= 8 * n


class TestUpperBoundExponent:
    def test_k2_p1(self):
        assert upper_bound_exponent(2, 1) == pytest.approx(1.5)

    def test_k2_p2_threshold(self):
        assert upper_bound_exponent(2, 2) == pytest.approx(1.0)

    def test_k2_p15(self):
        assert upper_bound_exponent(2, 1.5) == pytest.approx(7 / 6)

    def test_infinity(self):
        assert upper_bound_exponent(3, INFINITY) == 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            upper_bound_exponent(0, 2)
        with pytest.raises(ValueError):
            upper_bound_exponent(2, 0.3)


def test_summary_shape():
    g = complete_graph(4)
    h = greedy_spanner(g, 3)
    s = spanner_summary(g, h)
    assert s["n"] == 4 and s["m_in"] == 6 and s["m_out"] == 3
    assert s["girth"] is None
    assert s["norms"]["1"] == pytest.approx(6.0)


def test_disconnected_input_per_component():
    # two components: greedy runs unchanged, stretch holds per component
    g = Graph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    for t in (2, 3):
        h = greedy_spanner(g, t)
        assert verify_stretch(g, h, t)
        assert is_t_spanner_all_pairs(g, h.graph(), t)
