"""Greedy spanner behavior, stretch verification, and the upper-bound exponent."""

import math
import random
from fractions import Fraction
from unittest import mock

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
import spanorm.graph_core as graph_core_module
import spanorm.greedy as greedy_module
from spanorm.greedy import (
    Spanner,
    _spans_by_balls,
    _unspanned,
    greedy_spanner,
    spanner_summary,
    upper_bound_exponent,
    verify_stretch,
)

from helpers import (
    complete_graph,
    cycle_graph,
    floyd_warshall,
    one_sided_greedy,
    path_graph,
    petersen_graph,
    random_connected_graph,
    reference_spans_by_hops,
    reference_unit_greedy,
    reference_weighted_greedy,
    reference_within_length,
    star_graph,
    unit_graphs,
    verify_stretch_all_pairs,
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
        assert verify_stretch_all_pairs(g, h, 3)

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

    @pytest.mark.parametrize("t", [2.5, 3.0, Fraction(3), Fraction(5, 2), True, "3"])
    def test_non_int_stretch_refused(self, t):
        # one rule on unit and weighted graphs alike: the stretch is an int
        unit = cycle_graph(5)
        weighted = Graph(3, [(0, 1), (1, 2), (0, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
        for g in (unit, weighted):
            with pytest.raises(ValueError, match="positive integer"):
                greedy_spanner(g, t)
            with pytest.raises(ValueError, match="positive integer"):
                verify_stretch(g, g, t)


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

    @settings(max_examples=150, deadline=None)
    @given(g=unit_graphs(max_n=10), t=st.integers(1, 5), data=st.data())
    def test_weighted_output_passes_all_pairs_property(self, g, t, data):
        lengths = data.draw(st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.25)),
                                     min_size=g.m, max_size=g.m))
        wg = Graph(g.n, g.edges, dict(zip(g.edges, lengths)))
        h = greedy_spanner(wg, t)
        assert verify_stretch_all_pairs(wg, h, t)
        assert verify_stretch(wg, h, t)

    @settings(max_examples=200, deadline=None)
    @given(g=unit_graphs(max_n=10), t=st.integers(1, 5), data=st.data())
    def test_matches_reference_weighted_greedy(self, g, t, data):
        # lengths 1..3 make edges longer than d_G common and every sum exact
        lengths = data.draw(st.lists(st.integers(1, 3), min_size=g.m, max_size=g.m))
        wg = Graph(g.n, g.edges, dict(zip(g.edges, lengths)))
        assert greedy_spanner(wg, t).kept_edges == reference_weighted_greedy(wg, t)

    def test_weighted_random_valid(self):
        rng = random.Random(31)
        for _ in range(10):
            base = random_connected_graph(rng, rng.randint(4, 10), rng.randint(3, 16) + 9)
            lengths = {e: rng.choice([0.5, 1.0, 2.0, 2.5]) for e in base.edges}
            g = Graph(base.n, base.edges, lengths)
            for t in (1, 2, 3):
                h = greedy_spanner(g, t)
                assert verify_stretch(g, h, t)
                assert verify_stretch_all_pairs(g, h, t)


    def test_matches_one_directional_search_seeded(self, monkeypatch):
        # kept edges and stretch verdicts (the spanner and up to five
        # one-edge-short non-spanners) with the library's bidirectional
        # search, then with the one-directional reference in its place
        rng = random.Random(2101)
        cases = []
        for i in range(300):
            n = rng.randint(5, 120)
            base = random_connected_graph(rng, n, rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n)))
            draw = (lambda: rng.uniform(0.7, 5.0),
                    lambda: rng.choice((0.1, 0.2, 0.3, 0.6, 0.7, 1.0, 1.5, 2.25, 5.0)),
                    lambda: rng.randint(1, 5))[i % 3]
            g = Graph(n, base.edges, {e: draw() for e in base.edges})
            t = rng.choice((1, 2, 3, 5))
            cases.append((g, t, rng.random()))

        def outcomes():
            out = []
            for g, t, pick in cases:
                h = greedy_spanner(g, t)
                short = random.Random(pick).sample(h.kept_edges, min(5, h.m))
                verdicts = [verify_stretch(g, h, t)] + [
                    verify_stretch(g, g.subgraph(set(h.kept_edges) - {e}), t) for e in short
                ]
                out.append((h.kept_edges, verdicts))
            return out

        mine = outcomes()
        monkeypatch.setattr(greedy_module, "within_length", reference_within_length)
        assert mine == outcomes()
        verdicts = [v for _, vs in mine for v in vs]
        assert verdicts.count(True) == len(cases) and verdicts.count(False) > 1000


class TestVerifyStretch:
    def test_identity_spanner(self):
        g = petersen_graph()
        h = Spanner(base=g, kept_edges=g.edges, t=3)
        assert verify_stretch(g, h, 3)

    def test_c5_minus_edge_fails(self):
        g = cycle_graph(5)
        h = Spanner(base=g, kept_edges=g.edges[:-1], t=3)
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

    @pytest.mark.parametrize("g, h", [
        # H's length 5 is not G's unit length
        (Graph(2, [(0, 1)]), Graph(2, [(0, 1)], {(0, 1): 5.0})),
        (Graph(3, [(1, 2), (0, 2)]), Graph(3, [(0, 1)])),
        (Graph(3, [(0, 1)]), Graph(2, [(0, 1)])),
        (Graph(3, [(0, 1), (1, 2)], {(0, 1): 1.0, (1, 2): 2.0}), Graph(3, [(0, 1), (1, 2)])),
        (Graph(3, [(0, 1), (1, 2)], {(0, 1): 1.0, (1, 2): 2.0}),
         Graph(3, [(0, 1)], {(0, 1): 0.5})),
        (Graph(3, [(0, 1), (1, 2)], {(0, 1): 1.0, (1, 2): 2.0}),
         Graph(3, [(0, 1), (0, 2)], {(0, 1): 1.0, (0, 2): 1.0})),
    ], ids=["weighted-h", "foreign-edge", "other-n", "unit-h", "other-length", "foreign-weighted"])
    def test_non_subgraph_rejected(self, g, h):
        with pytest.raises(ValueError, match="not a subgraph"):
            verify_stretch(g, h, 3)

    def test_spanner_of_another_base_rejected(self):
        # a Spanner gets the same check as a Graph: its base is not G
        g = Graph(3, [(1, 2), (0, 2)])
        other = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not a subgraph"):
            verify_stretch(g, Spanner(base=other, kept_edges=((0, 1),), t=3), 3)
        wg = Graph(3, [(1, 2), (0, 2)], {(1, 2): 1.0, (0, 2): 1.0})
        with pytest.raises(ValueError, match="not a subgraph"):
            verify_stretch(wg, Spanner(base=g, kept_edges=g.edges, t=3), 3)
        assert verify_stretch(wg, Spanner(base=wg, kept_edges=wg.edges, t=3), 3)

    def test_edge_check_equals_all_pairs(self):
        # the per-edge criterion must agree with the all-pairs one
        rng = random.Random(37)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(4, 9), rng.randint(3, 14) + 8)
            edges = list(g.edges)
            rng.shuffle(edges)
            sub = g.subgraph(edges[: rng.randint(0, len(edges))])
            for t in (2, 3):
                assert verify_stretch(g, sub, t) == verify_stretch_all_pairs(g, sub, t)

    @settings(max_examples=300, deadline=None)
    @given(g=unit_graphs(), t=st.integers(1, 7), data=st.data())
    def test_edge_check_equals_all_pairs_property(self, g, t, data):
        # a random subgraph (often not a spanner), and the same subgraph
        # plus the greedy spanner's edges (always a spanner); unit lengths,
        # or dyadic ones, which keep every sum exact
        if data.draw(st.booleans()):
            lengths = data.draw(st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.25)),
                                         min_size=g.m, max_size=g.m))
            g = Graph(g.n, g.edges, dict(zip(g.edges, lengths)))
        some = data.draw(st.sets(st.sampled_from(g.edges))) if g.edges else set()
        greedy = set(greedy_spanner(g, t).kept_edges)
        for kept in (some, some | greedy):
            sub = g.subgraph(sorted(kept))
            assert verify_stretch(g, sub, t) == verify_stretch_all_pairs(g, sub, t)
        assert verify_stretch(g, g.subgraph(sorted(some | greedy)), t)


class TestBallMasks:
    """The unit stretch check by ball bitmasks against one ``within_hops``
    query per edge (``reference_spans_by_hops``)."""

    @settings(max_examples=200, deadline=None)
    @given(g=unit_graphs(max_n=20), t=st.integers(0, 8), data=st.data())
    def test_mask_verdict_equals_per_edge_bfs(self, g, t, data):
        # H is a random edge subset of G (often not a spanner) and G itself
        # (a spanner for t >= 1), so both verdicts occur
        some = data.draw(st.sets(st.sampled_from(g.edges))) if g.edges else set()
        for h in (g.subgraph(sorted(some)), g):
            want = reference_spans_by_hops(h.adjacency(), g.edges, t)
            assert _spans_by_balls(h.adjacency(), g.edges, t) == want
            assert verify_stretch(g, h, t) == want

    def test_multi_word_masks_seeded(self):
        # masks of a few hundred bits span several machine words
        rng = random.Random(59)
        verdicts = set()
        for _ in range(12):
            n = rng.randint(100, 300)
            g = random_connected_graph(rng, n, rng.randint(n, 3 * n))
            sub = g.subgraph([e for e in g.edges if rng.random() < 0.85])
            for t in range(9):
                for h in (sub, greedy_spanner(g, max(t, 1)).graph()):
                    want = reference_spans_by_hops(h.adjacency(), g.edges, t)
                    assert _spans_by_balls(h.adjacency(), g.edges, t) == want
                    verdicts.add(want)
        assert verdicts == {True, False}

    def test_gate_picks_the_branch(self, monkeypatch):
        # masks up to 4096 vertices (as the README states), the ball-caching
        # scan above
        def refuse(*args):
            raise AssertionError("wrong branch")

        at_gate = Graph(4096, [(0, 1), (1, 2)])
        above = Graph(4097, [(0, 1), (1, 2)])
        monkeypatch.setattr(greedy_module, "_unspanned", refuse)
        assert verify_stretch(at_gate, at_gate, 3)
        monkeypatch.undo()
        monkeypatch.setattr(greedy_module, "_spans_by_balls", refuse)
        assert verify_stretch(above, above, 3)
        assert not verify_stretch(above, above.subgraph([(0, 1)]), 3)

    def test_above_gate_agrees(self, monkeypatch):
        # with the gate lowered to 0 every graph takes the scan
        rng = random.Random(61)
        cases = []
        for _ in range(10):
            n = rng.randint(4, 40)
            g = random_connected_graph(rng, n, rng.randint(n, 2 * n))
            h = g.subgraph([e for e in g.edges if rng.random() < 0.8])
            for t in range(-1, 9):
                cases.append((g, h, t, verify_stretch(g, h, t)))
        assert {want for *_, want in cases} == {True, False}
        monkeypatch.setattr(greedy_module, "_BALL_MASK_MAX_N", 0)
        for g, h, t, want in cases:
            assert verify_stretch(g, h, t) == want

    @pytest.mark.parametrize("t", [0, -1, -4])
    def test_nonpositive_stretch_fails_any_edge(self, t):
        g = cycle_graph(5)
        assert not verify_stretch(g, g, t)
        assert not verify_stretch(Graph(2, [(0, 1)]), Graph(2, [(0, 1)]), t)
        assert verify_stretch(Graph(3, []), Graph(3, []), t)


class TestUnitScan:
    """The unit greedy's ball-caching scan (``_unspanned``) against one
    ``within_hops`` query per edge (``reference_unit_greedy``)."""

    def test_matches_per_edge_bfs_seeded(self):
        rng = random.Random(2201)
        kept = dropped = 0
        for _ in range(60):
            n = rng.randint(100, 500)
            m = round(math.exp(rng.uniform(math.log(n), math.log(n ** 1.5))))
            g = random_connected_graph(rng, n, min(m, n * (n - 1) // 2))
            t = rng.randint(1, 8)
            h = greedy_spanner(g, t)
            assert h.kept_edges == reference_unit_greedy(g, t)
            kept += h.m
            dropped += g.m - h.m
        assert kept > 0 and dropped > 0

    @settings(max_examples=200, deadline=None)
    @given(g=unit_graphs(max_n=14), t=st.integers(1, 8), extra=st.integers(0, 4),
           data=st.data())
    def test_isolated_vertices(self, g, t, extra, data):
        # isolated vertices scattered among the ids by a random relabelling
        label = data.draw(st.permutations(range(g.n + extra)))
        g = Graph(g.n + extra, [(label[u], label[v]) for u, v in g.edges])
        assert greedy_spanner(g, t).kept_edges == reference_unit_greedy(g, t)

    @settings(max_examples=100, deadline=None)
    @given(leaves=st.integers(0, 12), t=st.integers(1, 8), data=st.data())
    def test_stars(self, leaves, t, data):
        label = data.draw(st.permutations(range(leaves + 1)))
        g = Graph(leaves + 1, [(label[u], label[v]) for u, v in star_graph(leaves).edges])
        h = greedy_spanner(g, t)
        assert h.kept_edges == g.edges == reference_unit_greedy(g, t)

    @pytest.mark.parametrize("t", range(1, 9))
    def test_complete_graphs(self, t):
        for k in range(1, 13):
            g = complete_graph(k)
            h = greedy_spanner(g, t)
            assert h.kept_edges == reference_unit_greedy(g, t)
            # K_k is its own 1-spanner; for t >= 2 the greedy keeps 0's star
            assert h.m == (g.m if t == 1 else max(k - 1, 0))

    @settings(max_examples=300, deadline=None)
    @given(g=unit_graphs(max_n=16), t=st.sampled_from((1, 2)))
    def test_small_even_and_unit_stretch(self, g, t):
        # t = 2 is even, so the source ball's radius a = 1 and a - 1 < b = 1;
        # t = 1 never searches beyond v
        assert greedy_spanner(g, t).kept_edges == reference_unit_greedy(g, t)

    @settings(max_examples=200, deadline=None)
    @given(g=unit_graphs(max_n=14), t=st.integers(0, 8), data=st.data())
    def test_above_gate_on_one_edge_short_spanners(self, g, t, data):
        # the greedy spanner less one kept edge: spanned or not, the scan
        # must agree with the masks and with one query per edge
        h = greedy_spanner(g, max(t, 1))
        hs = [h.graph()]
        if h.m:
            drop = data.draw(st.sampled_from(h.kept_edges))
            hs.append(g.subgraph([e for e in h.kept_edges if e != drop]))
        for sub in hs:
            want = reference_spans_by_hops(sub.adjacency(), g.edges, t)
            assert _spans_by_balls(sub.adjacency(), g.edges, t) == want
            with mock.patch.object(greedy_module, "_BALL_MASK_MAX_N", 0):
                assert verify_stretch(g, sub, t) == want

    def test_no_within_hops_and_one_source_ball_per_vertex(self, monkeypatch):
        # K_60 at t = 3: the per-edge search asked within_hops once per edge
        # (1770 calls) and walked the hub's adjacency once per edge (1711
        # times); the scan asks it never and reads the hub once per source
        g = complete_graph(60)
        calls = []

        def counting(*args):
            calls.append(args[1:3])
            return real(*args)

        real = graph_core_module.within_hops
        monkeypatch.setattr(graph_core_module, "within_hops", counting)
        monkeypatch.setattr(greedy_module, "within_hops", counting, raising=False)
        assert greedy_spanner(g, 3).kept_edges == tuple((0, v) for v in range(1, 60))
        assert calls == []

        class Counted(list):
            def __iter__(self):
                reads[self.vertex] += 1
                return super().__iter__()

        reads = [0] * g.n
        adj = []
        for x in range(g.n):
            adj.append(Counted())
            adj[x].vertex = x
        kept = list(_unspanned(adj, g.edges, 3))
        assert kept == [(0, v) for v in range(1, 60)]
        # u's ball of radius 2 reads u's and the hub's adjacency once per
        # run; v's ball of radius 1 reads v's adjacency only when v is not
        # yet in u's ball, which happens on the hub's own run alone
        assert reads[0] == g.n - 1
        assert all(r <= 2 for r in reads[1:])


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
        assert all(d < math.inf for d in floyd_warshall(h)[0])

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
        assert verify_stretch_all_pairs(g, h, t)
