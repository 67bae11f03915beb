"""Layered instance generators, named graphs, lifts, and tightness families."""

import hashlib
import math
import random
import time
from fractions import Fraction as F

import pytest

from spanorm import extremal
from spanorm.extremal import (
    LayeredInstance,
    build_from_lp,
    build_lcr,
    build_skewed,
    build_tightness,
    named_girth_graph,
    random_bipartite_lift,
)
from spanorm.graph_core import (Graph, format_edge_list, girth, girth_at_least, lp_norm,
                                short_cycle)
from spanorm.greedy import greedy_spanner, verify_stretch
from spanorm.lb_lp import (
    LcrParams,
    SKEW_LEFT,
    SKEW_NONE,
    SKEW_RIGHT,
    build_model,
    derive_lcr,
    minimal_spanner_primal,
    solve,
)

from helpers import reference_bipartite_lift, reference_layered_text
from test_acceptance import GRID_PS


class TestNamedGraphs:
    @pytest.mark.parametrize(
        "name,n,degree,girth_value",
        [
            ("petersen", 10, 3, 5),
            ("heawood", 14, 3, 6),
            ("mcgee", 24, 3, 7),
            ("robertson", 19, 4, 5),
            ("tutte_coxeter", 30, 3, 8),
            ("pg2_2", 14, 3, 6),
            ("pg2_3", 26, 4, 6),
            ("pg2_4", 42, 5, 6),
            ("pg2_5", 62, 6, 6),
        ],
    )
    def test_documented_triples(self, name, n, degree, girth_value):
        g = named_girth_graph(name)
        assert g.n == n
        assert set(g.degrees()) == {degree}
        assert girth(g) == girth_value

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_girth_graph("nosuch")

    def test_pg2_2_is_heawood_sized(self):
        assert named_girth_graph("pg2_2").n == named_girth_graph("heawood").n


class TestLifts:
    def test_girth_and_regularity(self):
        g = random_bipartite_lift(120, 4, 6, seed=3)
        assert set(g.degrees()) == {4}
        assert girth_at_least(g, 6)

    @pytest.mark.parametrize("seed, digest", [
        (1, "9e9dbbecfd46df702c82cceca5861894b38101eb51041c0968e7bca4a7fb7aa4"),
        (2, "c74fcd592caf36d616054a08f2d8d61dc27fbc0932341a172aa42017b8330697"),
    ])
    def test_edge_lists_pinned(self, seed, digest):
        # the generator's output is part of its contract (seeded reruns are
        # byte-identical); each seed needs ten rounds of cycle search and repair
        g = random_bipartite_lift(40, 3, 8, seed=seed)
        assert hashlib.sha256(format_edge_list(g).encode()).hexdigest() == digest

    def test_deterministic(self):
        a = random_bipartite_lift(80, 3, 8, seed=17)
        b = random_bipartite_lift(80, 3, 8, seed=17)
        assert a.edges == b.edges

    @pytest.mark.parametrize("side, degree, min_girth", [
        (20, 3, 6), (20, 4, 6), (30, 4, 6), (40, 3, 8), (50, 4, 6), (60, 3, 8),
        (90, 3, 9), (100, 3, 10), (120, 4, 6), (130, 3, 10), (150, 3, 8),
        (150, 4, 8), (150, 3, 10), (150, 3, 7),
    ])
    def test_matches_restart_from_root_zero(self, side, degree, min_girth):
        # the partial rescan repairs the same cycle, round by round, as a
        # search restarted at root 0
        for seed in range(3):
            assert (random_bipartite_lift(side, degree, min_girth, seed).edges
                    == reference_bipartite_lift(side, degree, min_girth, seed).edges)

    @pytest.mark.parametrize("side, degree, min_girth, seed, digest", [
        (300, 4, 8, 11, "247053daddfcd7389bef96f91893acb90147e6afde6ceba3ab9e0219e06f25e6"),
        (350, 3, 10, 5, "eadba84dd62f8765bde0adf9d5f87ac8de30768d38c7027eef860a13621de41a"),
    ])
    def test_acceptance_lifts_pinned(self, side, degree, min_girth, seed, digest):
        # the lifts of the acceptance suite, as the restart-from-root-0 search built them
        g = random_bipartite_lift(side, degree, min_girth, seed=seed)
        assert hashlib.sha256(format_edge_list(g).encode()).hexdigest() == digest

    @pytest.mark.parametrize("side, degree, min_girth", [
        (20, 3, 10), (20, 3, 9), (30, 3, 10), (2, 3, 2), (30, 4, 8), (12, 4, 6),
    ])
    def test_sizes_below_moore_bound_refused(self, side, degree, min_girth):
        # a side of a d-regular bipartite graph of girth >= 2k holds at least
        # sum((d-1)**i for i < k) vertices, and d of them; no repair round runs
        started = time.perf_counter()
        with pytest.raises(ValueError, match="no .*-regular bipartite graph"):
            random_bipartite_lift(side, degree, min_girth, seed=0)
        assert time.perf_counter() - started < 0.1

    @pytest.mark.parametrize("side, degree, min_girth, seed", [
        (15, 3, 8, 0), (4, 4, 4, 1), (3, 3, 4, 15),
    ])
    def test_unreached_size_gives_up_soon(self, side, degree, min_girth, seed):
        # each size exists (the Tutte-Coxeter graph, K_{4,4}, K_{3,3}) but this
        # seed's repair does not reach it; 30,000 rounds took 5-21 s
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="did not converge"):
            random_bipartite_lift(side, degree, min_girth, seed)
        assert time.perf_counter() - started < 2

    def test_sizes_at_moore_bound_built(self):
        # the bound itself is not refused: the Heawood graph, K_{3,3}, C_10
        for side, degree, min_girth in ((7, 3, 6), (3, 3, 4), (5, 2, 10)):
            g = random_bipartite_lift(side, degree, min_girth, seed=0)
            assert set(g.degrees()) == {degree} and girth_at_least(g, min_girth)

    def test_later_rounds_search_fewer_roots(self, monkeypatch):
        # after a hit at root h, a round scans only the roots below h near
        # the last swap, then h, h+1, ...
        scans = []

        def recorded(adj, limit, roots=None):
            roots = range(len(adj)) if roots is None else list(roots)
            hit = short_cycle(adj, limit, roots)
            scans.append((list(roots), hit))
            return hit

        monkeypatch.setattr(extremal, "short_cycle", recorded)
        g = random_bipartite_lift(300, 4, 8, seed=11)
        assert scans[0][0] == list(range(g.n)) and scans[-1][1] is None
        searched = restarted = 0
        for (_, (_, _, _, h)), (roots, _) in zip(scans, scans[1:]):
            below = [r for r in roots if r < h]
            assert below == sorted(set(below))
            assert roots[len(below):] == list(range(h, g.n))
            searched += len(below)
            restarted += h
        assert searched < restarted / 2


class TestBuildLcr:
    def test_111_p2_sizes(self):
        inst = build_lcr(LcrParams(1, 1, 1), 2.0, 16)
        assert inst.layer_sizes == (256, 16, 16, 256)

    def test_c0_form(self):
        inst = build_lcr(LcrParams(1, 0, 1), 2.0, 8)
        assert inst.layer_sizes == (8, 1, 8)
        # one central vertex joined to both sides: norm is Theta(side size)
        assert inst.spanner_norm() == pytest.approx(math.sqrt(2 * 8 + 16**2), rel=1e-12)

    def test_stretch_verified_exhaustively_small(self):
        for params, p, size in [
            (LcrParams(1, 1, 1), 2.0, 8),
            (LcrParams(2, 0, 2), 1.3, 8),
            (LcrParams(0, 1, 2), 10.0, 8),
            (LcrParams(2, 1, 2), 2.0, 4),
        ]:
            inst = build_lcr(params, p, size)
            assert verify_stretch(inst.host_graph(), inst.spanner(), inst.t)
            assert inst.verify()

    def test_virtual_counts_match_materialized(self):
        # same instance, degree multisets from rules vs from the real graph
        for params, p, size in [
            (LcrParams(1, 1, 1), 2.0, 12),
            (LcrParams(2, 1, 2), 2.0, 5),
            (LcrParams(0, 1, 2), 10.0, 9),
            (LcrParams(2, 0, 2), 1.3, 9),
        ]:
            inst = build_lcr(params, p, size)
            from collections import Counter

            assert inst.spanner_degree_counts() == Counter(inst.spanner().degrees())
            host = inst.host_graph()
            assert inst.host_degree_counts() == Counter(host.degrees())

    def test_equal_contribution_within_rounding(self):
        inst = build_lcr(LcrParams(2, 1, 2), 2.0, 32)
        p = 2.0
        sizes = inst.layer_sizes
        contribs = []
        for i, gap in enumerate(inst.gaps, start=1):
            a, b = sizes[i - 1], sizes[i]
            if gap.kind == "contract":
                contribs.append(b * (a / b) ** p)
            elif gap.kind == "expand":
                contribs.append(a * (b / a) ** p)
            else:
                contribs.append(a * gap.d**p)
        lo, hi = min(contribs), max(contribs)
        assert hi <= lo * 2**p * (1 + 1e-9)

    def test_rule_verdict_matches_stretch_fuzz(self):
        # the rule-based verdict against the BFS check on the materialised
        # host, over plain and skewed shapes with C = 0..2; a right skew with
        # C = 0, and a skew of degree > 1 with no section for its junction,
        # are refused, and those are the only shapes the fuzz draws that fail
        # to span (the mutant tests below cover agreement on False verdicts)
        rng = random.Random(2024)
        cases = [((1, 0, 2, SKEW_LEFT), 2.0, 48, 0.7)]
        for _ in range(150):
            L, C, R = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            skew = rng.choice([SKEW_NONE, SKEW_LEFT, SKEW_RIGHT])
            top = 1.0 / (C + 1) if C else 1.0
            cases.append(((L, C, R, skew), rng.choice([1.3, 2.0, 3.0, 5.0]),
                          rng.choice([2, 3, 4, 6, 9, 16]), rng.uniform(0.0, top)))
        # t = 1: the biclique is the whole host and contains the spanner
        cases += [((*shape, SKEW_NONE), 2.0, 9, 0.0)
                  for shape in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        cases = [case for case in cases if sum(case[0][:3])]

        def refusal(case):
            (L, C, R, skew), p, center, exponent = case
            if skew == SKEW_RIGHT and C == 0:
                return "right skew needs C >= 1"
            if round(center**exponent) > 1 and (skew, 0) in ((SKEW_LEFT, L), (SKEW_RIGHT, R)):
                return "junction"
            return None

        verdicts = []
        refused = []
        for case in cases:
            (L, C, R, skew), p, center, exponent = case
            try:
                inst = build_skewed(LcrParams(L, C, R, skew=skew), p, center, exponent)
            except ValueError as exc:
                refused.append(case)
                assert refusal(case) is not None and refusal(case) in str(exc), (case, exc)
                continue
            n0, nt = inst.layer_sizes[0], inst.layer_sizes[-1]
            if inst.virtual or n0 * nt + inst.spanner_edge_count() > 20_000:
                continue
            spanner, host = inst.spanner(), inst.host_graph()
            # the edge stream against the same edges collected and sorted
            assert format_edge_list(spanner) == reference_layered_text(inst)
            assert format_edge_list(host) == reference_layered_text(inst, host=True)
            expected = verify_stretch(host, spanner, inst.t)
            assert inst.verify() == expected, case
            verdicts.append((C, skew, expected))
        assert len(verdicts) >= 80
        assert {(0, SKEW_LEFT, True), (2, SKEW_RIGHT, True), (1, SKEW_NONE, True)} <= set(verdicts)
        assert refused == [case for case in cases if refusal(case)]
        assert {refusal(case) for case in refused} == {"junction", "right skew needs C >= 1"}

    def test_measured_exponents_close_at_scale(self):
        params = derive_lcr(2.0, 3)
        inst = build_lcr(params, 2.0, 64)
        m = inst.measured()
        assert abs(m["lambda_measured"] - inst.predicted["lambda_predicted"]) <= 0.1
        assert abs(m["ell_measured"] - inst.predicted["ell_predicted"]) <= 0.1

    def test_huge_instance_is_virtual(self):
        inst = build_lcr(LcrParams(0, 1, 2), 10.0, 512)
        assert inst.virtual
        assert inst.n > 10**7
        with pytest.raises(ValueError):
            inst.spanner()
        assert inst.verify()

    def test_rule_verdict_reads_parameters_only(self, monkeypatch):
        # no graph, no random pair, no loop over a layer: a bounded number
        # of owner/block evaluations decides all n0*nt pairs
        inst = build_lcr(LcrParams(2, 1, 2), 2.0, 512)
        assert inst.virtual and inst.layer_sizes[0] * inst.layer_sizes[-1] > 10**12

        def refuse(*args, **kwargs):
            raise AssertionError("the rule verdict must not build or sample")

        calls = []
        for name in ("_owner", "_block"):
            original = getattr(extremal, name)
            monkeypatch.setattr(extremal, name, lambda *a, f=original: calls.append(a) or f(*a))
        monkeypatch.setattr(extremal, "Graph", refuse)
        monkeypatch.setattr(extremal, "verify_stretch", refuse)
        monkeypatch.setattr(random, "Random", refuse)
        assert inst.verify(seed=5)
        assert len(calls) <= 6 * inst.t


class TestBuildSkewed:
    def test_zero_skew_identical(self):
        plain = build_lcr(LcrParams(1, 1, 1), 2.0, 16)
        skew = build_skewed(LcrParams(1, 1, 1, skew=SKEW_RIGHT), 2.0, 16, 0.0)
        assert plain.layer_sizes == skew.layer_sizes
        assert plain.spanner().edges == skew.spanner().edges

    def test_full_skew_reaches_adjacent_shape(self):
        # d~ = center**(1/(C+1)) reproduces (L, C+1, R-1) layer for layer
        full = build_skewed(LcrParams(1, 1, 1, skew=SKEW_RIGHT), 2.0, 64, 0.5)
        target = build_lcr(LcrParams(1, 2, 0), 2.0, 64)
        assert full.layer_sizes == target.layer_sizes

    def test_intermediate_lambda_between_endpoints(self):
        lo = build_skewed(LcrParams(1, 1, 1, skew=SKEW_RIGHT), 2.0, 64, 0.0)
        mid = build_skewed(LcrParams(1, 1, 1, skew=SKEW_RIGHT), 2.0, 64, 0.25)
        hi = build_skewed(LcrParams(1, 1, 1, skew=SKEW_RIGHT), 2.0, 64, 0.5)
        lam = lambda inst: inst.measured()["lambda_measured"]
        assert lam(hi) < lam(mid) < lam(lo)

    def test_skew_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            build_skewed(LcrParams(1, 1, 1, skew=SKEW_RIGHT), 2.0, 64, 0.9)

    def test_left_skew_verifies(self):
        inst = build_skewed(LcrParams(2, 1, 1, skew=SKEW_LEFT), 2.0, 16, 0.3)
        assert inst.verify()
        assert verify_stretch(inst.host_graph(), inst.spanner(), inst.t)

    def test_right_skew_verifies(self):
        inst = build_skewed(LcrParams(0, 1, 2, skew=SKEW_RIGHT), 5.0, 25, 0.4)
        assert inst.verify()
        assert verify_stretch(inst.host_graph(), inst.spanner(), inst.t)

    def test_builds_pinned(self):
        # repr of every build (layer sizes, gap rules, predicted exponents,
        # virtual flag) or refusal, over random shapes with L, C, R <= 3 and
        # the derived shapes of the acceptance grid; recorded before the gap
        # kinds and the C = 0 size recurrence were shared, with the right
        # skews at C = 0 left out (they are refused now)
        rng = random.Random(16)
        cases = []
        for _ in range(3000):
            L, C, R = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            skew = rng.choice([SKEW_NONE, SKEW_LEFT, SKEW_RIGHT])
            p = rng.choice([1.0, 1.3, 2.0, 3.0, 10.0])
            center = rng.choice([2, 3, 4, 6, 9, 16, 32, 64, 512])
            exponent = rng.uniform(0.0, 1.0 / (C + 1) if C else 1.0)
            if L + C + R and (skew, C) != (SKEW_RIGHT, 0):
                cases.append((LcrParams(L, C, R, skew=skew), p, center, exponent))
        cases += [(derive_lcr(p, t), p, center, None)
                  for p in GRID_PS for t in range(2, 10) for center in (32, 512)]
        lines = []
        for params, p, center, exponent in cases:
            try:
                inst = (build_lcr(params, p, center) if params.skew == SKEW_NONE
                        else build_skewed(params, p, center, exponent))
                lines.append(repr((inst.layer_sizes, inst.gaps, inst.predicted, inst.virtual)))
            except ValueError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
        assert len(lines) == 2893
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "e7ad64a2d9c7ccc6d35c07ce36946ceafd6c0f483f1cb5d20d30fa89d4383f7c")

    def test_left_skew_without_center_verifies(self):
        # C = 0: the left junction fans out to every central vertex
        inst = build_skewed(LcrParams(1, 0, 2, skew=SKEW_LEFT), 2.0, 48, 0.7)
        assert [g.kind for g in inst.gaps] == ["junct_left", "expand", "expand"]
        assert inst.verify()
        assert verify_stretch(inst.host_graph(), inst.spanner(), inst.t)


class TestRuleVerdictMutants:
    """The rule-based verdict refuses broken rules, as the BFS check does."""

    def _replace_gap(self, inst, index, **changes):
        gaps = list(inst.gaps)
        gaps[index] = gaps[index]._replace(**changes)
        return LayeredInstance(inst.t, inst.p, inst.layer_sizes, tuple(gaps), inst.predicted,
                               inst.explicit_spanner, inst.explicit_host)

    @pytest.mark.parametrize("owner", ids=["shifted", "plus_one", "ceiling"], argvalues=[
        lambda x, big, small: (x + 1) * small // big,
        lambda x, big, small: x * small // big + 1,
        lambda x, big, small: (x * small + small - 1) // big,
    ])
    def test_off_by_one_owner(self, monkeypatch, owner):
        inst = build_lcr(LcrParams(2, 1, 2), 2.0, 8)
        assert inst.verify()
        monkeypatch.setattr(extremal, "_owner", owner)
        assert not inst.verify()

    def test_off_by_one_block(self, monkeypatch):
        inst = build_lcr(LcrParams(1, 1, 2), 2.0, 8)
        block = extremal._block
        monkeypatch.setattr(extremal, "_block",
                            lambda x, big, small: block(x, big, small)[1:])
        assert not inst.verify()

    def test_repeated_grid_digit(self):
        inst = build_lcr(LcrParams(1, 2, 1), 2.0, 9)
        grid = [i for i, g in enumerate(inst.gaps) if g.kind == "grid"]
        assert len(grid) == 2
        bad = self._replace_gap(inst, grid[1], digit=inst.gaps[grid[0]].digit)
        assert not bad.verify()
        assert not verify_stretch(bad.host_graph(), bad.spanner(), bad.t)

    @pytest.mark.parametrize("params,exponent", [
        (LcrParams(1, 1, 1, skew=SKEW_LEFT), 0.3),
        (LcrParams(1, 1, 1, skew=SKEW_RIGHT), 0.3),
        (LcrParams(1, 0, 2, skew=SKEW_LEFT), 0.5),
    ])
    def test_junction_drops_last_slice(self, monkeypatch, params, exponent):
        inst = build_skewed(params, 2.0, 16, exponent)
        (junction,) = [g for g in inst.gaps if g.kind.startswith("junct")]
        assert junction.dtilde > 1 and inst.verify()
        forward = extremal._gap_forward

        def dropped(gap, x):
            out = forward(gap, x)
            if gap.kind == "junct_left":
                return out[:-1]
            if gap.kind == "junct_right" and x // gap.mprime == gap.dtilde - 1:
                return range(0)
            return out

        monkeypatch.setattr(extremal, "_gap_forward", dropped)
        assert not inst.verify()
        assert not verify_stretch(inst.host_graph(), inst.spanner(), inst.t)

    def test_gap_size_disagrees_with_layers(self):
        inst = build_lcr(LcrParams(1, 1, 2), 2.0, 8)
        for index in range(inst.t):
            gap = inst.gaps[index]
            assert not self._replace_gap(inst, index, b=gap.b + 1).verify()
            assert not self._replace_gap(inst, index, a=gap.a - 1).verify()


class TestBuildFromLp:
    def _optimum(self):
        primal = minimal_spanner_primal(LcrParams(1, 1, 1), F(2), F(1))
        return {k: float(v) for k, v in primal.items()}

    def test_trivial_solution(self):
        sol = {"nu0": 0.0, "nu1": 0.0, "delta1": 0.0, "Delta": 0.0, "ell": 0.0}
        inst = build_from_lp(sol, 64, seed=1, t=1)
        assert inst.layer_sizes == (1, 1)
        assert inst.verify()

    def test_optimum_instance(self):
        inst = build_from_lp(self._optimum(), 1024, seed=7, t=3, p=2.0)
        assert inst.layer_sizes == (102, 10, 10, 102)
        assert inst.verify()
        n = 1024
        # host norm carries the density within the w.h.p. slack; spanner norm
        # stays within a log factor of n**ell
        assert inst.host_norm() >= n ** (0.9 * 1.0)
        assert inst.spanner_norm() <= 8 * math.log(n) * n**0.5

    def test_seeded_determinism(self):
        a = build_from_lp(self._optimum(), 1024, seed=7, t=3)
        b = build_from_lp(self._optimum(), 1024, seed=7, t=3)
        assert a.spanner().edges == b.spanner().edges
        c = build_from_lp(self._optimum(), 1024, seed=8, t=3)
        assert a.layer_sizes == c.layer_sizes
        assert a.spanner().edges != c.spanner().edges
        assert c.verify()

    @pytest.fixture
    def draws(self, monkeypatch):
        """Counts the neighbour samples drawn."""
        calls = []
        real = random.Random.sample

        def counted(rng, *args, **kwargs):
            calls.append(args)
            return real(rng, *args, **kwargs)

        monkeypatch.setattr(random.Random, "sample", counted)
        return calls

    def test_oversized_host_refused_before_any_draw(self, monkeypatch):
        # n = 10**7 fixes layer sizes (46416, 215, 215, 46416), and each
        # source reaches at least 46416 / 8 of the last layer
        draws = []
        monkeypatch.setattr(random.Random, "sample", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="above the materialization budget"):
            build_from_lp(self._optimum(), 10**7, seed=1, t=3)
        assert draws == []

    def test_reach_stops_at_the_budget(self, monkeypatch, draws):
        # within the budget before any draw, the host passes it on the way
        full = build_from_lp(self._optimum(), 1024, seed=7, t=3).host_edge_count()
        draws.clear()
        monkeypatch.setattr(extremal, "HOST_EDGE_BUDGET", 6000)
        with pytest.raises(ValueError, match=r"host has at least (\d+) edges") as refused:
            build_from_lp(self._optimum(), 1024, seed=7, t=3)
        least = int(refused.value.args[0].split()[4])
        assert 6000 < least < full and len(draws) == 102 + 10 + 10


class TestTightness:
    def test_case_i_star_plus_path(self):
        g = build_tightness(2, 3.0, 100, 50)
        assert g.n == 100 and g.m == 99
        h = greedy_spanner(g, 3)
        assert h.kept_edges == g.edges  # trees are their own spanners
        assert abs(lp_norm(g, 3.0) / 50 - 1) < 1.0  # within factor 2

    def test_case_ii_clique_plus_star(self):
        g = build_tightness(2, 3.0, 100, 400)
        assert g.n == 89 + 100 + 1
        norm = lp_norm(g, 3.0)
        assert 200 <= norm <= 800
        h = greedy_spanner(g, 3)
        star_edges = [e for e in g.edges if e[0] == 89]
        assert set(star_edges) <= set(h.kept_edges)

    def test_case_iii_high_girth_subgraph(self):
        base = named_girth_graph("pg2_3")
        lam = lp_norm(base, 1.0)
        g = build_tightness(2, 1.0, 26, lam)
        assert set(g.edges) == set(base.edges)
        h = greedy_spanner(g, 3)
        assert set(h.kept_edges) == set(g.edges)

    def test_case_iii_pruned(self):
        base = named_girth_graph("pg2_4")
        lam = 0.6 * lp_norm(base, 1.3)
        g = build_tightness(2, 1.3, 42, lam)
        assert lam / 2 <= lp_norm(g, 1.3) <= lam * (1 + 1e-9)
        assert girth_at_least(g, 5)

    def test_case_iv_clique_plus_girth_graph(self):
        g = build_tightness(2, 1.2, 60, 700)
        norm = lp_norm(g, 1.2)
        assert 350 <= norm <= 1400

    @pytest.mark.parametrize("k, p, n, lam, digest", ids=["pg2_4", "pg2_5", "lift"], argvalues=[
        (2, 1.3, 42, 0.6 * lp_norm(named_girth_graph("pg2_4"), 1.3),
         "c040e16ba8789778b38469ae382dbe8a406e964414d915088a3d4c87beb1ce3e"),
        (2, 1.8, 62, 0.5 * lp_norm(named_girth_graph("pg2_5"), 1.8),
         "156327611f7551b2ddea31fc92eb1999fc2da88acfc3568466788c0a896daf03"),
        (3, 1.4, 400, 150.0,
         "e8f56e39eeef5849bc73bb291da537a1364a703a4a46e07fa333f53c4529eeb1"),
    ])
    def test_pruned_edges_pinned(self, k, p, n, lam, digest):
        # recorded when each pruning step rebuilt the graph to take its norm
        g = build_tightness(k, p, n, lam)
        assert hashlib.sha256(format_edge_list(g).encode()).hexdigest() == digest

    @pytest.mark.parametrize("k, p, n, lam", ids=["clique_plus_girth", "clique_plus_star"],
                             argvalues=[(2, 1.5, 10000, 2001.5 ** (5 / 3)),
                                        (2, 2.0, 1000, 2001.5 ** 1.5)])
    def test_clique_over_budget_refused(self, k, p, n, lam):
        # c = 2001 gives 2,001,000 clique edges, just above the budget; the
        # range check passes, so only the edge count refuses it
        with pytest.raises(ValueError, match="clique on 2001 vertices.*above the budget"):
            build_tightness(k, p, n, lam)

    def test_k3_supply(self):
        g = build_tightness(3, 1.0, 30, lp_norm(named_girth_graph("tutte_coxeter"), 1.0))
        h = greedy_spanner(g, 5)
        assert set(h.kept_edges) == set(g.edges)

    def test_unknown_k(self):
        with pytest.raises(ValueError):
            build_tightness(4, 1.0, 100, 100)


def test_fuzz_layered_instances_verify():
    # random derived shapes at random sizes: construction must verify and
    # measure close to its own ideal prediction
    import random as _random

    rng = _random.Random(99)
    virtual = 0
    for _ in range(25):
        t = rng.randint(2, 6)
        p = rng.choice([1.3, 1.8, 2.0, 2.5, 3.0, 5.0, 10.0])
        params = derive_lcr(p, t)
        center = rng.choice([4, 6, 9])
        inst = build_lcr(params, p, center)
        assert inst.verify(), (p, t, center)
        big = build_lcr(params, p, 512)  # far above the materialisation budget
        assert big.verify(), (p, t)
        virtual += big.virtual
        if inst.n > 300_000:
            continue
        m = inst.measured()
        assert abs(m["ell_measured"] - inst.predicted["ell_predicted"]) <= 0.15
        assert abs(m["lambda_measured"] - inst.predicted["lambda_predicted"]) <= 0.15
    assert virtual >= 10


def test_fuzz_skewed_instances_verify():
    import random as _random

    rng = _random.Random(123)
    for _ in range(15):
        C = rng.randint(1, 2)
        L = rng.randint(0, 2)
        R = rng.randint(1, 2)
        skew = SKEW_RIGHT if (L == 0 or rng.random() < 0.5) else SKEW_LEFT
        if skew == SKEW_LEFT and L == 0:
            L = 1
        params = LcrParams(L, C, R, skew=skew)
        exponent = rng.uniform(0.0, 1.0 / (C + 1))
        inst = build_skewed(params, 2.0, rng.choice([9, 16]), exponent)
        assert inst.verify(), (params, exponent)
        assert build_skewed(params, 2.0, 512, exponent).verify(), (params, exponent)
