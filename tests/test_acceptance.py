"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All tolerances are pinned here, not configurable.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from spanorm import lb_lp
from spanorm.cli import _random_graph
from spanorm.decomposition import check_coverage, class_contributions, heavy_mass, phi
from spanorm.extremal import (
    build_lcr,
    build_tightness,
    named_girth_graph,
    random_bipartite_lift,
)
from spanorm.graph_core import Graph, girth_at_least, layer_profile, lp_norm
from spanorm.greedy import greedy_spanner
from spanorm.oracle import greedy_ratio, optimal_spanner

GOLDEN = (1 + math.sqrt(5)) / 2
GRID_PS = [F(101, 100), F(11, 10), F(13, 10), GOLDEN, F(9, 5), F(2), F(5, 2), F(3), F(5), F(10)]
GRID_TS = range(2, 9)
GRID_LAMBDA_POINTS = 20


def _report(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS {detail}")


def test_criterion_01_greedy_girth_guarantee():
    # 200 random unit graphs, n <= 500, densities up to n**1.5, t in {3,5,7}
    rng = random.Random(2026)
    start = time.time()
    violations = 0
    for _ in range(200):
        n = rng.randint(10, 500)
        mmax = min(int(n**1.5), n * (n - 1) // 2)
        lo, hi = math.log(n), math.log(max(n + 1, mmax))
        m = min(mmax, max(n - 1, int(math.exp(rng.uniform(lo, hi)))))
        g = _random_graph(rng, n, m)
        for t in (3, 5, 7):
            h = greedy_spanner(g, t)
            if not girth_at_least(h.graph(), t + 2):
                violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert elapsed < 60.0
    _report("1 greedy girth", f"(200 graphs x 3 stretches, {elapsed:.1f}s)")


def test_criterion_02_stretch3_desk_bound():
    rng = random.Random(404)
    checked = 0
    for n in (100, 250, 500, 1000, 2000):
        for m in (3 * n, min(int(n**1.5), 12 * n)):
            g = _random_graph(rng, n, min(m, n * (n - 1) // 2))
            h = greedy_spanner(g, 3).graph()
            for p in (1, 1.5, 2, 3):
                bound = 8 * max(n, n ** ((2 + p) / (2 * p)))
                assert lp_norm(h, p) <= bound
                checked += 1
    for name in ("pg2_2", "pg2_3", "pg2_4", "pg2_5"):
        g = named_girth_graph(name)
        h = greedy_spanner(g, 3).graph()
        for p in (1, 1.5, 2, 3):
            bound = 8 * max(g.n, g.n ** ((2 + p) / (2 * p)))
            assert lp_norm(h, p) <= bound
            checked += 1
    _report("2 stretch-3 desk bound", f"({checked} (instance, p) pairs)")


def test_criterion_03_lp_vs_closed_form_grid():
    start = time.time()
    float_points = 0
    worst = 0.0
    for p in GRID_PS:
        exactable = isinstance(p, F)
        top = 1 + (1 / F(p) if exactable else 1.0 / p)
        for t in GRID_TS:
            for k in range(1, GRID_LAMBDA_POINTS + 1):
                lam = top * (F(k, 20) if exactable else k / 20.0)
                ell = lb_lp.solve(lb_lp.build_model(t, p, lam)).ell
                pred, info = lb_lp.predicted_exponent(t, p, lam)
                err = abs(float(ell) - float(pred))
                worst = max(worst, err)
                assert err <= 1e-7, (p, t, lam, info)
                float_points += 1
    exact_points = 0
    for p in GRID_PS:
        if not isinstance(p, F):
            continue
        top = 1 + 1 / p
        for t in GRID_TS:
            for k in range(1, GRID_LAMBDA_POINTS + 1):
                lam = top * F(k, 20)
                ell = lb_lp.solve(lb_lp.build_model(t, p, lam), exact=True).ell
                pred, _ = lb_lp.predicted_exponent(t, p, lam)
                assert ell == pred, (p, t, lam)
                exact_points += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(
        "3 LP vs closed form",
        f"({float_points} float points, worst err {worst:.1e}; "
        f"{exact_points} exact-equal points; {elapsed:.1f}s)",
    )


def test_criterion_04_dual_certificates():
    start = time.time()
    certified = 0
    failures = []
    for p in GRID_PS:
        exactable = isinstance(p, F)
        top = 1 + (1 / F(p) if exactable else 1.0 / p)
        for t in GRID_TS:
            params = lb_lp.derive_lcr(p, t)
            conditions = lb_lp.verify_lcr_conditions(params, p)
            if not conditions.all_ok:
                continue  # C = 0 points have no condition system to pass
            for k in range(1, GRID_LAMBDA_POINTS + 1):
                lam = top * (F(k, 20) if exactable else k / 20.0)
                frame, primal, cert = lb_lp.certificate_for(t, p, lam)
                model = lb_lp.build_model(t, p, lam)
                check = lb_lp.verify_certificate(model, primal, cert)
                if not check:
                    failures.append((p, t, lam, check.violations[:2]))
                certified += 1
    elapsed = time.time() - start
    assert not failures, failures[:3]
    _report("4 dual certificates", f"({certified} certificates verified, {elapsed:.1f}s)")


def test_criterion_05_reference_spot_values():
    ell_a = lb_lp.solve(lb_lp.build_model(3, F(2), F(1)), exact=True).ell
    ell_b = lb_lp.solve(lb_lp.build_model(2, F(3, 2), F(1)), exact=True).ell
    assert ell_a == F(1, 2)
    assert ell_b == F(3, 5)
    assert lb_lp.closed_form_exponent(lb_lp.derive_lcr(F(2), 3), F(2), F(1)) == F(1, 2)
    assert lb_lp.closed_form_exponent(lb_lp.derive_lcr(F(3, 2), 2), F(3, 2), F(1)) == F(3, 5)
    _report("5 spot values", "(t=3,p=2 -> 1/2; t=2,p=3/2 -> 3/5, exact)")


def test_criterion_06_decomposition_coverage():
    instances = [
        ("mcgee", named_girth_graph("mcgee"), 3),
        ("tutte_coxeter", named_girth_graph("tutte_coxeter"), 3),
        ("lift_4reg_g8", random_bipartite_lift(300, 4, 8, seed=11), 3),
        ("lift_3reg_g10", random_bipartite_lift(350, 3, 10, seed=5), 4),
    ]
    for name, g, k in instances:
        assert check_coverage(g, k), name
        contributions = class_contributions(g, k)
        assert contributions.norms["low"] <= g.n
        assert contributions.norms["med"] <= g.n
        if contributions.min_degree >= 4:
            for key, value in contributions.norms.items():
                if isinstance(key, tuple):
                    assert value <= 8 * g.n, (name, key)
    _report("6 decomposition coverage", f"({len(instances)} instances, k in {{3,4}})")


def test_criterion_07_structural_lemma_suite():
    named = ["petersen", "heawood", "mcgee", "robertson", "tutte_coxeter",
             "pg2_2", "pg2_3", "pg2_4", "pg2_5"]
    graphs = {name: named_girth_graph(name) for name in named}
    # Lemma: heavy-degree mass at most 2n on girth >= 5 graphs
    for name, g in graphs.items():
        assert heavy_mass(g) <= 2 * g.n, name
    # backtrack inequality, exhaustively per vertex: k=2 applies to every
    # named graph (girth >= 5), k=3 to the girth >= 7 ones
    backtrack_cases = [(name, 2) for name in named]
    backtrack_cases += [("mcgee", 3), ("tutte_coxeter", 3)]
    for name, k in backtrack_cases:
        g = graphs[name]
        for v in range(g.n):
            prof = layer_profile(g, v, k)
            lhs = sum(layer_profile(g, w, k - 1).d(k - 1) for w in g.neighbors(v))
            assert lhs <= prof.d(k) + prof.d(1) * prof.d(k - 2), (name, v)
    # ratio sum Phi(k) <= 2n on min-degree-4 instances, PG(2,3) exactly 104/3
    assert phi(graphs["pg2_3"], 2) == F(104, 3)
    min_deg4 = ("robertson", "pg2_3", "pg2_4", "pg2_5")
    for name in min_deg4:
        assert phi(graphs[name], 2) <= 2 * graphs[name].n
    lift = random_bipartite_lift(300, 4, 8, seed=11)
    assert phi(lift, 3) <= 2 * lift.n
    # techratio on every min-degree-4 instance meeting the girth floor
    for g, k in [(graphs[name], 2) for name in min_deg4] + [(lift, 2), (lift, 3)]:
        total = F(0)
        for v in range(g.n):
            prof = layer_profile(g, v, k)
            total += F(prof.d(1) ** 2 * prof.d(k - 2),
                       prof.d(k) + prof.d(1) * prof.d(k - 2))
        assert total <= 2 * g.n
    _report("7 structural inequalities", "(Phi(PG(2,3)) = 104/3 exact)")


def test_criterion_08_oracle_equivalence():
    rng = random.Random(606)
    start = time.time()
    for _ in range(500):
        n = rng.randint(3, 9)
        m = rng.randint(n - 1, min(16, n * (n - 1) // 2))
        g = _random_graph(rng, n, m)
        ratio = greedy_ratio(g, 3, 2)
        assert ratio >= 1 - 1e-12
        assert ratio <= g.n ** (63 / 128) + 1e-9
    # K_4 reference values, exactly
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    greedy_norm = lp_norm(greedy_spanner(k4, 3).graph(), 2)
    result = optimal_spanner(k4, 3, 2)
    assert greedy_norm == pytest.approx(math.sqrt(12), abs=1e-12)
    assert result.optimum_norm == pytest.approx(math.sqrt(10), abs=1e-12)
    assert greedy_ratio(k4, 3, 2) == pytest.approx(math.sqrt(1.2), abs=1e-12)
    # named graphs with at most 24 edges
    for name in ("petersen", "heawood", "pg2_2"):
        g = named_girth_graph(name)
        assert g.m <= 24
        ratio = greedy_ratio(g, 3, 2)
        assert 1 - 1e-12 <= ratio <= g.n ** (63 / 128)
    elapsed = time.time() - start
    _report("8 oracle equivalence", f"(500 random + K4 + 3 named, {elapsed:.1f}s)")


def test_criterion_09_extremal_fidelity():
    cases = [(F(2), 3), (F(2), 5), (F(13, 10), 4), (F(10), 3)]
    for p, t in cases:
        params = lb_lp.derive_lcr(p, t)
        errors = []
        for center in (32, 128, 512):
            inst = build_lcr(params, float(p), center)
            measured = inst.measured()
            err_lambda = abs(measured["lambda_measured"] - inst.predicted["lambda_predicted"])
            err_ell = abs(measured["ell_measured"] - inst.predicted["ell_predicted"])
            assert err_lambda <= 0.1 and err_ell <= 0.1, (p, t, center)
            errors.append((err_lambda, err_ell))
        # rounding error tightens with size; a 1e-3 floor absorbs integer
        # rounding noise on errors that are already essentially zero
        for j in (0, 1):
            floored = [max(e[j], 1e-3) for e in errors]
            assert floored[0] >= floored[1] >= floored[2], (p, t, errors)
    _report("9 extremal fidelity", f"({len(cases)} shapes x 3 sizes, err <= 0.1)")


def test_criterion_10_tightness_families():
    # case (i): star plus path; the tree is its own unique spanner
    g1 = build_tightness(2, 3.0, 200, 80)
    h1 = greedy_spanner(g1, 3)
    assert h1.kept_edges == g1.edges
    assert abs(math.log(lp_norm(g1, 3.0) / 80)) <= math.log(2)
    # case (ii): clique plus star; every star edge survives greedy
    g2 = build_tightness(2, 3.0, 150, 600)
    h2 = greedy_spanner(g2, 3)
    m_clique = int(600 ** (3.0 / 4.0))
    star_edges = {e for e in g2.edges if e[0] == m_clique}
    assert star_edges <= set(h2.kept_edges)
    assert abs(math.log(lp_norm(g2, 3.0) / 600)) <= math.log(2)
    # case (iii): girth >= 5 host is returned whole by greedy
    base = named_girth_graph("pg2_4")
    lam = lp_norm(base, 1.0)
    g3 = build_tightness(2, 1.0, base.n, lam)
    h3 = greedy_spanner(g3, 3)
    assert set(h3.kept_edges) == set(g3.edges)
    _report("10 tightness families", "(cases i, ii, iii)")


def test_criterion_11_determinism(tmp_path):
    from spanorm.cli import main

    def run(argv, out_name):
        import contextlib, io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0
        (tmp_path / out_name).write_text(buf.getvalue())
        return buf.getvalue()

    gen_args = [
        "gen", "--family", "lp",
        "--params", '{"t":3,"p":"2","lambda":"1","n":256}', "--seed", "5",
    ]
    first = run(gen_args + ["--out", str(tmp_path / "a")], "gen1.json")
    second = run(gen_args + ["--out", str(tmp_path / "b")], "gen2.json")
    assert first == second
    assert (tmp_path / "a.spanner.edges").read_text() == (tmp_path / "b.spanner.edges").read_text()

    lb_args = ["lb", "--t", "5", "--p", "2.5", "--lambda", "1.2", "--certificate"]
    assert run(lb_args, "lb1.json") == run(lb_args, "lb2.json")

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"t": [3], "p": ["2"], "lambda_points": 5}))
    sweep1 = run(["lb-sweep", "--grid", str(grid)], "s1.csv")
    sweep2 = run(["lb-sweep", "--grid", str(grid)], "s2.csv")
    assert sweep1 == sweep2
    _report("11 determinism", "(gen, lb --certificate, lb-sweep byte-identical)")
