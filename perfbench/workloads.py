"""The benchmark's three workloads: seeded inputs, items, output checks.

Every workload draws its inputs from a finite universe of *sets*.  A set is a
fixed composition of items (the same mix of input sizes and kinds in every
set), so a run that stops at a set boundary always measures the same mix
whatever its seed.  The seed picks where in the universe a run starts and the
order of items inside each set; inputs of set ``s`` depend only on ``s``, so
every item has a stable key and a recorded output digest (``golden/``).

An item is ``(key, compute, check)``.  ``compute(span)`` makes the program
calls and returns their outputs; ``check(out, span)`` verifies them the way
the acceptance suite does and returns ``(ok, digest_text)``.  ``span(name)``
is the tracer's context manager (a no-op when tracing is off); each span
name is one layer bucket, see ``harness.SPAN_METRIC``.

CLI calls form a second stream of sets per workload (``Workload.make_cli``);
each is a list of ``(key, argv, fmt)`` run as ``python -m spanorm.cli``
children.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F
from typing import Callable, NamedTuple

from spanorm import lb_lp
from spanorm.decomposition import check_coverage, class_contributions, phi
from spanorm.extremal import (
    build_from_lp,
    build_lcr,
    named_girth_graph,
    random_bipartite_lift,
)
from spanorm.graph_core import (
    INFINITY,
    Graph,
    format_edge_list,
    girth_at_least,
    lp_norm,
    parse_edge_list,
)
from spanorm.greedy import greedy_spanner, verify_stretch
from spanorm.oracle import greedy_ratio, optimal_spanner

GOLDEN = (1 + math.sqrt(5)) / 2
GRID_PS = [F(101, 100), F(11, 10), F(13, 10), GOLDEN, F(9, 5), F(2), F(5, 2), F(3), F(5), F(10)]
GRID_TS = range(2, 9)
LCR_SHAPES = [(F(2), 3), (F(2), 5), (F(13, 10), 4), (F(10), 3)]
LCR_CENTERS = (32, 512)  # criterion-9 sizes: materialised, and mostly virtual
FROM_LP = [  # (t, p, lambda, n); the first is the criterion-11 instance
    (3, F(2), F(1), 256), (3, F(2), F(1), 512), (2, F(3, 2), F(1), 512),
    (2, F(2), F(1), 1024), (3, F(3, 2), F(1), 256), (4, F(2), F(1), 256),
    (5, F(2), F(1), 128), (3, F(2), F(1), 128),
]
LIFTS = [(300, 4, 8, 3), (350, 3, 10, 4)]  # (side, degree, girth, k): criterion 6
NAMED_ORACLE = ("k4", "petersen", "heawood", "pg2_2")


def _rng(*parts) -> random.Random:
    # str seeds hash through sha512, so inputs do not depend on PYTHONHASHSEED
    return random.Random("/".join(str(p) for p in parts))


def random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random spanning tree plus uniform extra edges (the acceptance generator)."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _log_uniform_m(n: int, u: float, top: int) -> int:
    # criterion 1: m log-uniform between n and top, at least a spanning tree
    mmax = min(top, n * (n - 1) // 2)
    lo, hi = math.log(n), math.log(max(n + 1, mmax))
    return min(mmax, max(n - 1, int(math.exp(lo + u * (hi - lo)))))


def _edges_text(edges) -> str:
    return ";".join(f"{u},{v}" for u, v in edges)


# -- greedy_sweep --------------------------------------------------------------

GREEDY_SETS = 16
N_BANDS = [(10 + 61 * i, 70 + 61 * i) for i in range(8)]
W_BANDS = [(10, 82), (83, 155), (156, 228), (229, 300)]
STRETCHES = (3, 5, 7)
# Each set samples every (n band, m quantile) cell once near the cell's
# centre: sets then cost nearly the same, so which sets a seed picks barely
# moves the run's figures, while the cells still cover criterion 1's range.
# The five costliest unit cells are 5 % of the 96 unit items; the sixteen
# weighted items push the 95th percentile off that cliff into the next tier
# of similar cells, where it does not hinge on one item's noise.
CELL_JITTER = 0.05


def _jittered(rng: random.Random, lo: int, hi: int, spread: float) -> int:
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return round(mid + spread * half * (2 * rng.random() - 1))


def check_spanner(g: Graph, t: int, kept, hg: Graph, span) -> bool:
    """Greedy output check: a subgraph of g, girth >= t+2 on unit graphs, stretch t."""
    base = set(g.edges)
    if any(e not in base for e in kept):
        return False
    if not g.weighted:
        with span("graph_core.girth"):
            if not girth_at_least(hg, t + 2):
                return False
    with span("greedy.verify"):
        return verify_stretch(g, hg, t)


def _greedy_item(key, n, edges, lengths, t):
    def compute(span):
        with span("graph_core.build"):
            g = Graph(n, edges, lengths)
        with span("greedy.weighted" if lengths else "greedy.unit"):
            h = greedy_spanner(g, t)
        with span("graph_core.build"):
            hg = h.graph()
        with span("graph_core.norm"):
            norms = [lp_norm(hg, p) for p in (1, 2, INFINITY)]
        return {"g": g, "t": t, "kept": h.kept_edges, "hg": hg, "norms": norms}

    def check(out, span):
        ok = check_spanner(out["g"], t, out["kept"], out["hg"], span)
        span.count("greedy.calls", 1)
        span.count("greedy.edges_scanned", out["g"].m)
        span.count("greedy.edges_kept", len(out["kept"]))
        return ok, f"{_edges_text(out['kept'])}|{[repr(x) for x in out['norms']]}"

    return key, compute, check


def greedy_set(s: int) -> list:
    items = []
    for b, (lo, hi) in enumerate(N_BANDS):
        for q in range(4):
            rng = _rng("greedy_sweep", s, "unit", b, q)
            n = _jittered(rng, lo, hi, CELL_JITTER)
            m = _log_uniform_m(n, (q + 0.5 + CELL_JITTER * (rng.random() - 0.5)) / 4, int(n**1.5))
            edges = random_edges(rng, n, m)
            for t in STRETCHES:
                items.append(_greedy_item(f"g{s}.u{b}{q}.t{t}", n, edges, None, t))
    for b, (lo, hi) in enumerate(W_BANDS):
        for q in range(4):
            rng = _rng("greedy_sweep", s, "weighted", b, q)
            n = _jittered(rng, lo, hi, CELL_JITTER)
            m = _log_uniform_m(n, (q + 0.5 + CELL_JITTER * (rng.random() - 0.5)) / 4, 3 * n)
            edges = random_edges(rng, n, m)
            lengths = {e: float(rng.choice((1, 2, 3))) for e in edges}
            items.append(_greedy_item(f"g{s}.w{b}{q}.t3", n, edges, lengths, 3))
    return items


def greedy_cli_set(j: int, workdir) -> list:
    rng = _rng("greedy_sweep", "cli", j)
    n = _jittered(rng, 150, 250, 0.1)
    path = workdir / f"greedy{j}.edges"
    path.write_text(format_edge_list(Graph(n, random_edges(rng, n, 3 * n))))
    t = STRETCHES[j % 3]
    return [
        (f"greedy{j}", ["greedy", "--input", path.name, "--stretch", str(t)], "json"),
        (f"verify{j}", ["verify", "--input", path.name, "--stretch", str(t)], "json"),
    ]


# -- lb_certify ----------------------------------------------------------------

LB_SETS = 5


def _lb_item(p, t, k):
    exact = isinstance(p, F)
    top = 1 + (1 / p if exact else 1.0 / p)
    lam = top * (F(k, 20) if exact else k / 20.0)
    key = f"lb.p{p}.t{t}.k{k}" if exact else f"lb.pgolden.t{t}.k{k}"

    def compute(span):
        with span("lb_lp.shape"):
            certifiable = lb_lp.verify_lcr_conditions(lb_lp.derive_lcr(p, t), p).all_ok
        with span("lb_lp.model"):
            model = lb_lp.build_model(t, p, lam)
        with span("simplex.float"):
            ell = lb_lp.solve(model).ell
        span.count("simplex.float_solves", 1)
        ell_exact = None
        if exact:
            with span("simplex.exact"):
                ell_exact = lb_lp.solve(model, exact=True).ell
            span.count("simplex.exact_solves", 1)
        with span("lb_lp.predict"):
            pred, _info = lb_lp.predicted_exponent(t, p, lam)
        cert = None
        if certifiable:
            with span("lb_lp.certificate"):
                cert = lb_lp.certificate_for(t, p, lam)
            span.count("lb_lp.certificates", 1)
        return {"model": model, "ell": ell, "ell_exact": ell_exact, "pred": pred, "cert": cert}

    def check(out, span):
        ok = abs(float(out["ell"]) - float(out["pred"])) <= 1e-7
        if exact:
            ok = ok and out["ell_exact"] == out["pred"]
        cert_text = "-"
        if out["cert"] is not None:
            frame, primal, cert = out["cert"]
            with span("lb_lp.cert_verify"):
                ok = bool(lb_lp.verify_certificate(out["model"], primal, cert)) and ok
            cert_text = f"{frame}|{sorted((k, str(v)) for k, v in cert.as_dict().items())}"
        return ok, f"{out['ell']!r}|{out['ell_exact']}|{out['pred']}|{cert_text}"

    return key, compute, check


def lb_set(s: int) -> list:
    # set s spreads four lambdas (k = s+1, s+6, s+11, s+16) over every (p, t)
    return [_lb_item(p, t, k) for p in GRID_PS for t in GRID_TS for k in range(s + 1, 21, 5)]


def _certifiable_points() -> list:
    points = []
    for p in GRID_PS:
        if isinstance(p, F):
            for t in GRID_TS:
                if lb_lp.verify_lcr_conditions(lb_lp.derive_lcr(p, t), p).all_ok:
                    points.extend((p, t, k) for k in range(1, 21))
    return points


def _lb_cli(j: int) -> tuple:
    points = _certifiable_points()
    p, t, k = points[(j * 389) % len(points)]
    lam = (1 + 1 / p) * F(k, 20)
    return (f"lb{j}", ["lb", "--t", str(t), "--p", str(p), "--lambda", str(lam),
                       "--exact", "--certificate"], "json")


def _lb_sweep_cli(j: int, workdir) -> tuple:
    rational = [p for p in GRID_PS if isinstance(p, F)]
    path = workdir / f"grid{j}.json"
    path.write_text(json.dumps({"t": [2 + j % 7], "p": [str(rational[j % len(rational)])],
                                "lambda_points": 5}))
    return (f"sweep{j}", ["lb-sweep", "--grid", path.name], "csv")


def lb_cli_set(j: int, workdir) -> list:
    return [_lb_cli(j), _lb_sweep_cli(j, workdir)]


# -- desk_suite ----------------------------------------------------------------

DESK_SETS = 32
DESK_ROUND = 8  # sets over which every rotating configuration appears once
ORACLE_CELLS = [(n, half) for n in range(4, 10) for half in (0, 1)]
IO_PER_SET = 2


def _oracle_graph(rng: random.Random, n: int, half: int, u: float) -> tuple[int, list]:
    # criterion 8: m between n-1 and min(16, n choose 2); one cell per (n, half
    # of that range), u in [0, 1) places m inside the half
    lo, hi = n - 1, min(16, n * (n - 1) // 2)
    m = lo + round((half + u) / 2 * (hi - lo))
    return n, random_edges(rng, n, m)


def _oracle_item(key, make_graph, build_layer="graph_core.build"):
    def compute(span):
        with span(build_layer):
            g = make_graph()
        with span("oracle.search"):
            result = optimal_spanner(g, 3, 2)
        with span("oracle.ratio"):
            ratio = greedy_ratio(g, 3, 2)
        return {"g": g, "result": result, "ratio": ratio}

    def check(out, span):
        res, ratio = out["result"], out["ratio"]
        span.count("oracle.explored", res.explored)
        span.count("oracle.pruned", res.pruned)
        ok = 1 - 1e-12 <= ratio <= out["g"].n ** (63 / 128) + 1e-9
        return ok, (f"{_edges_text(res.optimum.kept_edges)}|{res.optimum_norm!r}|{ratio!r}"
                    f"|{res.explored}|{res.pruned}")

    return key, compute, check


def _named_oracle_item(key, name: str):
    if name == "k4":
        return _oracle_item(key, lambda: Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    return _oracle_item(key, lambda: named_girth_graph(name), "extremal.build")


def _extremal_item(s: int):
    p, t = LCR_SHAPES[s % 4]
    center = LCR_CENTERS[(s // 4) % 2]
    key = f"d{s}.lcr.p{p}.t{t}.c{center}"

    def compute(span):
        with span("lb_lp.shape"):
            params = lb_lp.derive_lcr(p, t)
        with span("extremal.build"):
            inst = build_lcr(params, float(p), center)
        with span("extremal.norm"):
            measured = inst.measured()
        virtual = inst.virtual
        with span("extremal.verify_virtual" if virtual else "extremal.verify_explicit"):
            verified = inst.verify(seed=s)
        span.count("extremal.virtual_instances" if virtual else "extremal.explicit_instances", 1)
        return {"inst": inst, "measured": measured, "verified": verified, "virtual": virtual}

    def check(out, span):
        inst, measured = out["inst"], out["measured"]
        err_lambda = abs(measured["lambda_measured"] - inst.predicted["lambda_predicted"])
        err_ell = abs(measured["ell_measured"] - inst.predicted["ell_predicted"])
        ok = out["verified"] and err_lambda <= 0.1 and err_ell <= 0.1
        return ok, (f"{inst.layer_sizes}|{out['virtual']}|{measured['lambda_measured']!r}"
                    f"|{measured['ell_measured']!r}|{out['verified']}")

    return key, compute, check


def _from_lp_item(s: int):
    t, p, lam, n = FROM_LP[s % len(FROM_LP)]
    key = f"d{s}.fromlp.t{t}.p{p}.l{lam}.n{n}"

    def compute(span):
        with span("lb_lp.shape"):
            primal = lb_lp.minimal_spanner_primal(lb_lp.derive_lcr(p, t), p, lam)
        with span("extremal.build"):
            inst = build_from_lp({k: float(v) for k, v in primal.items()}, n, seed=s, t=t, p=float(p))
        with span("extremal.verify_explicit"):
            verified = inst.verify(seed=s)
        with span("extremal.norm"):
            measured = inst.measured()
        span.count("extremal.explicit_instances", 1)
        return {"inst": inst, "measured": measured, "verified": verified}

    def check(out, span):
        inst, measured = out["inst"], out["measured"]
        ok = out["verified"] and all(math.isfinite(v) for v in measured.values())
        return ok, (f"{inst.layer_sizes}|{_edges_text(inst.explicit_spanner.edges)}"
                    f"|{measured['lambda_measured']!r}|{measured['ell_measured']!r}|{out['verified']}")

    return key, compute, check


def _lift_item(s: int):
    side, degree, min_girth, k = LIFTS[s % 2]
    key = f"d{s}.lift.{side}.{degree}.{min_girth}"

    def compute(span):
        with span("extremal.build"):
            g = random_bipartite_lift(side, degree, min_girth, seed=s)
        with span("decomposition.busy"):
            covered = check_coverage(g, k)
            contributions = class_contributions(g, k)
            ratio_sum = phi(g, 3) if degree >= 4 else None
        span.count("decomposition.calls", 3 if degree >= 4 else 2)
        return {"g": g, "covered": covered, "contributions": contributions, "phi": ratio_sum}

    def check(out, span):
        g, norms = out["g"], out["contributions"].norms
        ok = out["covered"] and norms["low"] <= g.n and norms["med"] <= g.n
        if out["contributions"].min_degree >= 4:
            ok = ok and all(v <= 8 * g.n for key_, v in norms.items() if isinstance(key_, tuple))
        if out["phi"] is not None:
            ok = ok and out["phi"] <= 2 * g.n
        ordered = sorted((str(key_), repr(v)) for key_, v in norms.items())
        return ok, f"{_edges_text(g.edges)}|{out['covered']}|{ordered}|{out['phi']}"

    return key, compute, check


def _io_item(s: int, i: int):
    # the 16 round trips of a round take one n in each of 16 bands of 50-500
    # and m/n in each sixteenth of 1-4, paired by a fixed permutation
    rng = _rng("desk_suite", s, "io", i)
    cells = IO_PER_SET * DESK_ROUND
    cell = IO_PER_SET * (s % DESK_ROUND) + i
    n = 50 + int((cell + rng.random()) * 450 / cells)
    edges = random_edges(rng, n, round(n * (1 + 3 * ((5 * cell) % cells + rng.random()) / cells)))
    lengths = {e: rng.choice((0.5, 1.0, 2.5, 3.0)) for e in edges} if i % 2 else None
    key = f"d{s}.io{i}"

    def compute(span):
        with span("graph_core.build"):
            g = Graph(n, edges, lengths)
        with span("graph_core.io"):
            text = format_edge_list(g)
            parsed = parse_edge_list(text)
            again = format_edge_list(parsed)
        return {"g": g, "text": text, "parsed": parsed, "again": again}

    def check(out, span):
        ok = out["parsed"] == out["g"] and out["again"] == out["text"]
        return ok, out["text"]

    return key, compute, check


def desk_set(s: int) -> list:
    items = []
    for i, (n, half) in enumerate(ORACLE_CELLS):
        # m steps through eighths of its half-range over a round of 8 sets
        rng = _rng("desk_suite", s, "oracle", i)
        n, edges = _oracle_graph(rng, n, half, (s % DESK_ROUND + rng.random()) / DESK_ROUND)
        items.append(_oracle_item(f"d{s}.oracle{i}", lambda n=n, e=edges: Graph(n, e)))
    name = NAMED_ORACLE[s % len(NAMED_ORACLE)]
    items.append(_named_oracle_item(f"d{s}.named.{name}", name))
    items.append(_extremal_item(s))
    items.append(_from_lp_item(s))
    items.append(_lift_item(s))
    items.extend(_io_item(s, i) for i in range(IO_PER_SET))
    return items


def desk_cli_set(j: int, workdir) -> list:
    rng = _rng("desk_suite", "cli", j)
    t, p, lam, n = FROM_LP[0]
    shape_p, shape_t = LCR_SHAPES[j % 4]
    shape = lb_lp.derive_lcr(shape_p, shape_t)
    n_verify = _jittered(rng, 100, 200, 0.1)
    verify_path = workdir / f"verify{j}.edges"
    verify_path.write_text(format_edge_list(Graph(n_verify, random_edges(rng, n_verify, 3 * n_verify))))
    oracle_path = workdir / f"oracle{j}.edges"
    oracle_path.write_text(format_edge_list(Graph(*_oracle_graph(rng, 7, 1, rng.random()))))
    lift_path = workdir / f"lift{j}.edges"
    lift_path.write_text(format_edge_list(random_bipartite_lift(150, 3, 8, seed=j)))
    spec_path = workdir / f"spec{j}.json"
    spec_path.write_text(json.dumps({
        "name": f"exp{j}", "families": ["greedy_bound", "lb_agreement"], "output": f"exp{j}",
        "grid": {"seeds": [j], "n": [80], "t": [3], "p": ["2"]},
    }))
    lp_params = json.dumps({"t": t, "p": str(p), "lambda": str(lam), "n": n})
    lcr_params = json.dumps({"L": shape.L, "C": shape.C, "R": shape.R, "p": float(shape_p),
                             "center": 32})
    return [
        _lb_cli(j),
        (f"genlp{j}", ["gen", "--family", "lp", "--params", lp_params, "--seed", str(j),
                       "--out", f"genlp{j}"], "json"),
        (f"genlcr{j}", ["gen", "--family", "lcr", "--params", lcr_params, "--out", f"genlcr{j}"], "json"),
        (f"verify{j}", ["verify", "--input", verify_path.name, "--stretch", "3"], "json"),
        (f"oracle{j}", ["oracle", "--input", oracle_path.name, "--stretch", "3", "--p", "2"], "json"),
        (f"decompose{j}", ["decompose", "--input", lift_path.name, "--k", "3"], "json"),
        _lb_sweep_cli(j, workdir),
        (f"experiment{j}", ["experiment", "--spec", spec_path.name, "--fresh"], "json"),
    ]


# -- registry ------------------------------------------------------------------


class Workload(NamedTuple):
    """``sets`` in the universe; a phase stops only after a multiple of
    ``round`` sets (``cli_round`` for CLI sets), so that configurations that
    rotate with the set index appear equally often in every run.  With
    ``item_rounds`` set, the item phase runs exactly that many rounds,
    whatever the budget."""

    sets: int
    make_set: Callable
    round: int
    make_cli: Callable
    cli_round: int
    item_rounds: int | None = None


WORKLOADS = {
    "greedy_sweep": Workload(GREEDY_SETS, greedy_set, 1, greedy_cli_set, 3),
    # one grid pass: module caches fill once per run, so cold fills are a fixed share
    "lb_certify": Workload(LB_SETS, lb_set, LB_SETS, lb_cli_set, 1, item_rounds=1),
    "desk_suite": Workload(DESK_SETS, desk_set, DESK_ROUND, desk_cli_set, 4),
}
CLI_SETS = 24


def set_order(workload: str, seed: int, universe: int):
    """Endless set sequence: consecutive sets from a seeded start, wrapping."""
    start = _rng(workload, "start", seed).randrange(universe)
    i = 0
    while True:
        yield (start + i) % universe
        i += 1


def shuffled(items: list, workload: str, seed: int, s: int) -> list:
    items = list(items)
    _rng(workload, "order", seed, s).shuffle(items)
    return items
