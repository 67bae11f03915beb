"""Command-line entry point: construction, bounds, generators, verification.

Machine-readable results go to stdout (JSON by default, CSV for sweeps);
logging goes to stderr.  JSON documents are strict (RFC 8259): a float
infinity is written as the string ``"inf"`` or ``"-inf"``, and NaN is
refused.  Exit codes: 0 all checks pass, 1 check failures,
2 usage errors (bad options or out-of-range parameters), 3 domain failures
(an ``--input`` or ``--spanner`` file that is not a valid graph, or an
(L,C,R) shape or closed-form dual that cannot be constructed).
``SPANORM_EXACT=1`` forces rational arithmetic in the ``lb`` subcommand.
Every seeded command is deterministic: rerunning produces byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import lb_lp
from .decomposition import (
    GirthTooSmallError,
    check_coverage,
    class_contributions,
    classify,
    heavy_mass,
    phi,
)
from .extremal import (
    build_from_lp,
    build_lcr,
    build_skewed,
    build_tightness,
    named_girth_graph,
)
from .graph_core import (
    INFINITY,
    UNBOUNDED,
    GraphError,
    format_edge_list,
    girth,
    girth_at_least,
    lp_norm,
    parse_edge_list,
)
from .greedy import greedy_spanner, spanner_summary, verify_stretch
from .oracle import greedy_ratio, optimal_spanner

__all__ = ["main"]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    print(_dumps(obj))


def _dumps(obj) -> str:
    """Strict JSON text of ``obj``; raises ValueError on NaN."""
    return json.dumps(_encode_infinities(obj), sort_keys=True,
                      default=_json_default, allow_nan=False)


def _encode_infinities(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _encode_infinities(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_infinities(v) for v in value]
    return value


def _json_default(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, frozenset):
        return sorted(value)
    raise TypeError(f"not JSON-serializable: {type(value)}")


def _parse_p(text: str):
    if text in ("inf", "infinity"):
        return INFINITY
    if os.environ.get("SPANORM_EXACT") == "1":
        return Fraction(text)
    return float(text)


def _read_graph(path: str):
    return parse_edge_list(Path(path).read_text())


# -- subcommand handlers -------------------------------------------------------


def _cmd_greedy(args) -> int:
    g = _read_graph(args.input)
    h = greedy_spanner(g, args.stretch)
    if args.output:
        Path(args.output).write_text(format_edge_list(h.graph()))
    ps = [1, 2, INFINITY]
    if args.p is not None:
        ps = [_parse_p(args.p)] + ps
    _emit(spanner_summary(g, h, ps))
    return 0


def _cmd_norm(args) -> int:
    g = _read_graph(args.input)
    out = {}
    for token in args.p.split(","):
        p = _parse_p(token)
        key = "inf" if p is INFINITY else token
        out[key] = lp_norm(g, p)
    _emit({"n": g.n, "m": g.m, "norms": out})
    return 0


def _cmd_decompose(args) -> int:
    g = _read_graph(args.input)
    k = args.k
    classes = classify(g, k)
    report: dict = {
        "k": k,
        "n": g.n,
        "sizes": {
            "low": len(classes.low),
            "med": len(classes.med),
            **{f"high_{j}": len(mem) for j, mem in classes.high.items()},
        },
        "max_multiplicity": max(
            (classes.multiplicity(v) for v in range(g.n)), default=0
        ),
        "covered": len(classes.union()) == g.n,
    }
    try:
        contributions = class_contributions(g, k)
        report["contributions"] = {
            ("high_%d" % key[1]) if isinstance(key, tuple) else key: value
            for key, value in contributions.norms.items()
        }
        report["slacks"] = {
            ("high_%d" % key[1]) if isinstance(key, tuple) else key: contributions.slack(key)
            for key in contributions.norms
        }
    except GirthTooSmallError as exc:
        report["contributions"] = None
        report["girth_note"] = str(exc)
    _emit(report)
    return 0


def _lb_report(t: int, p, lam, exact: bool, want_certificate: bool) -> dict:
    model = lb_lp.build_model(t, p, lam)
    ell = lb_lp.solve(model, exact=exact).ell
    params = lb_lp.derive_lcr(p, t)
    conditions = lb_lp.verify_lcr_conditions(params, p)
    report = {
        "t": t,
        "p": str(p),
        "lambda": str(lam),
        "ell": float(ell),
        "lcr": {"L": params.L, "C": params.C, "R": params.R, "skew": params.skew},
        "conditions": {
            c.name: {"ok": c.ok, "slack": c.slack} for c in conditions
        },
        "conditions_applicable": conditions.applicable,
    }
    if exact and isinstance(ell, Fraction):
        report["ell_exact"] = {"num": ell.numerator, "den": ell.denominator}
    if want_certificate:
        frame, primal, cert = lb_lp.certificate_for(t, p, lam)
        check = lb_lp.verify_certificate(model, primal, cert)
        report["certificate_frame"] = {
            "L": frame.L, "C": frame.C, "R": frame.R, "skew": frame.skew,
        }
        report["dual"] = {
            key: [float(v) for v in value]
            if isinstance(value, (tuple, list))
            else float(value)
            for key, value in cert.as_dict().items()
            if value is not None
        }
        report["verified"] = bool(check)
        if not check:
            report["violations"] = list(check.violations)
    return report


def _cmd_lb(args) -> int:
    exact = args.exact or os.environ.get("SPANORM_EXACT") == "1"
    p = Fraction(args.p) if exact else float(args.p)
    lam = Fraction(args.lam) if exact else float(args.lam)
    report = _lb_report(args.t, p, lam, exact, args.certificate)
    _emit(report)
    return 0 if report.get("verified", True) else 1


def _cmd_lb_sweep(args) -> int:
    spec = json.loads(Path(args.grid).read_text())
    ts = spec.get("t", [2, 3, 4, 5])
    ps = spec.get("p", ["1.5", "2", "3"])
    lam_points = spec.get("lambda_points", 10)
    rows = []
    for p_text in ps:
        p = Fraction(p_text)
        top = 1 + 1 / p
        for t in ts:
            for k in range(1, lam_points + 1):
                lam = top * Fraction(k, lam_points)
                model = lb_lp.build_model(t, p, lam)
                ell = lb_lp.solve(model).ell
                pred, info = lb_lp.predicted_exponent(t, p, lam)
                rows.append(
                    {
                        "t": t,
                        "p": str(p_text),
                        "lambda": f"{float(lam):.12g}",
                        "ell_lp": f"{float(ell):.12g}",
                        "ell_closed_form": f"{float(pred):.12g}",
                        "branch": info["branch"],
                        "agree": abs(float(ell) - float(pred)) <= 1e-7,
                    }
                )
    out = io.StringIO()
    writer = csv.DictWriter(
        out, fieldnames=list(rows[0].keys()), lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        Path(args.out).write_text(out.getvalue())
        _log(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(out.getvalue())
    bad = [r for r in rows if not r["agree"]]
    return 1 if bad else 0


def _cmd_gen(args) -> int:
    params = json.loads(args.params) if args.params else {}
    family = args.family
    meta: dict = {"family": family, "seed": args.seed, "params": params}
    if family == "named":
        g = named_girth_graph(params["name"])
        Path(f"{args.out}.host.edges").write_text(format_edge_list(g))
        meta.update({"n": g.n, "m": g.m, "girth": float(girth(g))})
    elif family == "tightness":
        g = build_tightness(
            params["k"], params["p"], params["n"], params["Lambda"], seed=args.seed
        )
        Path(f"{args.out}.host.edges").write_text(format_edge_list(g))
        meta.update({"n": g.n, "m": g.m, "norm": lp_norm(g, params["p"])})
    elif family in ("lcr", "skewed", "lp"):
        if family == "lcr":
            shape = lb_lp.LcrParams(params["L"], params["C"], params["R"])
            inst = build_lcr(shape, params["p"], params["center"])
        elif family == "skewed":
            shape = lb_lp.LcrParams(
                params["L"], params["C"], params["R"], skew=params["skew"]
            )
            inst = build_skewed(
                shape, params["p"], params["center"], params["skew_exponent"]
            )
        else:
            t = params["t"]
            p = Fraction(str(params["p"]))
            lam = Fraction(str(params["lambda"]))
            primal = lb_lp.minimal_spanner_primal(lb_lp.derive_lcr(p, t), p, lam)
            primal = {key: float(v) for key, v in primal.items()}
            inst = build_from_lp(primal, params["n"], seed=args.seed, t=t,
                                 p=float(p))
        verified = inst.verify()
        meta.update(
            {
                "layer_sizes": list(inst.layer_sizes),
                "n": inst.n,
                "virtual": inst.virtual,
                "measured": inst.measured(),
                "predicted": {
                    key: value
                    for key, value in inst.predicted.items()
                    if key != "ideal_sizes"
                },
                "verified": verified,
            }
        )
        if not inst.virtual:
            Path(f"{args.out}.spanner.edges").write_text(
                format_edge_list(inst.spanner())
            )
            n0, nt = inst.layer_sizes[0], inst.layer_sizes[-1]
            if n0 * nt + inst.spanner_edge_count() <= 2_000_000:
                Path(f"{args.out}.host.edges").write_text(
                    format_edge_list(inst.host_graph())
                )
    else:
        raise ValueError(f"unknown family {family}")
    Path(f"{args.out}.meta.json").write_text(_dumps(meta) + "\n")
    _emit(meta)
    return 0 if meta.get("verified", True) else 1


def _cmd_oracle(args) -> int:
    g = _read_graph(args.input)
    p = _parse_p(args.p)
    result = optimal_spanner(g, args.stretch, p)
    _emit(
        {
            "optimum_edges": [list(e) for e in result.optimum.kept_edges],
            "optimum_norm": result.optimum_norm,
            "greedy_ratio": result.greedy_ratio,
            "explored": result.explored,
            "pruned": result.pruned,
        }
    )
    return 0


def verify_all(g, t: int, p, spanner=None) -> dict:
    """Bundle of applicable checks for one input graph; pure, CLI-independent."""
    checks: dict = {}
    h = greedy_spanner(g, t) if spanner is None else spanner
    hg = h.graph()
    checks["stretch"] = verify_stretch(g, h, t)
    if not g.weighted:
        checks["greedy_girth"] = girth_at_least(hg, t + 2) if spanner is None else None
    gv = girth(g)
    if gv >= 5 or gv == UNBOUNDED:
        checks["heavy_mass"] = heavy_mass(g) <= 2 * g.n
    k = (t + 1) // 2
    if k >= 3 and not g.weighted:
        try:
            checks["coverage"] = check_coverage(g, k)
        except GirthTooSmallError:
            checks["coverage"] = None
    if spanner is None and not g.weighted:
        again = greedy_spanner(hg, t)
        checks["greedy_idempotent"] = again.kept_edges == h.kept_edges
    if g.m <= 16:
        checks["greedy_ratio_at_least_1"] = greedy_ratio(g, t, p) >= 1 - 1e-12
    return checks


def _cmd_verify(args) -> int:
    g = _read_graph(args.input)
    p = _parse_p(args.p)
    spanner = None
    if args.spanner:
        hg = _read_graph(args.spanner)
        from .greedy import Spanner

        try:
            spanner = Spanner(base=g, kept_edges=hg.edges, t=args.stretch,
                              provenance="ORACLE")
            checks = verify_all(g, args.stretch, p, spanner=spanner)
        except ValueError as exc:
            checks = {"stretch": False, "error": str(exc)}
    else:
        checks = verify_all(g, args.stretch, p)
    failed = [name for name, ok in checks.items() if ok is False]
    _emit({"checks": checks, "failed": failed})
    return 1 if failed else 0


def _cmd_experiment(args) -> int:
    spec = json.loads(Path(args.spec).read_text())
    if args.threads and "threads" not in spec:
        spec["threads"] = args.threads
    return run_experiment(spec, resume=not args.fresh)


def run_experiment(spec: dict, resume: bool = True) -> int:
    """Run a parameter grid, appending one CSV row per instance.

    Rows are keyed by (family, seed, params); existing keys are skipped on
    resume, so an interrupted run completes to the identical CSV.  Only
    whole rows count as done (see ``_finished_rows``); the file is rewritten
    to them before new rows are appended.  Failures are recorded as rows,
    never abort the sweep.
    """
    grid = spec.get("grid") or {}
    if not grid or not spec.get("families"):
        raise ValueError("REJECTED_SPEC: empty grid or families")
    outdir = Path(spec.get("output", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{spec.get('name', 'experiment')}.csv"
    # the seconds column is the one timestamp-like field; determinism
    # comparisons exclude it
    fieldnames = [
        "family", "seed", "n", "t", "p", "m_in", "m_out",
        "norm", "bound", "ratio", "ok", "seconds",
    ]
    finished = (
        _finished_rows(csv_path, fieldnames) if resume and csv_path.exists() else []
    )
    done = {
        (row["family"], row["seed"], row["n"], row["t"], row["p"]) for row in finished
    }
    failures = 0
    jobs = []
    for family in spec["families"]:
        for seed in grid.get("seeds", [0]):
            for n in grid.get("n", [100]):
                for t in grid.get("t", [3]):
                    for p_text in grid.get("p", ["2"]):
                        key = (family, str(seed), str(n), str(t), str(p_text))
                        if key not in done:
                            jobs.append((family, seed, n, t, p_text))
    threads = max(1, int(spec.get("threads", 1)))
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(finished)
        fh.flush()

        def write(row: dict) -> None:
            nonlocal failures
            failures += 0 if row["ok"] == "1" else 1
            writer.writerow(row)
            fh.flush()

        if threads == 1:
            for job in jobs:
                write(_experiment_row(*job))
        else:
            # rows own their state; the single writer drains futures in
            # submission order, so output is identical to a sequential run
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(_experiment_row, *job) for job in jobs]
                for future in futures:
                    write(future.result())
    import hashlib

    from . import __version__

    spec_hash = hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode()
    ).hexdigest()[:16]
    summary = {
        "csv": str(csv_path),
        "failures": failures,
        "spec_hash": spec_hash,
        "version": __version__,
    }
    (outdir / f"{spec.get('name', 'experiment')}.summary.json").write_text(
        _dumps(summary) + "\n"
    )
    _emit(summary)
    return 1 if failures else 0


def _finished_rows(csv_path: Path, fieldnames: list[str]) -> list[dict]:
    """The rows of an earlier run that are whole, in file order.

    A crash can tear the last line: a row counts only if its line ends in a
    newline, it has every column and its ``ok`` is "0" or "1".  A file whose
    header is not ``fieldnames`` yields no rows.
    """
    text = csv_path.read_text()
    # every row is written with its newline, so an unterminated tail is torn
    text = text[: text.rfind("\n") + 1]
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != fieldnames:
        return []
    ok = fieldnames.index("ok")
    return [
        dict(zip(fieldnames, row))
        for row in reader
        if len(row) == len(fieldnames) and row[ok] in ("0", "1")
    ]


def _experiment_row(family: str, seed: int, n: int, t: int, p_text: str) -> dict:
    import random
    import time

    started = time.perf_counter()
    p = float(Fraction(p_text))
    row = {
        "family": family, "seed": str(seed), "n": str(n), "t": str(t),
        "p": p_text, "m_in": "", "m_out": "", "norm": "", "bound": "",
        "ratio": "", "ok": "0", "seconds": "",
    }
    try:
        if family == "greedy_bound":
            rng = random.Random(seed)
            m = min(3 * n, n * (n - 1) // 2)
            g = _random_graph(rng, n, m)
            h = greedy_spanner(g, t)
            norm = lp_norm(h.graph(), p)
            k = (t + 1) // 2
            bound = 8 * max(n, n ** ((k + p) / (k * p)))
            row.update(
                m_in=str(g.m), m_out=str(h.m), norm=f"{norm:.10g}",
                bound=f"{bound:.10g}", ratio=f"{norm / bound:.10g}",
                ok="1" if norm <= bound and girth_at_least(h.graph(), t + 2) else "0",
            )
        elif family == "lb_agreement":
            pf = Fraction(p_text)
            lam = Fraction(1)
            ell = lb_lp.solve(lb_lp.build_model(t, pf, lam)).ell
            pred, _ = lb_lp.predicted_exponent(t, pf, lam)
            row.update(
                norm=f"{float(ell):.12g}", bound=f"{float(pred):.12g}",
                ratio=f"{abs(float(ell) - float(pred)):.3g}",
                ok="1" if abs(float(ell) - float(pred)) <= 1e-7 else "0",
            )
        else:
            raise ValueError(f"unknown family {family}")
    except Exception as exc:  # recorded, never aborts the sweep
        row["ok"] = "0"
        _log(f"row failed ({family}, seed={seed}, n={n}, t={t}, p={p_text}): {exc}")
    row["seconds"] = f"{time.perf_counter() - started:.3f}"
    return row


def _random_graph(rng, n: int, m: int):
    from .graph_core import Graph

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
    return Graph(n, sorted(edges))


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanorm",
        description="Greedy lp-norm spanners, universal lower bounds, extremal generators",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; rows run sequentially")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("greedy", help="construct the greedy t-spanner")
    sp.add_argument("--input", required=True)
    sp.add_argument("--stretch", type=int, required=True)
    sp.add_argument("--p", default=None)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_greedy)

    sp = sub.add_parser("norm", help="lp norms of a graph")
    sp.add_argument("--input", required=True)
    sp.add_argument("--p", default="1,2,inf")
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("decompose", help="vertex classes and bound slacks")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("lb", help="lower-bound exponent for (t, p, lambda)")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--certificate", action="store_true")
    sp.set_defaults(func=_cmd_lb)

    sp = sub.add_parser("lb-sweep", help="LP vs closed-form agreement grid")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_lb_sweep)

    sp = sub.add_parser("gen", help="generate an extremal instance")
    sp.add_argument("--family", required=True,
                    choices=("lcr", "skewed", "lp", "tightness", "named"))
    sp.add_argument("--params", default=None, help="JSON object of parameters")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("oracle", help="brute-force minimum-norm spanner")
    sp.add_argument("--input", required=True)
    sp.add_argument("--stretch", type=int, required=True)
    sp.add_argument("--p", required=True)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("verify", help="run the applicable check suite")
    sp.add_argument("--input", required=True)
    sp.add_argument("--stretch", type=int, default=3)
    sp.add_argument("--p", default="2")
    sp.add_argument("--spanner", default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("experiment", help="run a parameter-grid experiment")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--fresh", action="store_true",
                    help="ignore existing rows instead of resuming")
    sp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # seed is honored by subcommands that draw randomness
    try:
        return args.func(args)
    except (GraphError, lb_lp.DualConstructionError, lb_lp.DeriveDiagnostic) as exc:
        _log(f"error: {exc}")
        return 3
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
