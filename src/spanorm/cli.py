"""Command-line entry point: construction, bounds, generators, verification.

Machine-readable results go to stdout (JSON by default, CSV for sweeps);
logging goes to stderr.  JSON documents are strict (RFC 8259): a float
infinity is written as the string ``"inf"`` or ``"-inf"``, and NaN is
refused.  Exit codes: 0 all checks pass, 1 check failures,
2 usage errors (bad options or out-of-range parameters, such as a ``gen``
shape the generators refuse: t = 0, a skew with no section for its
junction, or a right skew with C = 0), 3 domain failures (an ``--input`` or
``--spanner`` file that is not a valid graph, or an (L,C,R) shape or
closed-form dual that cannot be constructed).  ``lb --exact`` computes in
rational arithmetic.
Every seeded command is deterministic: rerunning produces byte-identical
output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

# Library modules, and the stdlib's ``csv`` and ``fractions``, are imported
# inside the handlers, so a subcommand loads (and, without cached bytecode,
# compiles) only what it runs.

__all__ = ["main"]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    print(_dumps(obj))


def _dumps(obj) -> str:
    """Strict JSON text of ``obj``; raises ValueError on NaN."""
    return json.dumps(_encode_infinities(obj), sort_keys=True, allow_nan=False)


def _encode_infinities(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _encode_infinities(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_infinities(v) for v in value]
    return value


def _parse_p(text: str):
    """A norm parameter: a finite real >= 1, or ``inf``/``infinity`` for the
    max-degree norm.  Anything else is a usage error (ValueError, exit 2)."""
    from .graph_core import INFINITY

    if text in ("inf", "infinity"):
        return INFINITY
    p = float(text)
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be a finite real >= 1 or inf, got {text}")
    return p


def _parse_rational(value, what: str) -> Fraction:
    """``Fraction(value)``: a zero denominator or a value that names no
    rational is a usage error (ValueError, exit 2)."""
    from fractions import Fraction

    try:
        return Fraction(value)
    except (ZeroDivisionError, TypeError):
        raise ValueError(f"{what} must be a rational number, got {value!r}") from None


def _read_graph(path: str):
    from .graph_core import parse_edge_list

    return parse_edge_list(Path(path).read_text())


# -- subcommand handlers -------------------------------------------------------


def _cmd_greedy(args) -> int:
    from .graph_core import INFINITY, format_edge_list
    from .greedy import greedy_spanner, spanner_summary, verify_stretch

    ps = [1, 2, INFINITY]
    if args.p is not None:
        ps = [_parse_p(args.p)] + ps
    g = _read_graph(args.input)
    h = greedy_spanner(g, args.stretch)
    if not verify_stretch(g, h, args.stretch):
        _log(f"error: the greedy spanner fails stretch {args.stretch}")
        return 1
    if args.output:
        Path(args.output).write_text(format_edge_list(h.graph()))
    _emit(spanner_summary(g, h, ps))
    return 0


def _cmd_norm(args) -> int:
    from .graph_core import INFINITY, lp_norm

    g = _read_graph(args.input)
    out = {}
    for token in args.p.split(","):
        p = _parse_p(token)
        key = "inf" if p is INFINITY else token
        out[key] = lp_norm(g, p)
    _emit({"n": g.n, "m": g.m, "norms": out})
    return 0


def _cmd_decompose(args) -> int:
    from .decomposition import GirthTooSmallError, class_contributions, classify

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
        # a high class is keyed ("high", j) in the library and high_j here
        names = {key: "high_%d" % key[1] if isinstance(key, tuple) else key
                 for key in contributions.norms}
        report["contributions"] = {names[key]: v for key, v in contributions.norms.items()}
        report["slacks"] = {names[key]: contributions.slack(key) for key in contributions.norms}
    except GirthTooSmallError as exc:
        report["contributions"] = None
        report["girth_note"] = str(exc)
    _emit(report)
    return 0


def _lb_report(t: int, p, lam, exact: bool, want_certificate: bool) -> dict:
    from fractions import Fraction

    from . import lb_lp

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
    if args.exact:
        p, lam = _parse_rational(args.p, "--p"), _parse_rational(args.lam, "--lambda")
    else:
        p, lam = float(args.p), float(args.lam)
    report = _lb_report(args.t, p, lam, args.exact, args.certificate)
    _emit(report)
    return 0 if report.get("verified", True) else 1


def _lp_agreement(t: int, p, lam) -> tuple:
    """``(ell, pred, branch, agree)``: the float LP optimum, the piecewise
    closed-form prediction (both as floats), the prediction's branch, and
    whether the two agree within 1e-7."""
    from . import lb_lp

    ell = float(lb_lp.solve(lb_lp.build_model(t, p, lam)).ell)
    pred, info = lb_lp.predicted_exponent(t, p, lam)
    pred = float(pred)
    return ell, pred, info["branch"], abs(ell - pred) <= 1e-7


def _read_spec(path, option: str) -> dict:
    """The JSON object in the file ``path``; ValueError (exit 2) otherwise."""
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, dict):
        raise ValueError(f"{option} must hold a JSON object, got a {type(spec).__name__}")
    return spec


def _nonempty_list(doc: dict, key: str, default, where: str) -> list:
    """``doc[key]`` (``default`` when absent), refused unless a non-empty list."""
    value = doc.get(key, default)
    if not isinstance(value, list) or not value:
        raise ValueError(f"{where}: {key!r} must be a non-empty list, got {value!r}")
    return value


def _cmd_lb_sweep(args) -> int:
    import csv
    from fractions import Fraction

    spec = _read_spec(args.grid, "--grid")
    ts = _nonempty_list(spec, "t", [2, 3, 4, 5], "--grid")
    ps = _nonempty_list(spec, "p", ["1.5", "2", "3"], "--grid")
    lam_points = spec.get("lambda_points", 10)
    if type(lam_points) is not int or lam_points < 1:
        raise ValueError(
            f"--grid: 'lambda_points' must be a positive integer, got {lam_points!r}")
    for p_text in ps:
        if _parse_rational(p_text, "--grid: p") < 1:
            raise ValueError(f"--grid: p must be a rational >= 1, got {p_text!r}")
    rows = []
    for p_text in ps:
        p = Fraction(p_text)
        top = 1 + 1 / p
        for t in ts:
            for k in range(1, lam_points + 1):
                lam = top * Fraction(k, lam_points)
                ell, pred, branch, agree = _lp_agreement(t, p, lam)
                rows.append(
                    {
                        "t": t,
                        "p": str(p_text),
                        "lambda": f"{float(lam):.12g}",
                        "ell_lp": f"{ell:.12g}",
                        "ell_closed_form": f"{pred:.12g}",
                        "branch": branch,
                        "agree": agree,
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


# the --params keys each gen family reads; any other key is refused
_GEN_KEYS = {
    "named": ("name",),
    "tightness": ("k", "p", "n", "Lambda"),
    "lcr": ("L", "C", "R", "p", "center"),
    "skewed": ("L", "C", "R", "skew", "p", "center", "skew_exponent"),
    "lp": ("t", "p", "lambda", "n"),
}


def _cmd_gen(args) -> int:
    from .extremal import (build_from_lp, build_lcr, build_skewed,
                           build_tightness, named_girth_graph)
    from .graph_core import format_edge_list, girth, lp_norm, write_edge_list

    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError(f"--params must be a JSON object, got {args.params}")
    family = args.family
    unknown = [key for key in params if key not in _GEN_KEYS[family]]
    if unknown:
        raise ValueError(f"--params for family {family} has the unknown "
                         f"key{'s' if len(unknown) > 1 else ''} "
                         f"{', '.join(map(repr, unknown))}; it reads "
                         f"{', '.join(_GEN_KEYS[family])}")
    meta: dict = {"family": family, "seed": args.seed, "params": params}
    # every parameter is read before any file is written, so a missing or
    # mistyped one is a usage error that leaves nothing behind
    g = inst = None
    try:
        if family == "named":
            g = named_girth_graph(params["name"])
            meta.update({"n": g.n, "m": g.m, "girth": float(girth(g))})
        elif family == "tightness":
            g = build_tightness(
                params["k"], params["p"], params["n"], params["Lambda"], seed=args.seed
            )
            meta.update({"n": g.n, "m": g.m, "norm": lp_norm(g, params["p"])})
        elif family in ("lcr", "skewed", "lp"):
            from . import lb_lp

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
                p = _parse_rational(str(params["p"]), "--params: p")
                lam = _parse_rational(str(params["lambda"]), "--params: lambda")
                primal = lb_lp.minimal_spanner_primal(lb_lp.derive_lcr(p, t), p, lam)
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
    except KeyError as exc:
        raise ValueError(f"--params for family {family} lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"--params for family {family}: mistyped value, {exc}") from None
    if g is not None:
        Path(f"{args.out}.host.edges").write_text(format_edge_list(g))
    elif not inst.virtual:
        write_edge_list(f"{args.out}.spanner.edges", inst.n,
                        inst.spanner_edge_count(), inst.edges())
        if not inst.host_virtual:
            write_edge_list(f"{args.out}.host.edges", inst.n,
                            inst.host_edge_count(), inst.edges(host=True))
    Path(f"{args.out}.meta.json").write_text(_dumps(meta) + "\n")
    _emit(meta)
    return 0 if meta.get("verified", True) else 1


def _cmd_oracle(args) -> int:
    from .oracle import optimal_spanner

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
    from .graph_core import girth_at_least
    from .greedy import greedy_spanner, verify_stretch

    checks: dict = {}
    h = greedy_spanner(g, t) if spanner is None else spanner
    hg = h.graph()
    checks["stretch"] = verify_stretch(g, h, t)
    if not g.weighted:
        checks["greedy_girth"] = girth_at_least(hg, t + 2) if spanner is None else None
    if girth_at_least(g, 5):
        from .decomposition import heavy_mass

        checks["heavy_mass"] = heavy_mass(g) <= 2 * g.n
    k = (t + 1) // 2
    if k >= 3 and not g.weighted:
        from .decomposition import GirthTooSmallError, check_coverage

        try:
            checks["coverage"] = check_coverage(g, k)
        except GirthTooSmallError:
            checks["coverage"] = None
    if spanner is None and not g.weighted:
        again = greedy_spanner(hg, t)
        checks["greedy_idempotent"] = again.kept_edges == h.kept_edges
    if g.m <= 16:
        from .oracle import greedy_ratio

        # h is the greedy spanner unless one was given
        greedy = h if spanner is None else None
        checks["greedy_ratio_at_least_1"] = greedy_ratio(g, t, p, greedy) >= 1 - 1e-12
    return checks


def _cmd_verify(args) -> int:
    g = _read_graph(args.input)
    p = _parse_p(args.p)
    spanner = None
    if args.spanner:
        hg = _read_graph(args.spanner)
        from .greedy import Spanner

        try:
            # the spanner keeps its own vertex count and lengths, so the
            # stretch check refuses a file that is not a subgraph of g
            spanner = Spanner(base=hg, kept_edges=hg.edges, t=args.stretch)
            checks = verify_all(g, args.stretch, p, spanner=spanner)
        except ValueError as exc:
            checks = {"stretch": False, "error": str(exc)}
    else:
        checks = verify_all(g, args.stretch, p)
    failed = [name for name, ok in checks.items() if ok is False]
    _emit({"checks": checks, "failed": failed})
    return 1 if failed else 0


def _cmd_experiment(args) -> int:
    spec = _read_spec(args.spec, "--spec")
    if args.threads and "threads" not in spec:
        spec["threads"] = args.threads
    return run_experiment(spec, resume=not args.fresh)


_EXPERIMENT_FAMILIES = ("greedy_bound", "lb_agreement")


def run_experiment(spec: dict, resume: bool = True) -> int:
    """Run a parameter grid, appending one CSV row per instance.

    Rows are keyed by (family, seed, params); existing keys are skipped on
    resume, so an interrupted run completes to the identical CSV.  Only
    whole rows count as done (see ``_finished_rows``); the file is rewritten
    to them before new rows are appended.  Failures are recorded as rows,
    never abort the sweep.
    """
    import csv

    grid = spec.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise ValueError(f"REJECTED_SPEC: 'grid' must be a non-empty JSON object, got {grid!r}")
    families = _nonempty_list(spec, "families", None, "REJECTED_SPEC")
    for family in families:
        if family not in _EXPERIMENT_FAMILIES:
            raise ValueError(f"REJECTED_SPEC: unknown family {family!r}; the families are "
                             f"{', '.join(_EXPERIMENT_FAMILIES)}")
    axes = [_nonempty_list(grid, key, default, "REJECTED_SPEC: grid")
            for key, default in (("seeds", [0]), ("n", [100]), ("t", [3]), ("p", ["2"]))]
    for p_text in axes[-1]:
        _parse_rational(p_text, "REJECTED_SPEC: grid p")
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
    for family, seed, n, t, p_text in product(families, *axes):
        key = (family, str(seed), str(n), str(t), str(p_text))
        if key not in done:
            jobs.append((family, seed, n, t, p_text))
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

        for job in jobs:
            write(_experiment_row(*job))
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
    import csv

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
    from fractions import Fraction

    from .graph_core import girth_at_least, lp_norm
    from .greedy import greedy_spanner, upper_bound_exponent

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
            bound = 8 * n ** upper_bound_exponent((t + 1) // 2, p)
            row.update(
                m_in=str(g.m), m_out=str(h.m), norm=f"{norm:.10g}",
                bound=f"{bound:.10g}", ratio=f"{norm / bound:.10g}",
                ok="1" if norm <= bound and girth_at_least(h.graph(), t + 2) else "0",
            )
        else:  # lb_agreement; run_experiment refuses any other family
            ell, pred, _branch, agree = _lp_agreement(t, Fraction(p_text), Fraction(1))
            row.update(
                norm=f"{ell:.12g}", bound=f"{pred:.12g}", ratio=f"{abs(ell - pred):.3g}",
                ok="1" if agree else "0",
            )
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
    sp.add_argument("--seed", type=int, default=0)
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


# (submodule, class) of the errors that exit 3; every one is a ValueError
_DOMAIN_ERRORS = (
    ("graph_core", "GraphError"),
    ("lb_lp", "DualConstructionError"),
    ("lb_lp", "DeriveDiagnostic"),
)


def _is_domain_error(exc: BaseException) -> bool:
    """Whether ``exc`` is a domain failure.  Only modules already loaded are
    asked: a module that was never imported cannot have raised."""
    for module, name in _DOMAIN_ERRORS:
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(exc, getattr(loaded, name)):
            return True
    return False


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 3 if _is_domain_error(exc) else 2


if __name__ == "__main__":
    sys.exit(main())
