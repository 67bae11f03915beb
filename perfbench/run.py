"""spanorm benchmark: one seeded workload, end-to-end or traced metrics.

    python3 perfbench/run.py --workload greedy_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``greedy_sweep``,
``lb_certify`` and ``desk_suite``.  A run is one process with no threads: an
item phase (in-process library calls) for 70 % of ``--seconds``,
then a CLI phase (``python -m spanorm.cli`` children, one at a time).  Both
phases run whole rounds of sets and stop at the round boundary nearest their
budget in calibrated time; ``lb_certify``'s item phase is one grid pass.
Every item's output is checked and compared with its recorded digest.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
phases at half length with spans around every library call, replays the
same sets untraced in a child for the item phase's overhead ratio, and prints per-layer
metrics.  The last stdout line is the JSON result; a record with machine
info goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
ITEM_SHARE = 0.7
MIN_ITEMS = 200
MIN_CLI = 12
SETUP_REPEATS = 5
STARTUP_REPEATS = 5


def _import_harness():
    if not (ROOT / "src" / "spanorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no spanorm sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    return harness, workloads


harness, workloads = _import_harness()


def _phase_done(scaled_s, rounds, count, budget_s, min_count):
    # stop at the round boundary nearest the budget, once min_count is reached
    return rounds > 0 and count >= min_count and scaled_s * (1 + 0.5 / rounds) >= budget_s


def _phase(sets, run_one, budget_s, min_count, round_, max_sets=None):
    """Run whole rounds of sets until near ``budget_s`` and past ``min_count``,
    or exactly ``max_sets`` sets.

    The budget is spent in calibrated seconds, so the number of rounds does not
    follow the host's speed.  Returns the unit results, the summed raw unit
    seconds, the set count and each unit's calibration factor.  Input
    generation and calibration stay outside the timed windows.
    """
    results, marks, scaled_s, n_sets = [], [], 0.0, 0
    cal = harness.Calibration()
    while (n_sets < max_sets if max_sets is not None else not (
            n_sets % round_ == 0
            and _phase_done(scaled_s, n_sets // round_, len(results), budget_s, min_count))):
        for unit in next(sets):
            cal.sample()
            marks.append(cal.mark())
            results.append(run_one(unit))
            scaled_s += results[-1][2] * cal.factor_now()
        n_sets += 1
    cal.sample(force=True)
    return results, sum(r[2] for r in results), n_sets, cal.factors(marks)


def run(workload, seed, seconds, tracer, min_items=MIN_ITEMS, min_cli=MIN_CLI, replay=None):
    """Item phase then CLI phase; ``replay=(item_sets, cli_sets)`` fixes the set counts."""
    spec = workloads.WORKLOADS[workload]
    golden = harness.load_golden(workload)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    env = harness.cli_env()
    try:
        order = workloads.set_order(workload, seed, spec.sets)
        item_sets = (workloads.shuffled(spec.make_set(s), workload, seed, s) for s in order)
        cli_order = workloads.set_order(workload + "/cli", seed, workloads.CLI_SETS)
        cli_sets = (spec.make_cli(j, workdir) for j in cli_order)
        fixed = spec.item_rounds and spec.item_rounds * spec.round
        items, items_s, n_item_sets, item_factors = _phase(
            item_sets, lambda item: (item[0], *harness.run_item(item, tracer)),
            seconds * ITEM_SHARE, min_items, spec.round, replay[0] if replay else fixed)
        calls, cli_s, n_cli_sets, cli_factors = _phase(
            cli_sets, lambda call: ("cli." + call[0], *harness.run_cli(call, workdir, env, tracer)),
            seconds * (1 - ITEM_SHARE), min_cli, spec.cli_round, replay and replay[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = []
    for key, ok, _seconds, got, error in items + calls:
        want = golden.get(key)
        if ok and got != want:
            error = f"digest {got} != recorded {want}"
        if error:
            failures.append((key, error))
    run_digest = harness.digest("".join(f"{k}={d}\n" for k, _o, _s, d, _e in items + calls))
    return {
        "item_latencies": [r[2] for r in items], "cli_latencies": [r[2] for r in calls],
        "items_s": items_s, "cli_s": cli_s, "item_sets": n_item_sets, "cli_sets": n_cli_sets,
        "item_scaled": [r[2] * f for r, f in zip(items, item_factors)],
        "cli_scaled": [r[2] * f for r, f in zip(calls, cli_factors)],
        "attempted": len(items) + len(calls), "failures": failures, "digest": run_digest,
    }


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timed_children(argv, repeats, until_ready):
    """Median seconds, at reference speed, from spawn to a ready line (or to
    exit) over ``repeats`` children."""
    times, marks = [], []
    cal = harness.Calibration()
    for _ in range(repeats):
        cal.sample(force=True)
        marks.append(cal.mark())
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=harness.cli_env(), cwd=ROOT) as proc:
            if until_ready:
                proc.stdout.readline()
                times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
            if not until_ready:
                times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"{argv} exited with {code}")
    cal.sample(force=True)
    return statistics.median(t * f for t, f in zip(times, cal.factors(marks)))


def end_to_end(res, setup):
    """End-to-end metrics; timings at reference speed (see harness.Calibration)."""
    items = res["item_scaled"]
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "items_per_s": (len(items) / sum(items), "1/s"),
        "item_p50_ms": (1e3 * _quantile(items, 50), "ms"),
        "item_p95_ms": (1e3 * _quantile(items, 95), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "cli_p50_ms": (1e3 * statistics.median(res["cli_scaled"]), "ms"),
    }


def per_layer(tracer, res, replay_items_scaled, startup):
    """Per-layer metrics: raw span times, so they add up to the raw traced wall.

    The overhead ratio compares item phases only: CLI children are not traced.
    """
    metrics = harness.layer_metrics(tracer, res["items_s"] + res["cli_s"])
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_ratio"] = sum(res["item_scaled"]) / replay_items_scaled - 1
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def _machine(seed, args):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "commit": _commit(), "seed": seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }


def _commit():
    """HEAD, with ``-dirty`` when the tree has changes git would commit."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"

    def git(*argv):
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=30).stdout.strip()

    try:
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return head + ("-dirty" if status else "")


def _setup_only(workload, seed):
    spec = workloads.WORKLOADS[workload]
    first = next(workloads.set_order(workload, seed, spec.sets))
    workloads.shuffled(spec.make_set(first), workload, seed, first)
    with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT_DIR) as tmp:
        spec.make_cli(next(workloads.set_order(workload + "/cli", seed, workloads.CLI_SETS)), Path(tmp))
    print("ready", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child that only sets up, or replays a traced run's sets untraced
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one CPU for this process and its children: the calibration kernel then
    # measures the speed of the CPU the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    me = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
          "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.replay:
        replay = tuple(int(x) for x in args.replay.split(","))
        res = run(args.workload, args.seed, args.seconds, harness.NullTracer(), replay=replay)
        print(json.dumps({"scaled_items_s": sum(res["item_scaled"])}))
        return 0
    if args.trace:
        startup = _timed_children([sys.executable, "-c", "import spanorm.cli"], STARTUP_REPEATS, False)
        tracer = harness.Tracer()
        res = run(args.workload, args.seed, args.seconds / 2, tracer, min_items=MIN_ITEMS // 2,
                  min_cli=MIN_CLI // 2)
        child = subprocess.run(me + ["--replay", f"{res['item_sets']},{res['cli_sets']}"],
                               capture_output=True, text=True, env=harness.cli_env(), timeout=600)
        if child.returncode != 0:
            raise RuntimeError(f"replay failed: {child.stderr[-500:]}")
        replay_items = json.loads(child.stdout.strip().splitlines()[-1])["scaled_items_s"]
        metrics = per_layer(tracer, res, replay_items, startup)
    else:
        setup = _timed_children(me + ["--setup-only"], SETUP_REPEATS, True)
        tracer = harness.NullTracer()
        res = run(args.workload, args.seed, args.seconds, tracer)
        metrics = end_to_end(res, setup)
    failed = len(res["failures"])
    record = {
        "machine": _machine(args.seed, args),
        "counts": {"items": len(res["item_latencies"]), "cli_calls": len(res["cli_latencies"]),
                   "item_sets": res["item_sets"], "cli_sets": res["cli_sets"],
                   "item_percentile_samples": len(res["item_latencies"]),
                   "cli_percentile_samples": len(res["cli_latencies"])},
        "attempted": res["attempted"], "failed": failed,
        "fail_ratio": failed / res["attempted"], "failures": res["failures"][:50],
        "output_digest": res["digest"],
        "calibration": {"reference_kernel_s": harness.CAL_REF_S,
                        "raw_items_s": res["items_s"], "scaled_items_s": sum(res["item_scaled"]),
                        "raw_cli_s": res["cli_s"], "scaled_cli_s": sum(res["cli_scaled"])},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{name}.spans.jsonl")
    for key, error in res["failures"][:20]:
        print(f"FAILED {key}: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} items={len(res['item_latencies'])} "
          f"cli_calls={len(res['cli_latencies'])} digest={res['digest']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':28s} {failed / res['attempted']:14.6g} ratio "
          f"({failed}/{res['attempted']})")
    print(json.dumps({
        "correct": failed == 0, "attempted": res["attempted"], "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
