"""Record a baseline: many seeds per workload, quartiles, and one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` it runs ``run.py`` once per seed
with tracing off, reports each end-to-end metric's median and quartiles and
its spread (interquartile range over median) against the bound in
``BENCHMARK.json``, then makes one traced run and derives per-call figures
from its spans (the ones ROADMAP item 1 quotes), raw and rescaled to
reference speed.  Runs are sequential; expect about 40 s per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter

from run import OUT_DIR, ROOT, _machine

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"{ {k: round(v['value'], 4) for k, v in result['metrics'].items()} if not trace else ''}",
          file=sys.stderr, flush=True)
    return result


def _span_figures(workload: str, seed: int) -> dict:
    """Per-call means of span self times: raw seconds, and at reference speed
    (raw times the phase's mean calibration factor from the traced record)."""
    total, calls = Counter(), Counter()
    children = Counter()
    stem = f"{workload}-seed{seed}-trace1"
    cal = json.loads((OUT_DIR / f"{stem}.json").read_text())["calibration"]
    factor = {"items": cal["scaled_items_s"] / cal["raw_items_s"],
              "cli": cal["scaled_cli_s"] / cal["raw_cli_s"]}
    spans = [json.loads(line) for line in (OUT_DIR / f"{stem}.spans.jsonl").read_text().splitlines()]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]] += span["end"] - span["start"]
    for i, span in enumerate(spans):
        name = span["name"]
        if name == "lb_lp.certificate" and span["item"].startswith("lb.p5/2."):
            name = "lb_lp.certificate@p=5/2"
        total[name] += span["end"] - span["start"] - children[i]
        calls[name] += 1
    return {"calibration_factor": factor, "spans": {
        name: {"calls": calls[name], "mean_s": total[name] / calls[name],
               "ref_mean_s": total[name] / calls[name] * factor["cli" if name == "cli.call" else "items"]}
        for name in sorted(calls)}}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="JSON file to write (replaced)")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    names = [w["name"] for w in SPEC["workloads"]]
    report = {"machine": _machine(seeds[0], argparse.Namespace(
        workload=",".join(names), seconds=SPEC["run_seconds"], trace="both")),
        "seeds": seeds, "workloads": {}}
    for workload in names:
        results = [_run(workload, seed, 0) for seed in seeds]
        e2e = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            e2e[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values}
        traced = _run(workload, seeds[0], 1)
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "span_means": _span_figures(workload, seeds[0]),
        }
        for name, m in e2e.items():
            flag = "" if name == "setup_s" or m["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:13s} {name:13s} median {m['median']:10.4f} {m['unit']:4s} "
                  f"spread {m['spread']:.3f} (bound {m['bound']}){flag}", flush=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        (ROOT / args.out).write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
