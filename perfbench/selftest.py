"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Runs every workload at reduced size (``--seconds 1``), traced and not, and
   checks that the result line carries exactly the metrics ``BENCHMARK.json``
   names, each with its unit, and that every item passed.
2. Feeds corrupted results to the checkers (a greedy spanner with one edge
   dropped, an LP value off by 1e-6, a wrong recorded digest, non-strict
   JSON and ragged CSV) and checks that each counts as a failed item.
3. Checks that traced layer self times plus the unattributed remainder add
   up to the traced wall time.
4. Checks that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, ROOT, harness, run, workloads

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(argv: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([*SPEC["command"], *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def check_metric_names() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _result(["--workload", workload, "--seed", "7", "--seconds", "1",
                                    "--trace", str(trace)])
            assert code == 0 and result is not None, (workload, trace, code)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} items checked")


def _tampered(workload: str, tamper):
    """Workload whose first item per set has its output corrupted before the check."""
    spec = workloads.WORKLOADS[workload]

    def corrupt_first(s):
        items = spec.make_set(s)
        key, compute, check = items[0]
        items[0] = (key, lambda span: tamper(compute(span)), check)
        return items

    return spec._replace(make_set=corrupt_first)


def _drop_edge(out):
    kept = out["kept"][:-1]
    return {**out, "kept": kept, "hg": out["g"].subgraph(kept)}


def _shift_ell(out):
    return {**out, "ell": float(out["ell"]) + 1e-6}


def check_corruption_counts() -> None:
    saved = dict(workloads.WORKLOADS)
    try:
        for workload, tamper, label in (("greedy_sweep", _drop_edge, "spanner missing one edge"),
                                        ("lb_certify", _shift_ell, "LP value off by 1e-6")):
            workloads.WORKLOADS[workload] = _tampered(workload, tamper)
            res = run(workload, 3, 0, harness.NullTracer(), min_items=1, min_cli=1)
            assert len(res["failures"]) == res["item_sets"], res["failures"]
            assert all("output check failed" in error for _key, error in res["failures"])
            print(f"ok   {label}: fail_ratio {len(res['failures'])}/{res['attempted']}")
    finally:
        workloads.WORKLOADS.update(saved)

    saved_golden = harness.load_golden
    try:
        harness.load_golden = lambda w: {k: "0" * 16 for k in saved_golden(w)}
        res = run("lb_certify", 3, 0, harness.NullTracer(), min_items=1, min_cli=1)
        assert len(res["failures"]) == res["attempted"], res["failures"][:3]
        assert all("digest" in error for _key, error in res["failures"])
        print(f"ok   wrong recorded digests: {len(res['failures'])}/{res['attempted']} failed")
    finally:
        harness.load_golden = saved_golden

    for text, check in (('{"slack": Infinity}', harness.strict_json),
                        ('{"x": NaN}', harness.strict_json),
                        ("a,b\n1,2\n3\n", harness.strict_csv)):
        try:
            check(text)
        except ValueError:
            continue
        raise AssertionError(f"{check.__name__} accepted {text!r}")
    print("ok   non-strict JSON and ragged CSV rejected")


def check_trace_identity() -> None:
    for workload in sorted(workloads.WORKLOADS):
        tracer = harness.Tracer()
        res = run(workload, 5, 0, tracer, min_items=1, min_cli=1)
        wall = res["items_s"] + res["cli_s"]
        metrics = harness.layer_metrics(tracer, wall)
        self_s = tracer.self_times()
        assert all(v >= -1e-9 for v in self_s.values()), self_s
        layers = sum(self_s[span] for span in harness.SPAN_METRIC)
        assert math.isclose(layers + metrics["trace.unattributed_s"], wall, rel_tol=1e-9)
        assert 0 <= metrics["trace.unattributed_s"] < wall
        print(f"ok   {workload}: layer self times {layers:.3f}s + unattributed "
              f"{metrics['trace.unattributed_s']:.3f}s = traced wall {wall:.3f}s")


def check_refuses_without_sources() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result = _result(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                "--seconds", "1", "--trace", "0"], cwd=bare)
        assert code != 0 and result is None, (code, result)
    print(f"ok   without sources: exit {code}, no result line")


def main() -> int:
    check_corruption_counts()
    check_trace_identity()
    check_refuses_without_sources()
    check_metric_names()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
