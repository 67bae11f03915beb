"""Timing, tracing and checking machinery shared by the benchmark scripts.

Only the standard library is used: ``time.perf_counter`` for every timing,
``subprocess`` for CLI children, ``hashlib`` for output digests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CLI_TIMEOUT_S = 120

# span name -> per-layer metric that receives its self time
SPAN_METRIC = {
    "graph_core.build": "graph_core.build_s",
    "graph_core.girth": "graph_core.girth_s",
    "graph_core.norm": "graph_core.norm_s",
    "graph_core.io": "graph_core.io_s",
    "greedy.unit": "greedy.unit_busy_s",
    "greedy.weighted": "greedy.weighted_busy_s",
    "greedy.verify": "greedy.verify_s",
    "simplex.float": "simplex.float_busy_s",
    "simplex.exact": "simplex.exact_busy_s",
    "lb_lp.shape": "lb_lp.shape_s",
    "lb_lp.model": "lb_lp.model_s",
    "lb_lp.predict": "lb_lp.predict_s",
    "lb_lp.certificate": "lb_lp.certificate_s",
    "lb_lp.cert_verify": "lb_lp.cert_verify_s",
    "extremal.build": "extremal.build_s",
    "extremal.norm": "extremal.norm_s",
    "extremal.verify_explicit": "extremal.verify_explicit_s",
    "extremal.verify_virtual": "extremal.verify_virtual_s",
    "decomposition.busy": "decomposition.busy_s",
    "oracle.search": "oracle.busy_s",
    "oracle.ratio": "oracle.ratio_s",
    "cli.call": "cli.busy_s",
}
COUNTERS = (
    "greedy.calls", "greedy.edges_scanned", "greedy.edges_kept",
    "simplex.exact_solves", "simplex.float_solves", "lb_lp.certificates",
    "extremal.virtual_instances", "extremal.explicit_instances",
    "decomposition.calls", "oracle.explored", "oracle.pruned", "cli.calls",
)
ITEM_SPAN = "item"  # root span of one item; its self time is harness glue

# The host's interpreter speed drifts by +-25% over seconds (other tenants on
# shared cores).  A fixed pure-Python kernel, timed between units of work,
# tracks that drift; each end-to-end timing is rescaled to the speed at which
# the kernel takes CAL_REF_S, using the kernel times measured around it, so
# runs made at different moments compare.
CAL_EVERY_S = 0.1
CAL_SMOOTH = 2  # samples on each side averaged into the local speed
CAL_REF_S = 0.0023  # kernel time at full speed on a 2-core Xeon, CPython 3.11
_CAL_N = 300


def _calibration_graph() -> list[list[int]]:
    rng = random.Random("calibration")
    adj: list[list[int]] = [[] for _ in range(_CAL_N)]
    for _ in range(4 * _CAL_N):
        u, v = rng.randrange(_CAL_N), rng.randrange(_CAL_N)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


_CAL_ADJ = _calibration_graph()


def _kernel_seconds() -> float:
    """One pass of the calibration kernel: BFS plus rational arithmetic, the
    two kinds of work the workloads spend their time in."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    stamp = [0] * _CAL_N
    for tick, source in enumerate(range(0, _CAL_N, 15), start=1):
        stamp[source] = tick
        depth = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for x in frontier:
                for y in _CAL_ADJ[x]:
                    if stamp[y] != tick:
                        stamp[y] = tick
                        depth[y] = depth[x] + 1
                        nxt.append(y)
            frontier = nxt
    return time.perf_counter() - start


class Calibration:
    """Kernel timings taken at most every CAL_EVERY_S, outside timed windows."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -CAL_EVERY_S

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= CAL_EVERY_S:
            self.samples.append(min(_kernel_seconds() for _ in range(3)))
            self._last = time.perf_counter()

    def mark(self) -> int:
        """Index of the latest sample, to attach to the unit timed next."""
        return len(self.samples) - 1

    def factor_now(self) -> float:
        """Factor at the latest samples, for decisions made while a phase runs."""
        return CAL_REF_S / statistics.fmean(self.samples[-CAL_SMOOTH - 1:])

    def factors(self, marks: list[int]) -> list[float]:
        """Per unit: multiply its measured time by this to get it at reference speed."""
        n = len(self.samples)
        local = [statistics.fmean(self.samples[max(0, i - CAL_SMOOTH):i + CAL_SMOOTH + 1])
                 for i in range(n)]
        return [CAL_REF_S / local[m] for m in marks]


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans and counts cost one call each and record nothing."""

    _span = _NullSpan()
    item = None

    def __call__(self, name: str):
        return self._span

    def count(self, name: str, n: int) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        tracer.spans.append([name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.item])
        self.tracer = tracer
        self.index = len(tracer.spans) - 1

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory spans ``[name, start, end, parent, item]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = None

    def __call__(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for i, (name, start, end, _parent, _item) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return totals

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics from one traced run; self times + remainder == wall."""
    self_s = tracer.self_times()
    c = tracer.counts
    out = {metric: self_s.get(span, 0.0) for span, metric in SPAN_METRIC.items()}
    attributed = sum(out.values())
    out["greedy.busy_s"] = out.pop("greedy.unit_busy_s") + out["greedy.weighted_busy_s"]
    out.update({name: c.get(name, 0) for name in COUNTERS})
    out["greedy.keep_ratio"] = _ratio(c["greedy.edges_kept"], c["greedy.edges_scanned"])
    out["oracle.prune_ratio"] = _ratio(c["oracle.pruned"], c["oracle.explored"])
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - attributed
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_item(item, tracer) -> tuple[bool, float, str | None, str]:
    """Compute and check one item; returns (ok, seconds, digest, error)."""
    key, compute, check = item
    tracer.item = key
    error = ""
    text = None
    with tracer(ITEM_SPAN):
        start = time.perf_counter()
        try:
            out = compute(tracer)
            ok, text = check(out, tracer)
        except Exception as exc:  # a defect the item hit; counted, never fatal
            ok, error = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if not ok and not error:
        error = "output check failed"
    return ok, seconds, None if text is None else digest(text), error


def strict_json(text: str) -> None:
    """Raise ValueError unless ``text`` is one strict JSON document."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    json.loads(text, parse_constant=reject)


def strict_csv(text: str) -> None:
    """Raise ValueError unless ``text`` is a header plus rows of equal width."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or not all(rows[0]):
        raise ValueError("CSV needs a header and at least one row")
    if any(len(r) != len(rows[0]) for r in rows[1:]):
        raise ValueError("CSV rows of unequal width")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SPANORM_EXACT", None)  # the flag changes lb output; calls pass --exact instead
    return env


def run_cli(call, workdir: Path, env: dict, tracer) -> tuple[bool, float, str | None, str]:
    """One ``spanorm`` child: exit code 0 and strict JSON/CSV stdout."""
    key, argv, fmt = call
    tracer.item = f"cli.{key}"
    start = time.perf_counter()
    with tracer("cli.call"):
        proc = subprocess.run([sys.executable, "-m", "spanorm.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    seconds = time.perf_counter() - start
    tracer.count("cli.calls", 1)
    if proc.returncode != 0:
        return False, seconds, digest(proc.stdout), f"exit {proc.returncode}: {proc.stderr[-300:]}"
    try:
        (strict_json if fmt == "json" else strict_csv)(proc.stdout)
    except ValueError as exc:
        return False, seconds, digest(proc.stdout), f"stdout not strict {fmt}: {exc}"
    return True, seconds, digest(proc.stdout), ""
