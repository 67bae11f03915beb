"""Record the output digest of every item in every workload's universe.

    python3 perfbench/record_golden.py [workload ...]

Writes ``perfbench/golden/<workload>.json`` (item key -> digest).  Run it only
when a change is meant to alter program output or the workloads; the
benchmark counts any later mismatch as a failed item.  Items whose own
check fails are reported here and still recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, harness, workloads


def record(workload: str) -> dict:
    spec = workloads.WORKLOADS[workload]
    tracer = harness.NullTracer()
    table = {}
    for s in range(spec.sets):
        for item in spec.make_set(s):
            ok, _seconds, got, error = harness.run_item(item, tracer)
            table[item[0]] = got
            if not ok:
                print(f"{workload}: {item[0]} fails its check: {error}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden-", dir=OUT_DIR) as tmp:
        env = harness.cli_env()
        for j in range(workloads.CLI_SETS):
            for call in spec.make_cli(j, Path(tmp)):
                ok, _seconds, got, error = harness.run_cli(call, Path(tmp), env, tracer)
                table["cli." + call[0]] = got
                if not ok:
                    print(f"{workload}: cli.{call[0]} fails its check: {error}", file=sys.stderr)
    return table


def main(argv: list[str]) -> int:
    harness.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in argv or sorted(workloads.WORKLOADS):
        table = record(workload)
        path = harness.GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"{workload}: {len(table)} digests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
