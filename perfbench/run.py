"""LogR end-to-end benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bank_http --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed``, times the set-up phase
(raw log → encoded log → summary → store → first answered request),
then replays the serve-phase schedule in rounds for ``--seconds``,
checks the responses, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics, after a
per-layer share table.  Every run also prints the workload's property
report and a provenance record, which is appended to
``.perfbench_work/history.jsonl``.  ``--smoke`` shrinks every input
(the self-test's scale).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="LogR end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still unwinds, so the server child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from engine import Bench
    from report import (
        counts, end_to_end, host_probe, per_layer, properties, provenance, share_table,
    )
    from workloads import build_plan

    record = provenance(ROOT, args.workload, args.seed, bool(args.trace))
    record["probe_start_s"] = host_probe()
    plan = build_plan(args.workload, args.seed, smoke=args.smoke)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    bench = Bench(plan, work, args.seconds, bool(args.trace), HERE)
    try:
        bench.run()
        for line in properties(bench):
            print(line)
        if args.trace:
            for line in share_table(bench):
                print(line)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["probe_end_s"] = host_probe()
    record["server_pids"] = bench.server_pids
    record["rounds"] = len(bench.rounds)
    record["checked_ops"] = sum(1 for o in bench.outcomes if o.checked)
    record["phase_seconds"] = bench.phase_seconds

    for failure in bench.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    attempted, failed = counts(bench)
    e2e = end_to_end(bench)
    metrics = per_layer(bench) if args.trace else e2e
    record["end_to_end"] = {name: value for name, (value, _) in e2e.items()}
    if args.trace:
        record["per_layer"] = {name: value for name, (value, _) in metrics.items()}
    print("record " + json.dumps(record, sort_keys=True))
    history = ROOT / ".perfbench_work" / "history.jsonl"
    with history.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    broken = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if broken:
        print(f"perfbench: no value measured for {broken}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
