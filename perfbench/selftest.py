"""Smoke-size self-test of the benchmark.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload at ``--smoke`` size, untraced and traced, and
asserts that:

* every metric ``BENCHMARK.json`` names is printed, with its unit;
* ``ok_frac`` is 1 and the run reports itself correct;
* the ``bank_http`` server children were all reaped (none is left);
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _alive(pid: int) -> bool:
    return Path(f"/proc/{pid}").exists()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{label}: {metric['name']} missing or unit differs: {got}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                failures.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: not correct ({result['failed']} failed)\n{done.stderr[-2000:]}")
            if trace == 0 and metrics["ok_frac"]["value"] != 1.0:
                failures.append(f"{label}: ok_frac {metrics['ok_frac']['value']}")
            record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
            if workload == "bank_http" and not record["server_pids"]:
                failures.append(f"{label}: no server child was started")
            stray = [pid for pid in record["server_pids"] if _alive(pid)]
            if stray:
                failures.append(f"{label}: server children left running: {stray}")
            print(f"selftest: {label}: {len(metrics)} metrics, {result['attempted']} operations")

    bare = ROOT / ".perfbench_work" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, "bank_http", 0)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("bare directory: benchmark did not fail cleanly")
        else:
            print(f"selftest: bare directory: exit {done.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"selftest: FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
