"""Microbenchmark: packed-bitset kernels vs the dense reference.

The summarizer's hot path is pattern containment: `pattern_marginal`
per mined pattern, and level-wise support counting inside the Apriori
miner.  This bench times both operations on TPC-H-like and SDSS-like
workloads (constants kept, so every parameter variant is a distinct
query — the shape where scan cost actually bites) and asserts

* bit-exact agreement between the two backends, and
* the ≥5× speedup target for the packed kernels over dense.

Run with::

    pytest benchmarks/bench_kernels.py -s           # full (slow CI)
    python benchmarks/bench_kernels.py --smoke      # fast CI gate

The printed tables are archived under ``benchmarks/results/`` and the
machine-readable record as ``results/BENCH_kernels.json``.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.core.executor import available_jobs
from repro.core.mining import frequent_patterns
from repro.workloads.sdss import generate_sdss
from repro.workloads.tpch import generate_tpch

from conftest import print_table, record_bench

#: Mining parameters for the timed runs: low support so the candidate
#: lattice (and therefore support counting) dominates, as it does at
#: production scale.
MIN_SUPPORT = 0.02
MAX_SIZE = 3
REPS = 5
#: packed-over-dense gate (unchanged from the original bench).
SPEEDUP_TARGET = 5.0

#: Full-scale workload sizes (pytest / slow CI).
TPCH_TOTAL = 240_000
TPCH_VARIANTS = 600
SDSS_TOTAL = 100_000
SDSS_DISTINCT = 1_500
#: Smoke-mode sizes (fast CI gate).
SMOKE_TPCH_TOTAL = 30_000
SMOKE_TPCH_VARIANTS = 150


def make_tpch_log(total: int = TPCH_TOTAL, variants: int = TPCH_VARIANTS):
    """TPC-H-like log, constants kept: every variant a distinct row."""
    return generate_tpch(
        total=total, variants_per_template=variants, seed=0
    ).to_query_log(remove_constants=False)


def make_sdss_log(total: int = SDSS_TOTAL, n_distinct: int = SDSS_DISTINCT):
    """SDSS-like analytic log, constants kept."""
    return generate_sdss(total=total, n_distinct=n_distinct, seed=0).to_query_log(
        scheme="makiyama", remove_constants=False
    )


@pytest.fixture(scope="module")
def tpch_log():
    return make_tpch_log()


@pytest.fixture(scope="module")
def sdss_log():
    return make_sdss_log()


def _time(fn, reps=REPS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_packed_vs_dense(name: str, log, reps: int = REPS) -> list[list]:
    """Rows of [workload, op, patterns, distinct, packed ms, dense ms, x]."""
    packed = log.with_backend("packed")
    dense = log.with_backend("dense")
    patterns = [p for p, _ in frequent_patterns(packed, MIN_SUPPORT, MAX_SIZE)]
    packed.packed_columns  # pre-build the caches outside the timed region
    packed._byte_tally

    t_packed, got_packed = _time(lambda: packed.pattern_marginals(patterns), reps)
    t_dense, got_dense = _time(
        lambda: np.array([dense.pattern_marginal(p) for p in patterns]), reps
    )
    assert np.array_equal(got_packed, got_dense), "backends disagree on marginals"
    marginal_speedup = t_dense / t_packed

    m_packed, mined_packed = _time(
        lambda: frequent_patterns(packed, MIN_SUPPORT, MAX_SIZE), reps
    )
    m_dense, mined_dense = _time(
        lambda: frequent_patterns(dense, MIN_SUPPORT, MAX_SIZE), reps
    )
    assert mined_packed == mined_dense, "backends disagree on mined patterns"
    mining_speedup = m_dense / m_packed

    return [
        [name, "pattern_marginals", len(patterns), log.n_distinct,
         t_packed * 1e3, t_dense * 1e3, marginal_speedup],
        [name, "frequent_patterns", len(patterns), log.n_distinct,
         m_packed * 1e3, m_dense * 1e3, mining_speedup],
    ]


def _record(rows: list[list], **extra) -> None:
    timings = {}
    for row in rows:
        timings[f"{row[0]}_{row[1]}_packed_ms"] = row[4]
        timings[f"{row[0]}_{row[1]}_dense_ms"] = row[5]
        timings[f"{row[0]}_{row[1]}_speedup"] = row[6]
    record_bench("kernels", timings, jobs=available_jobs(), **extra)


def _assert_targets(rows: list[list]) -> None:
    for row in rows:
        assert row[-1] >= SPEEDUP_TARGET, (
            f"{row[0]} {row[1]}: packed speedup {row[-1]:.1f}x "
            f"below the {SPEEDUP_TARGET:.0f}x target"
        )


def _print_table(rows: list[list]) -> None:
    print_table(
        "Bench kernels: packed-bitset vs dense containment",
        ["workload", "operation", "patterns", "distinct", "packed ms",
         "dense ms", "speedup"],
        rows,
    )


# ----------------------------------------------------------------------
# pytest entry point (full scale, slow CI)
# ----------------------------------------------------------------------
def test_kernel_speedup(tpch_log, sdss_log):
    rows = run_packed_vs_dense("tpch", tpch_log) + run_packed_vs_dense(
        "sdss", sdss_log
    )
    _print_table(rows)
    _record(rows, mode="full")
    _assert_targets(rows)


# ----------------------------------------------------------------------
# script entry point (``--smoke`` for the fast CI job)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    if smoke:
        log = make_tpch_log(total=SMOKE_TPCH_TOTAL, variants=SMOKE_TPCH_VARIANTS)
        rows = run_packed_vs_dense("tpch", log, reps=3)
        mode = "smoke"
    else:
        rows = run_packed_vs_dense("tpch", make_tpch_log()) + run_packed_vs_dense(
            "sdss", make_sdss_log()
        )
        mode = "full"
    _print_table(rows)
    _record(rows, mode=mode)
    _assert_targets(rows)
    print("bench kernels: PASS (packed vs dense)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
