"""Metrics, the per-layer share table, the workload property report and
the run's provenance record, all computed from a finished :class:`Bench`."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

from engine import Bench, median, peak_rss_mb
from layers import PATCHES, family_sum
from workloads import FEATURE_CACHE, MONITOR_MEMO

#: Layers shown in the share table: every wrapped layer, the in-process
#: JSON transport, and the server child's handler time outside them.
SHARE_LAYERS = ("transport", "server.other") + tuple(dict.fromkeys(name for name, *_ in PATCHES))
SHARE_OPS = ("setup", "score", "window", "ingest", "compress")


def _ms(values: list[float]) -> float:
    return median(values) * 1e3


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _rate(outcomes, kind: str) -> float:
    ops = [o for o in outcomes if o.kind == kind and o.status == 200]
    seconds = sum(o.seconds for o in ops)
    return sum(o.statements for o in ops) / seconds if seconds else 0.0


def serve_rate(bench: Bench, traced: bool) -> float:
    rounds = [r for r in bench.rounds if r.traced == traced]
    ops = sum(1 for o in bench.outcomes if o.traced == traced)
    wall = sum(r.wall for r in rounds)
    return ops / wall if wall else 0.0


def counts(bench: Bench) -> tuple[int, int]:
    """``(attempted, failed)`` over set-ups and serve operations."""
    attempted = len(bench.setup.seconds) + len(bench.outcomes)
    failed = bench.setup.failed + sum(1 for o in bench.outcomes if not o.passed)
    return attempted, failed


def end_to_end(bench: Bench) -> dict[str, tuple[float, str]]:
    """The user-visible metrics, over the untraced rounds."""
    outcomes = [o for o in bench.outcomes if not o.traced]
    seconds = {
        kind: [o.seconds for o in outcomes if o.kind == kind and o.status == 200]
        for kind in ("score", "window", "compress")
    }
    error_bits, verbosity, summary_bytes = bench.setup.summaries[0]
    attempted, failed = counts(bench)
    return {
        "setup_s": (median(bench.setup.seconds), "s"),
        "compress_s": (median(seconds["compress"]), "s"),
        "error_bits": (float(error_bits), "bits"),
        "verbosity": (float(verbosity), "patterns"),
        "summary_bytes": (float(summary_bytes), "bytes"),
        "score_p50_ms": (_ms(seconds["score"]), "ms"),
        "score_p90_ms": (_p90(seconds["score"]) * 1e3, "ms"),
        "window_p50_ms": (_ms(seconds["window"]), "ms"),
        "ingest_stmts_per_s": (_rate(outcomes, "ingest"), "stmt/s"),
        "serve_ops_per_s": (serve_rate(bench, traced=False), "ops/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }


def per_layer(bench: Bench) -> dict[str, tuple[float, str]]:
    """The single-layer metrics, from the traced rounds and round 0."""
    rec = bench.recorder
    round0 = bench.rounds[0]
    fam = round0.families
    traced = [o for o in bench.outcomes if o.traced]
    cold, unparseable = bench.round0_parse
    lookups = family_sum(fam, "logr_parse_cache_lookups_total")
    hits = family_sum(fam, "logr_parse_cache_lookups_total", outcome="hit")
    # The ingest rate at a round's last ingest position over its first,
    # over every round: how ingest slows as the round's log grows (on
    # sqlshare_adhoc, also which of the two the recompression falls on).
    positions = [i for i, op in enumerate(bench.plan.round_ops(0)) if op.kind == "ingest"]
    ingests = [o for o in bench.outcomes if o.kind == "ingest" and o.status == 200]
    first = [o for o in ingests if o.index == positions[0]]
    last = [o for o in ingests if o.index == positions[-1]]
    first_rate = _rate(first, "ingest")
    score_ms = _ms([o.seconds for o in traced if o.kind == "score" and o.status == 200])
    handler_ms = rec.stat("score", "server.handler").median_ms()
    route = rec.stat("ingest", "windows.route")
    if not route.samples:  # panes off (``repro serve`` defaults): set-up routing
        route = rec.stat("panes", "windows.route")
    points = rec.layer_total("mixture.point_probabilities")
    untraced_rate = serve_rate(bench, traced=False)
    return {
        "logio.load_log_s": (median(rec.stat("compress", "logio.load_log").samples), "s"),
        "featurecache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "fingerprint.us_per_stmt": (rec.layer_total("fingerprint").mean_us(), "us"),
        "sql.parse_us_per_stmt": (rec.layer_total("sql.parse").mean_us(), "us"),
        "sql.cold_stmts": (float(cold), "count"),
        "sql.unparseable": (float(unparseable), "count"),
        "pipeline.partition_s": (median(rec.stat("compress", "pipeline.partition").samples), "s"),
        "pipeline.fit_s": (median(rec.stat("compress", "pipeline.fit").samples), "s"),
        "pipeline.distinct_rows": (float(bench.setup.distinct_rows), "count"),
        "pipeline.n_features": (float(bench.setup.n_features), "count"),
        "monitor.score_batch_ms": (rec.stat("score", "monitor.score_batch").median_ms(), "ms"),
        "mixture.point_probabilities_ms": (points.mean_us() / 1e3, "ms"),
        "ingest.batch_ms": (rec.stat("ingest", "ingest.batch").median_ms(), "ms"),
        "ingest.merge_ms": (rec.stat("ingest", "ingest.merge").median_ms(), "ms"),
        "ingest.recompressions": (family_sum(fam, "logr_ingest_recompressions_total"), "count"),
        "ingest.rate_last_over_first": (
            _rate(last, "ingest") / first_rate if first_rate else float("nan"), "ratio"
        ),
        "ingest.matrix_mb": (bench.final_state["matrix_mb"], "MiB"),
        "ingest.vocab_size": (bench.final_state["vocab_size"], "count"),
        "windows.route_ms": (route.median_ms(), "ms"),
        "windows.compose_ms": (rec.stat("window", "windows.compose").median_ms(), "ms"),
        "windows.panes_sealed": (family_sum(fam, "logr_panes_sealed_total"), "count"),
        "store.save_ms": (rec.stat("ingest", "store.save").median_ms(), "ms"),
        "store.load_ms": (rec.layer_total("store.load").median_ms(), "ms"),
        "store.writes": (family_sum(fam, "logr_store_writes_total"), "count"),
        "store.bytes_per_ingested_stmt": (
            round0.store_growth / round0.ingested if round0.ingested else 0.0,
            "bytes",
        ),
        "server.score_handler_ms": (handler_ms, "ms"),
        "transport.score_overhead_ms": (score_ms - handler_ms, "ms"),
        "transport.errors": (float(sum(1 for o in bench.outcomes if o.status != 200)), "count"),
        "transport.shed": (float(sum(1 for o in bench.outcomes if o.status == 429)), "count"),
        "obs.trace_overhead_frac": (
            1.0 - serve_rate(bench, traced=True) / untraced_rate if untraced_rate else 0.0,
            "fraction",
        ),
    }


def share_table(bench: Bench) -> list[str]:
    """Layer self time ÷ operation time, per operation kind.

    Over HTTP the server's layers are timed in the child and divided by
    the client-side operation time; the remainder is the transport.
    """
    rec = bench.recorder
    lines = ["share table (layer self time / operation time, traced rounds):"]
    header = f"  {'layer':<30}" + "".join(f"{op:>10}" for op in SHARE_OPS)
    lines.append(header)
    totals = {op: rec.op_seconds.get(op, 0.0) for op in SHARE_OPS}
    shares: dict[str, dict[str, float]] = {}
    for op in SHARE_OPS:
        if not totals[op]:
            continue
        row = {layer: rec.stat(op, layer).self_total / totals[op] for layer in SHARE_LAYERS}
        server = rec.op_seconds.get(f"server:{op}")
        if server is not None:  # HTTP: client time the server never saw
            row["transport"] = (totals[op] - server) / totals[op]
        row["(unattributed)"] = 1.0 - sum(row.values())
        shares[op] = row
    for layer in list(SHARE_LAYERS) + ["(unattributed)"]:
        cells = "".join(
            f"{shares[op][layer]:>10.1%}" if op in shares else f"{'-':>10}"
            for op in SHARE_OPS
        )
        lines.append(f"  {layer:<30}" + cells)
    counts_row = "".join(f"{rec.op_counts.get(op, 0):>10}" for op in SHARE_OPS)
    lines.append(f"  {'(operations)':<30}" + counts_row)
    fam = {}
    for info in bench.rounds:
        if info.traced:
            for key, value in info.families.items():
                fam[key] = fam.get(key, 0.0) + value
    lines.append("  repro.obs families over the traced rounds:")
    for stage in ("encode", "partition", "fit", "refine"):
        seconds = family_sum(fam, "logr_pipeline_stage_seconds", stage=stage)
        lines.append(f"    logr_pipeline_stage_seconds{{stage={stage}}} sum {seconds:.3f} s")
    lines.append(
        f"    logr_ingest_merge_seconds sum {family_sum(fam, 'logr_ingest_merge_seconds'):.3f} s"
    )
    for outcome in ("hit", "miss", "bypass"):
        lines.append(
            f"    logr_parse_cache_lookups_total{{outcome={outcome}}} "
            f"{family_sum(fam, 'logr_parse_cache_lookups_total', outcome=outcome):.0f}"
        )
    lines.append(
        f"    logr_store_writes_total {family_sum(fam, 'logr_store_writes_total'):.0f}"
    )
    return lines


def properties(bench: Bench) -> list[str]:
    """What the workload stresses: repetition and working-set sizes."""
    from repro.sql.fingerprint import fingerprint

    plan = bench.plan

    def shape(statements: list[str]) -> tuple[int, int, int]:
        raw = Counter(statements)
        templates = {fingerprint(text) for text in raw}
        return len(statements), len(raw), len(templates)

    ops = plan.round_ops(0)
    served = [s for op in ops if op.kind != "compress" for s in op.statements]
    scored = [s for op in ops if op.kind in ("score", "window") for s in op.statements]
    lines = []
    for label, statements in (("seed log", plan.seed_log), ("round-0 traffic", served)):
        total, raw, templates = shape(statements)
        lines.append(
            f"property {label}: {total} statements, {raw} raw-distinct, {templates} templates, "
            f"template repetition share {1 - templates / total:.3f}"
        )
    _, scored_raw, scored_templates = shape(scored)
    lines.append(
        f"property working set: {scored_raw} raw-distinct scored strings vs the "
        f"{MONITOR_MEMO}-entry monitor memo ({scored_raw / MONITOR_MEMO:.2f}x); "
        f"{scored_templates} scored templates vs the {FEATURE_CACHE}-entry featurecache "
        f"({scored_templates / FEATURE_CACHE:.3f}x)"
    )
    lines.append(
        f"property final state (after round 0): vocabulary {bench.final_state['vocab_size']:.0f} "
        f"features, {bench.final_state['distinct_rows']:.0f} distinct rows"
    )
    return lines


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (context only, never a scale)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        best = min(best, time.perf_counter() - start)
    return best


def provenance(root: Path, workload: str, seed: int, trace: bool) -> dict:
    """Revision, host fingerprint and seed of a run."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "started_at": time.time(),
    }
