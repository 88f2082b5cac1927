"""One benchmark run: the set-up phase, then rounds of the serve phase.

Set-up phase (timed as ``setup_s``, repeated ``plan.setup_reps``
times): raw seed log → ``load_log`` → ``LogRCompressor.compress`` →
``SummaryStore.save`` → the service answers its first request.

Serve phase: a closed loop replays the plan's fixed interleave of
``/score``, ``/window`` and ``/ingest`` requests and batch
compressions.  It runs in *rounds*: each round starts from a copy of
the store the first set-up left, on a fresh service, and has the same
shape, drawing its statements from its own offset into the seeded
traffic.  Count-type metrics come from round 0, so they repeat
exactly for a seed.  Rounds repeat until the run's seconds are spent;
only whole rounds are measured.

``bank_http`` serves through ``repro serve`` in a child process
(restarted on each round's store copy), driven by the same closed
loop over one keep-alive connection; the batch compressions run in
this process.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import Oracle, canonical, ingest_accounts
from layers import LayerRecorder, LayerStat, delta, parse_exposition, registry_totals
from workloads import Op, Plan

#: The program's own configuration: ``repro``'s CLI defaults (K=8,
#: seed 0, 4 clusters per pane).  The benchmark seed never reaches it.
N_CLUSTERS = 8
PROGRAM_SEED = 0
PANE_CLUSTERS = 4
CHILD_START_TIMEOUT = 120.0
CHILD_STOP_TIMEOUT = 30.0


@dataclass
class Outcome:
    """One executed serve-phase operation."""

    round: int
    index: int
    kind: str
    seconds: float
    statements: int
    status: int  # HTTP status (in-process: 200, or 500 on an exception)
    body: dict | None
    traced: bool
    checked: bool = False
    passed: bool = True


@dataclass
class RoundInfo:
    traced: bool
    wall: float
    families: dict[str, float]
    ingested: int
    store_growth: int


@dataclass
class SetupInfo:
    seconds: list[float] = field(default_factory=list)
    summaries: list[tuple[float, int, int]] = field(default_factory=list)
    distinct_rows: int = 0
    n_features: int = 0
    failed: int = 0


class ServerChild:
    """``repro serve`` (default flags) on a store, in a child process."""

    def __init__(self, bench_dir: Path, store: Path, record: Path | None) -> None:
        command = [sys.executable, "-u", str(bench_dir / "serve_child.py"), str(store)]
        if record is not None:
            command += ["--record", str(record)]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + CHILD_START_TIMEOUT
        stream = self.process.stdout
        assert stream is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 1.0)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stream.readline()
            if not line:
                break
            if line.startswith("serving ") and "http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro serve did not come up")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=CHILD_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class HttpClient:
    """One keep-alive connection to the server child."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def request(self, method: str, path: str, body: dict | None = None):
        """``(status, payload)``; status 0 when the request never completed."""
        try:
            data = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if data is not None else {}
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            if response.getheader("Content-Type", "").startswith("application/json"):
                return response.status, json.loads(raw)
            return response.status, {"text": raw.decode("utf-8")}
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.conn.close()
            self.conn = self._connect()
            return 0, {"error": repr(exc)}

    def close(self) -> None:
        self.conn.close()


class Bench:
    """Runs one workload plan and keeps every measurement."""

    def __init__(
        self, plan: Plan, work: Path, seconds: float, trace: bool, bench_dir: Path
    ) -> None:
        self.plan = plan
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.bench_dir = bench_dir
        self.recorder = LayerRecorder()
        self.setup = SetupInfo()
        self.outcomes: list[Outcome] = []
        self.rounds: list[RoundInfo] = []
        self.round0_parse = (0, 0)  # (cold parses, parse errors) in round 0
        self.final_state: dict[str, float] = {}
        self.failures: list[str] = []
        self.server_pids: list[int] = []
        self.phase_seconds: dict[str, float] = {}
        self._child: ServerChild | None = None

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Set up, then serve rounds until the seconds are spent.

        The later set-up repetitions and each round's checks run between
        rounds, so the serve samples and the set-up samples are spread
        over the whole run and average over more of the host's speed
        drift than back-to-back phases would.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        phases = self.phase_seconds
        try:
            self._timed_phase("setup", self._setup, 0)
            self._timed_phase("setup", self._seed_panes, self.work / "setup-0")
            index = 0
            while True:
                traced = self.trace and index % 2 == 0
                self._timed_phase("serve", self._round, index, traced)
                self._timed_phase("check", self._check, index)
                index += 1
                if index < self.plan.setup_reps:
                    self._timed_phase("setup", self._setup, index)
                    continue
                done = phases["serve"] >= self.seconds
                if done and (not self.trace or index % 2 == 0):
                    break
            # The deterministic summary metrics must repeat across set-ups.
            if len(set(self.setup.summaries)) != 1:
                self.setup.failed += len(self.setup.summaries) - 1
                self.failures.append(f"set-up summaries differ: {self.setup.summaries}")
        finally:
            self._stop_child()

    def _timed_phase(self, phase: str, fn, *args) -> None:
        start = time.perf_counter()
        fn(*args)
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + time.perf_counter() - start

    # ------------------------------------------------------------------
    # set-up phase
    # ------------------------------------------------------------------
    def _setup(self, rep: int) -> None:
        """One set-up repetition into ``setup-<rep>`` (the first is kept
        as the base every round copies)."""
        from repro.core.compress import LogRCompressor
        from repro.service import SummaryStore
        import repro.workloads.logio as logio

        plan = self.plan
        root = self.work / f"setup-{rep}"
        if self.trace:
            self.recorder.install()
        try:
            start = time.perf_counter()
            with self._op("setup"):
                log, _ = logio.load_log(plan.seed_log)
                compressed = LogRCompressor(n_clusters=N_CLUSTERS, seed=PROGRAM_SEED).compress(log)
                SummaryStore(root).save(plan.profile, compressed, log, note="set-up")
                status = self._first_request(root)
            self.setup.seconds.append(time.perf_counter() - start)
        finally:
            if self.trace:
                self.recorder.uninstall()
            self._stop_child()
        self.setup.summaries.append(
            (compressed.error, compressed.total_verbosity, compressed.size_bytes())
        )
        if status != 200:
            self.setup.failed += 1
            self.failures.append(f"set-up {rep}: first request status {status}")
        self.setup.distinct_rows = log.n_distinct
        self.setup.n_features = log.n_features
        if rep > 0:
            shutil.rmtree(root)

    def _first_request(self, root: Path) -> int:
        body = {"profile": self.plan.profile, "statements": self.plan.seed_log[:1]}
        if self.plan.transport == "http":
            self._child = ServerChild(self.bench_dir, root, None)
            self.server_pids.append(self._child.process.pid)
            client = HttpClient(self._child.port)
            try:
                status, _ = client.request("POST", "/score", body)
            finally:
                client.close()
            return status
        service = self._service(root)
        service.handle_score(body)
        return 200

    def _service(self, root: Path):
        from repro.service import AnalyticsService, SummaryStore

        return AnalyticsService(
            SummaryStore(root),
            pane_statements=self.plan.pane_statements,
            pane_clusters=PANE_CLUSTERS,
            seed=PROGRAM_SEED,
        )

    def _seed_panes(self, root: Path) -> None:
        """Seal the set-up pane history that ``/window`` composes."""
        from repro.service import SummaryStore, WindowedProfile

        plan = self.plan
        if self.trace:
            self.recorder.install()
        try:
            windowed = WindowedProfile(
                SummaryStore(root),
                plan.profile,
                pane_statements=plan.pane_statements,
                n_clusters=PANE_CLUSTERS,
                seed=PROGRAM_SEED,
            )
            for start in range(0, len(plan.pane_seed), plan.pane_statements):
                with self._op("panes"):
                    windowed.ingest(plan.pane_seed[start:start + plan.pane_statements])
        finally:
            if self.trace:
                self.recorder.uninstall()

    # ------------------------------------------------------------------
    # serve phase
    # ------------------------------------------------------------------
    def _round(self, index: int, traced: bool) -> None:
        root = self.work / f"round-{index}"
        shutil.copytree(self.work / "setup-0", root)
        profile_bytes = _profile_bytes(root, self.plan.profile)
        record = None
        client = None
        if self.plan.transport == "http":
            if traced:
                record = self.work / f"record-{index}.json"
            self._child = ServerChild(self.bench_dir, root, record)
            self.server_pids.append(self._child.process.pid)
            client = HttpClient(self._child.port)
        # Parses the recorder saw before this round (set-up, pane history).
        parse_before = self.recorder.layer_total("sql.parse")
        if traced:
            self.recorder.install()
        try:
            runner = _HttpRunner(self, root, client) if client else _InprocRunner(self, root)
            # The warm-up is a /score (it loads the profile); the server
            # child counts it under "score" too, so both sides agree.
            with self._op("score", traced):
                runner.warm_up()
            before = registry_totals()
            start = time.perf_counter()
            outcomes = runner.run(index, traced)
            wall = time.perf_counter() - start
            families = delta(registry_totals(), before)
            if client is not None:
                _, scrape = client.request("GET", "/metrics")
                for key, value in parse_exposition(scrape.get("text", "")).items():
                    families[key] = families.get(key, 0.0) + value
        finally:
            if traced:
                self.recorder.uninstall()
            if client is not None:
                client.close()
            self._stop_child()
        if record is not None:
            payload = json.loads(record.read_text())
            payload["stats"] = [
                [f"{op}", "server.other" if layer == "op" else layer, *rest]
                for op, layer, *rest in payload["stats"]
            ]
            payload["op_seconds"] = {
                f"server:{op}": s for op, s in payload["op_seconds"].items()
            }
            payload["op_counts"] = {}
            self.recorder.merge_payload(payload)
        outcomes.sort(key=lambda o: o.index)
        self.outcomes.extend(outcomes)
        ingested = sum(o.statements for o in outcomes if o.kind == "ingest" and o.status == 200)
        self.rounds.append(
            RoundInfo(
                traced=traced,
                wall=wall,
                families=families,
                ingested=ingested,
                store_growth=_profile_bytes(root, self.plan.profile) - profile_bytes,
            )
        )
        if index == 0:
            self._snapshot_round0(root, parse_before)

    def _snapshot_round0(self, root: Path, parse_before: LayerStat) -> None:
        from repro.service import SummaryStore

        # Only round 0's own parses: the serve path, server child included.
        parse = self.recorder.layer_total("sql.parse")
        self.round0_parse = (parse.calls - parse_before.calls, parse.errors - parse_before.errors)
        _, log = SummaryStore(root).load_state(self.plan.profile)
        self.final_state = {
            "vocab_size": float(len(log.vocabulary)),
            "distinct_rows": float(log.n_distinct),
            "matrix_mb": log.matrix.nbytes / 2**20,
        }

    def _op(self, kind: str, traced: bool = True):
        if self.trace and traced:
            return self.recorder.op(kind)
        return contextlib.nullcontext()

    def execute(self, index: int, position: int, op: Op, traced: bool, call) -> Outcome:
        """Run one operation, timed; ``call(op)`` returns ``(status, body)``."""
        start = time.perf_counter()
        with self._op(op.kind, traced):
            try:
                status, body = call(op)
            except Exception as exc:  # a failed operation, not a crash
                status, body = 500, {"error": repr(exc)}
        seconds = time.perf_counter() - start
        return Outcome(index, position, op.kind, seconds, len(op.statements), status, body, traced)

    def compress(self, statements: tuple[str, ...], store) -> dict:
        """A batch compression: raw slice → encoded log → summary → stored."""
        from repro.core.compress import LogRCompressor
        import repro.workloads.logio as logio

        log, _ = logio.load_log(list(statements))
        compressed = LogRCompressor(n_clusters=N_CLUSTERS, seed=PROGRAM_SEED).compress(log)
        record = store.save(self.plan.batch_profile, compressed, log, note="batch")
        return {
            "version": record.version,
            "error_bits": compressed.error,
            "verbosity": compressed.total_verbosity,
            "summary_bytes": compressed.size_bytes(),
            "distinct_rows": log.n_distinct,
        }

    def request_body(self, op: Op) -> dict:
        body: dict = {"profile": self.plan.profile, "statements": list(op.statements)}
        if op.kind == "window":
            body["last"] = self.plan.window_last
            body["half_life"] = self.plan.window_half_life
        return body

    def _stop_child(self) -> None:
        if self._child is not None:
            self._child.stop()
            self._child = None

    # ------------------------------------------------------------------
    # output checks (after the serve phase; never timed)
    # ------------------------------------------------------------------
    def _check(self, index: int) -> None:
        """Check round *index*'s responses against its store, then drop it."""
        from repro.service import SummaryStore

        root = self.work / f"round-{index}"
        oracle = Oracle(root)
        checked_versions: set[int] = set()
        windows = 0
        for outcome in (o for o in self.outcomes if o.round == index):
            if outcome.status != 200:
                outcome.passed = False
                self.failures.append(
                    f"round {index} op {outcome.index} ({outcome.kind}): "
                    f"status {outcome.status} {str(outcome.body)[:200]}"
                )
                continue
            op = self.plan.round_ops(index)[outcome.index]
            body = outcome.body
            ok = True
            if outcome.kind == "ingest":
                outcome.checked = True
                ok = ingest_accounts(body, len(op.statements))
            elif outcome.kind == "score":
                # Round 0: the first response of each stored version and
                # every eighth operation.  Later rounds: the first response.
                version = body["version"]
                if not checked_versions or (
                    index == 0 and (version not in checked_versions or outcome.index % 8 == 0)
                ):
                    checked_versions.add(version)
                    outcome.checked = True
                    expected = oracle.score(self.plan.profile, version, list(op.statements))
                    ok = canonical(expected) == canonical(body)
            elif outcome.kind == "window":
                # Every window of round 0, the first of later rounds.
                windows += 1
                if index == 0 or windows == 1:
                    outcome.checked = True
                    expected = oracle.window(
                        self.plan.profile, body["panes"], self.plan.window_half_life,
                        list(op.statements),
                    )
                    ok = canonical(expected) == canonical(body)
            elif outcome.kind == "compress":
                # The stored artifact and state log, read back, are the
                # summary reported; the run's first batch compression is
                # redone and must come out the same.
                outcome.checked = True
                stored, log = oracle.store.load_state(self.plan.batch_profile, body["version"])
                ok = log is not None and (
                    stored.error, stored.total_verbosity, stored.size_bytes(), log.n_distinct
                ) == (
                    body["error_bits"], body["verbosity"], body["summary_bytes"],
                    body["distinct_rows"],
                )
                if index == 0 and body["version"] == 1:
                    redo = self.compress(op.statements, SummaryStore(self.work / "recheck"))
                    ok = ok and {**redo, "version": body["version"]} == body
            outcome.passed = ok
            if not ok:
                self.failures.append(f"round {index} op {outcome.index} ({outcome.kind}): check failed")
        # Only status, seconds and statements are read later; keeping
        # the bodies would grow this process with every round.
        for outcome in self.outcomes:
            if outcome.round == index:
                outcome.body = None
        shutil.rmtree(root)


class _InprocRunner:
    """Drives an :class:`AnalyticsService` in this process.

    Requests and responses still cross a JSON encode/decode, the part of
    the transport every front end pays (recorded as ``transport``).
    """

    def __init__(self, bench: Bench, root: Path) -> None:
        from repro.service import SummaryStore

        self.bench = bench
        self.service = bench._service(root)
        self.batch_store = SummaryStore(root)

    def warm_up(self) -> None:
        self.service.handle_score(
            {"profile": self.bench.plan.profile, "statements": self.bench.plan.seed_log[:1]}
        )

    def _wire(self, payload: dict, traced: bool) -> dict:
        if traced:
            return self.bench.recorder.call("transport", _json_roundtrip, payload)
        return _json_roundtrip(payload)

    def run(self, index: int, traced: bool) -> list[Outcome]:
        bench = self.bench
        handlers = {
            "score": self.service.handle_score,
            "window": self.service.handle_window,
            "ingest": self.service.handle_ingest,
        }

        def call(op: Op) -> tuple[int, dict]:
            if op.kind == "compress":
                return 200, bench.compress(op.statements, self.batch_store)
            request = self._wire(bench.request_body(op), traced)
            return 200, self._wire(handlers[op.kind](request), traced)

        return [
            bench.execute(index, position, op, traced, call)
            for position, op in enumerate(bench.plan.round_ops(index))
        ]


class _HttpRunner:
    """Drives the server child in one closed loop over one connection;
    batch compressions run in-process.

    Requests are sequential: with reads and ingests sent concurrently
    the read latencies queue behind ingests inside the server's
    interpreter, and on a 2-core host shared with other work their
    spread between runs exceeded every usable bound.
    """

    def __init__(self, bench: Bench, root: Path, client: HttpClient) -> None:
        from repro.service import SummaryStore

        self.bench = bench
        self.client = client
        self.batch_store = SummaryStore(root)

    def warm_up(self) -> None:
        plan = self.bench.plan
        self.client.request(
            "POST", "/score", {"profile": plan.profile, "statements": plan.seed_log[:1]}
        )

    def run(self, index: int, traced: bool) -> list[Outcome]:
        bench = self.bench

        def call(op: Op) -> tuple[int, dict]:
            if op.kind == "compress":
                return 200, bench.compress(op.statements, self.batch_store)
            return self.client.request("POST", f"/{op.kind}", bench.request_body(op))

        return [
            bench.execute(index, position, op, traced, call)
            for position, op in enumerate(bench.plan.round_ops(index))
        ]


# ----------------------------------------------------------------------
def _json_roundtrip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def _profile_bytes(root: Path, profile: str) -> int:
    """Bytes the store holds for *profile* (versions and pane segments)."""
    total = 0
    for sub in (root / "profiles" / profile, root / "segments" / profile):
        if sub.is_dir():
            total += sum(f.stat().st_size for f in sub.iterdir() if f.is_file())
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")
