"""Seeded inputs and the fixed serve-phase schedule of each workload.

Every input is a pure function of ``(workload, seed, smoke)``: the
raw set-up log, the statements of each operation, and the order of
the operations.  The program under test only ever sees the generated
statements.

Each workload models one *application*: its statement population
(templates, constants, multiplicities) and its historical log — the
set-up phase's input — are fixed, and ``--seed`` draws the live
traffic: which statements each ``/score``, ``/window``, ``/ingest``
and batch compression sends.  The program runs with its default seed
(``repro``'s CLI default, 0); the benchmark's seed only shapes inputs.
The set-up summary's ``error_bits``, ``verbosity`` and
``summary_bytes`` therefore repeat exactly across seeds and act as
golden values, while the serve phase sees seed-drawn traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKLOADS = ("sqlshare_adhoc", "bank_http")

#: Generator seeds of the applications' statement populations, and the
#: shuffle seed of their historical (set-up) logs.
BANK_APP_SEED = 0
SQLSHARE_APP_SEEDS = (0, 1)  # the seed log's queries, later ad-hoc queries
HISTORY_ORDER_SEED = 1_000_003

#: The monitor's raw-statement parse memo and the fingerprint cache's
#: template capacity (``WorkloadMonitor`` / ``featurecache`` defaults);
#: the property report compares each workload's working set to them.
MONITOR_MEMO = 4_096
FEATURE_CACHE = 65_536


@dataclass(frozen=True)
class Op:
    """One serve-phase operation: its kind and the statements it sends."""

    kind: str  # "score" | "window" | "ingest" | "compress"
    statements: tuple[str, ...]


@dataclass
class Plan:
    """Everything one run of a workload needs."""

    name: str
    transport: str  # "inproc" | "http"
    seed: int
    seed_log: list[str]
    pane_seed: list[str]  # set-up pane history (sealed before serving)
    pane_statements: int
    sizes: "Sizes"
    stream: list[str]  # live traffic the rounds draw from
    profile: str = "main"
    batch_profile: str = "batch"
    window_last: int = 4
    window_half_life: float = 2.0
    setup_reps: int = 3
    _rounds: dict[int, list[Op]] = field(default_factory=dict)

    def round_ops(self, index: int) -> list[Op]:
        """Round *index*'s schedule, in order.

        Every round has the same shape, and each draws its statements
        from its own offset into the seeded stream, so costs that depend
        on where in the traffic an event falls (a staleness-triggered
        recompression, a pane seal) average over the rounds of a run.
        """
        if index not in self._rounds:
            start = (index * _ROUND_STRIDE) % len(self.stream)
            self._rounds[index] = _schedule(self.sizes, _Cursor(self.stream, start))
        return self._rounds[index]


@dataclass(frozen=True)
class Sizes:
    """Per-workload input sizes (``smoke`` is the self-test's scale)."""

    seed_total: int
    seed_distinct: int  # sqlshare only
    templates: int  # bank only
    cycles: int  # cycles per round
    scores_per_cycle: int
    score_batch: int
    window_batch: int
    ingest_batch: int
    compress_every: int  # one batch compression every N cycles
    compress_slice: int
    pane_statements: int
    pane_seed_panes: int
    setup_reps: int


_FULL = {
    "bank": Sizes(
        seed_total=250_000, seed_distinct=0, templates=1_200, cycles=6,
        scores_per_cycle=8, score_batch=128, window_batch=32, ingest_batch=500,
        compress_every=2, compress_slice=10_000, pane_statements=1_000,
        pane_seed_panes=4, setup_reps=3,
    ),
    # Two cycles: a round's two ingests cross the program's staleness
    # threshold exactly once for every seed tried (116 of 116 rounds),
    # while with four the count per run varied with the seed (8-12 in
    # eight rounds) and so did ingest_stmts_per_s.
    "sqlshare": Sizes(
        seed_total=1_500, seed_distinct=1_000, templates=0, cycles=2,
        scores_per_cycle=8, score_batch=128, window_batch=32, ingest_batch=200,
        compress_every=2, compress_slice=600, pane_statements=200,
        pane_seed_panes=4, setup_reps=3,
    ),
}

_SMOKE = {
    "bank": Sizes(
        seed_total=6_000, seed_distinct=0, templates=120, cycles=2,
        scores_per_cycle=2, score_batch=16, window_batch=8, ingest_batch=100,
        compress_every=2, compress_slice=1_000, pane_statements=200,
        pane_seed_panes=2, setup_reps=1,
    ),
    "sqlshare": Sizes(
        seed_total=400, seed_distinct=300, templates=0, cycles=2,
        scores_per_cycle=2, score_batch=16, window_batch=8, ingest_batch=50,
        compress_every=2, compress_slice=150, pane_statements=50,
        pane_seed_panes=2, setup_reps=1,
    ),
}


def build_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    """The inputs and schedule of *workload* for *seed*."""
    from repro.workloads import generate_bank, generate_sqlshare

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seed %= 2**64  # numpy generators take non-negative seeds only
    family = "sqlshare" if workload == "sqlshare_adhoc" else "bank"
    sizes = (_SMOKE if smoke else _FULL)[family]
    if family == "bank":
        bank = generate_bank(
            total=sizes.seed_total, n_templates=sizes.templates, seed=BANK_APP_SEED
        )
        seed_log = list(bank.statements(shuffle=True, seed=HISTORY_ORDER_SEED))
        # Fresh traffic from the same application: a seeded shuffle of
        # the same statement population.
        stream = list(bank.statements(shuffle=True, seed=seed))
    else:
        share = generate_sqlshare(
            total=sizes.seed_total,
            n_distinct=sizes.seed_distinct,
            seed=SQLSHARE_APP_SEEDS[0],
        )
        seed_log = list(share.statements(shuffle=True, seed=HISTORY_ORDER_SEED))
        # Fresh ad-hoc traffic: new one-off queries (new tables and
        # columns keep arriving), four times the seed log's size.
        later = generate_sqlshare(
            total=4 * sizes.seed_total,
            n_distinct=4 * sizes.seed_distinct,
            seed=SQLSHARE_APP_SEEDS[1],
        )
        stream = list(later.statements(shuffle=True, seed=seed))
    return Plan(
        name=workload,
        transport="http" if workload == "bank_http" else "inproc",
        seed=seed,
        seed_log=seed_log,
        pane_seed=seed_log[-sizes.pane_statements * sizes.pane_seed_panes:],
        pane_statements=sizes.pane_statements,
        sizes=sizes,
        stream=stream,
        setup_reps=sizes.setup_reps,
    )


#: Offset between consecutive rounds' starting points in the stream.
_ROUND_STRIDE = 1_777


class _Cursor:
    """Hands out consecutive slices of a statement stream, wrapping."""

    def __init__(self, stream: list[str], start: int = 0) -> None:
        self.stream = stream
        self.position = start

    def take(self, n: int) -> tuple[str, ...]:
        out: list[str] = []
        while len(out) < n:
            if self.position >= len(self.stream):
                self.position = 0
            chunk = self.stream[self.position:self.position + n - len(out)]
            self.position += len(chunk)
            out.extend(chunk)
        return tuple(out)


def _schedule(sizes: Sizes, cursor: _Cursor) -> list[Op]:
    """One round: cycles of ingest, scores and windows, with a batch
    compression of a fresh raw slice every ``compress_every`` cycles."""
    ops: list[Op] = []
    half = sizes.scores_per_cycle // 2
    for cycle in range(sizes.cycles):
        ops.append(Op("ingest", cursor.take(sizes.ingest_batch)))
        for _ in range(2):
            ops.extend(
                Op("score", cursor.take(sizes.score_batch)) for _ in range(half)
            )
            ops.append(Op("window", cursor.take(sizes.window_batch)))
        if cycle % sizes.compress_every == sizes.compress_every - 1:
            ops.append(Op("compress", cursor.take(sizes.compress_slice)))
    return ops
