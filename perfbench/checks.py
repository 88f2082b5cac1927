"""Output checks: responses re-derived independently of the service.

Following history-based checking, the serve loop records every
response and the checks run afterwards, outside the timed region:

* a sample of ``/score`` responses is re-scored by a fresh
  :class:`~repro.apps.monitor.WorkloadMonitor` built from the stored
  profile version the response names, and a sample of ``/window``
  responses is recomposed from the stored pane segments it names; the
  re-derived JSON must equal the served JSON byte for byte;
* every ingest report accounts for each statement sent;
* every batch compression stored the summary it reported (read back
  from the store), and the first one of a run, redone from its raw
  slice, comes out the same.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def canonical(payload: object) -> str:
    """The byte-comparable form of a JSON payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _json_float(value: float) -> float | str:
    value = float(value)
    return value if math.isfinite(value) else repr(value)


class Oracle:
    """Independent re-derivation of served responses over one store."""

    def __init__(self, root: Path, threshold_quantile: float = 0.001) -> None:
        from repro.service import SummaryStore

        self.store = SummaryStore(root)
        self.threshold_quantile = threshold_quantile
        self._monitors: dict[tuple[str, int], object] = {}

    def _monitor(self, profile: str, version: int):
        from repro.apps.monitor import WorkloadMonitor

        key = (profile, version)
        if key not in self._monitors:
            compressed, log = self.store.load_state(profile, version)
            self._monitors[key] = WorkloadMonitor(
                compressed.mixture, log, threshold_quantile=self.threshold_quantile
            )
        return self._monitors[key]

    def score(self, profile: str, version: int, statements: list[str]) -> dict:
        """The ``/score`` response the stored *version* implies."""
        monitor = self._monitor(profile, version)
        return {
            "profile": profile,
            "version": version,
            "threshold": _json_float(monitor.threshold),
            "scores": [
                {
                    "log2_likelihood": _json_float(s.log2_likelihood),
                    "anomalous": s.anomalous,
                    "reason": s.reason,
                }
                for s in monitor.score_batch(statements)
            ],
        }

    def window(
        self, profile: str, panes: list[int], half_life: float | None, statements: list[str]
    ) -> dict:
        """The ``/window`` response the stored pane segments imply."""
        from repro.apps.monitor import WorkloadMonitor
        from repro.service import WindowedProfile

        windowed = WindowedProfile(self.store, profile)
        composite = windowed.compose(
            windowed.selected_panes(panes=panes), half_life=half_life
        )
        monitor = WorkloadMonitor(composite, threshold=float("-inf"))
        return {
            "profile": profile,
            "panes": panes,
            "half_life": half_life,
            "total": _json_float(composite.total),
            "n_components": composite.n_components,
            "error_bits": _json_float(composite.error()),
            "verbosity": composite.total_verbosity,
            "scores": [
                {"log2_likelihood": _json_float(s.log2_likelihood), "reason": s.reason}
                for s in monitor.score_batch(statements)
            ],
        }


def ingest_accounts(response: dict, sent: int) -> bool:
    """Every statement sent is either encoded or skipped."""
    report = response["report"]
    return (
        report["n_statements"] == sent
        and report["n_encoded"] + report["n_skipped"] == sent
    )
