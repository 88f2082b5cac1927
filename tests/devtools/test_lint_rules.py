"""Fixture-pair coverage for every ``reprolint`` rule.

Each rule ships a trio of fixtures under ``fixtures/``: a *violating*
file the rule must flag (with an exact finding count), a *clean* file
it must pass, and a *suppressed* file where a justified inline disable
silences the finding without tripping the SUP01/SUP02 hygiene checks.
Path-scoped rules (DET02, FLOAT01) live under ``fixtures/core/`` so
their ``applies_to`` gate opens on the fixture path itself.
"""

from __future__ import annotations

from pathlib import Path, PurePath

import pytest

from repro.devtools import default_rules, lint_source
from repro.devtools.rules import RULE_CLASSES

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture (relative to FIXTURES) -> exact multiset of expected rule ids.
EXPECTED = {
    "core/det01_violating.py": ["DET01"] * 4,
    "core/det01_clean.py": [],
    "core/det01_suppressed.py": [],
    "core/det02_violating.py": ["DET02"] * 3,
    "core/det02_clean.py": [],
    "core/det02_suppressed.py": [],
    "core/det03_violating.py": ["DET03"] * 3,
    "core/det03_clean.py": [],
    "core/det03_suppressed.py": [],
    "core/float01_violating.py": ["FLOAT01"] * 3,
    "core/float01_clean.py": [],
    "core/float01_suppressed.py": [],
    "core/sup01_unjustified.py": ["SUP01"],
    "core/sup02_unused.py": ["SUP02"],
    "par01_violating.py": ["PAR01"] * 4,
    "par01_clean.py": [],
    "par01_suppressed.py": [],
    "lock01_violating.py": ["LOCK01"] * 2,
    "lock01_clean.py": [],
    "lock01_suppressed.py": [],
    "obs01_violating.py": ["OBS01"] * 4,
    "obs01_clean.py": [],
    "obs01_suppressed.py": [],
    "service/async01_violating.py": ["ASYNC01"] * 4,
    "service/async01_clean.py": [],
    "service/async01_suppressed.py": [],
}


def lint_fixture(relpath: str):
    path = FIXTURES / relpath
    return lint_source(path, path.read_text(encoding="utf-8"), default_rules())


@pytest.mark.parametrize("relpath", sorted(EXPECTED))
def test_fixture_findings(relpath):
    violations = lint_fixture(relpath)
    assert sorted(v.rule for v in violations) == sorted(EXPECTED[relpath]), [
        v.format() for v in violations
    ]


def test_every_rule_has_fixture_trio():
    """Each shipped rule keeps its violating/clean/suppressed trio."""
    covered = set()
    for relpath, rules in EXPECTED.items():
        stem = Path(relpath).stem
        for suffix in ("_violating", "_clean", "_suppressed"):
            if stem.endswith(suffix):
                covered.add((stem[: -len(suffix)].upper(), suffix))
    for cls in RULE_CLASSES:
        for suffix in ("_violating", "_clean", "_suppressed"):
            assert (cls.rule_id, suffix) in covered, (
                f"{cls.rule_id} is missing its {suffix} fixture"
            )


def test_violating_fixtures_actually_violate():
    """No *_violating fixture is allowed to pass clean (guards rule rot)."""
    for relpath, rules in EXPECTED.items():
        if relpath.endswith("_violating.py"):
            assert rules, f"{relpath} expects no findings — fixture is stale"
            assert lint_fixture(relpath)


def test_rule_metadata_and_witnesses():
    """Every rule names its invariant and an existing witness test."""
    repo = Path(__file__).resolve().parents[2]
    seen = set()
    for rule in default_rules():
        assert rule.rule_id and rule.invariant and rule.witness
        assert rule.rule_id not in seen, f"duplicate rule id {rule.rule_id}"
        seen.add(rule.rule_id)
        assert (repo / rule.witness).is_file(), (
            f"{rule.rule_id} witness {rule.witness} does not exist"
        )


def test_scope_exemptions():
    """The sanctioned read points are exempt from their own rules."""
    rules = {cls.rule_id: cls() for cls in RULE_CLASSES}
    assert not rules["DET01"].applies_to(PurePath("src/repro/_rng.py"))
    assert rules["DET01"].applies_to(PurePath("src/repro/core/log.py"))
    assert not rules["DET02"].applies_to(PurePath("src/repro/_clock.py"))
    assert not rules["DET02"].applies_to(PurePath("src/repro/service/server.py"))
    assert rules["DET02"].applies_to(PurePath("src/repro/core/compress.py"))
    assert rules["FLOAT01"].applies_to(PurePath("src/repro/core/mixture.py"))
    assert not rules["FLOAT01"].applies_to(PurePath("src/repro/sql/parser.py"))
    # repro/obs/ is the audited telemetry sink: exempt from DET02 and
    # from OBS01's literal-name gate; instrumented layers are not.
    assert not rules["DET02"].applies_to(PurePath("src/repro/obs/metrics.py"))
    assert not rules["OBS01"].applies_to(PurePath("src/repro/obs/metrics.py"))
    assert rules["OBS01"].applies_to(PurePath("src/repro/core/pipeline.py"))
    # ASYNC01 guards the event-loop transport: service/ only.
    assert rules["ASYNC01"].applies_to(PurePath("src/repro/service/aserver.py"))
    assert not rules["ASYNC01"].applies_to(PurePath("src/repro/core/pipeline.py"))

