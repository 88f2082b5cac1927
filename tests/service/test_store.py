"""Tests for the versioned profile store."""

import json

import numpy as np
import pytest

from repro.core.compress import LogRCompressor, load_artifact
from repro.service import AnalyticsService
from repro.service.store import StoreError, SummaryStore
from repro.workloads import generate_pocketdata


@pytest.fixture(scope="module")
def profile_data():
    workload = generate_pocketdata(total=3_000, n_distinct=80, seed=7)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(log)
    return log, compressed


class TestSaveLoad:
    def test_roundtrip_artifact(self, profile_data, tmp_path):
        log, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        record = store.save("pocket", compressed, log)
        assert record.version == 1
        assert record.has_state
        loaded = store.load("pocket")
        assert loaded.n_clusters == compressed.n_clusters
        assert loaded.method == compressed.method
        assert loaded.backend == compressed.backend
        assert np.array_equal(loaded.labels, compressed.labels)
        assert loaded.error == pytest.approx(compressed.error, abs=1e-12)

    def test_roundtrip_scores_bit_exact(self, profile_data, tmp_path):
        log, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        store.save("pocket", compressed, log)
        loaded, loaded_log = store.load_state("pocket")
        original = compressed.mixture.point_probabilities(log.matrix)
        restored = loaded.mixture.point_probabilities(loaded_log.matrix)
        assert np.array_equal(original, restored)

    def test_state_log_roundtrip(self, profile_data, tmp_path):
        log, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        store.save("pocket", compressed, log)
        _, loaded_log = store.load_state("pocket")
        assert loaded_log == log  # QueryLog equality is multiset equality
        assert loaded_log.backend == compressed.backend

    def test_artifact_only_profile(self, profile_data, tmp_path):
        _, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        record = store.save("slim", compressed)
        assert not record.has_state
        loaded, state = store.load_state("slim")
        assert state is None
        assert loaded.mixture.total == compressed.mixture.total


class TestVersioning:
    def test_versions_accumulate(self, profile_data, tmp_path):
        log, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        store.save("pocket", compressed, log, note="first")
        store.save("pocket", compressed, log, note="second")
        versions = store.versions("pocket")
        assert [v.version for v in versions] == [1, 2]
        assert versions[0].note == "first"
        assert store.latest("pocket").version == 2

    def test_load_specific_version(self, profile_data, tmp_path):
        log, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        store.save("pocket", compressed, log)
        store.save("pocket", compressed, log)
        loaded = store.load("pocket", version=1)
        assert loaded.mixture.total == compressed.mixture.total

    def test_unknown_version(self, profile_data, tmp_path):
        log, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        store.save("pocket", compressed, log)
        with pytest.raises(StoreError):
            store.load("pocket", version=9)


class TestTenancyAndLayout:
    def test_multiple_profiles_coexist(self, profile_data, tmp_path):
        log, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        for name in ("tpch", "sdss", "bank", "pocketdata"):
            store.save(name, compressed, log)
        assert store.profiles() == ["bank", "pocketdata", "sdss", "tpch"]
        assert store.has_profile("sdss")
        assert not store.has_profile("nope")

    def test_reopen_reads_manifest(self, profile_data, tmp_path):
        log, compressed = profile_data
        root = tmp_path / "store"
        SummaryStore(root).save("pocket", compressed, log)
        reopened = SummaryStore(root)
        assert reopened.profiles() == ["pocket"]
        assert reopened.latest("pocket").version == 1

    def test_manifest_is_valid_json(self, profile_data, tmp_path):
        log, compressed = profile_data
        root = tmp_path / "store"
        SummaryStore(root).save("pocket", compressed, log)
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["format"] == "logr-store-v1"
        assert "pocket" in manifest["profiles"]

    def test_no_temp_files_left_behind(self, profile_data, tmp_path):
        log, compressed = profile_data
        root = tmp_path / "store"
        SummaryStore(root).save("pocket", compressed, log)
        leftovers = [p for p in root.rglob("*.tmp")]
        assert leftovers == []

    def test_rejects_bad_profile_names(self, profile_data, tmp_path):
        _, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        for bad in ("", "../escape", "a/b", ".hidden", "x" * 80):
            with pytest.raises(ValueError):
                store.save(bad, compressed)

    def test_unknown_profile_raises(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.latest("ghost")

    def test_state_label_mismatch_rejected(self, profile_data, tmp_path):
        log, compressed = profile_data
        store = SummaryStore(tmp_path / "store")
        truncated = log.subset(range(log.n_distinct - 1))
        with pytest.raises(ValueError):
            store.save("pocket", compressed, truncated)


def _label_compiled(artifact: dict) -> dict:
    """*artifact* as written by the removed ``compiled`` kernel tier."""
    assert artifact["backend"] == "packed"
    return {**artifact, "backend": "compiled"}


class TestLegacyCompiledBackend:
    """Artifacts and profiles labelled ``compiled`` still load and serve.

    That label came from an optional JIT kernel tier, since removed,
    whose results were bit-identical to ``packed``; it now reads as
    ``packed``.
    """

    def test_artifact_loads_as_packed(self, profile_data, tmp_path):
        _, compressed = profile_data
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(_label_compiled(compressed.to_payload())))
        loaded = load_artifact(path)
        assert loaded.backend == "packed"
        assert loaded.to_json() == compressed.to_json()

    def test_profile_ingests_and_scores_like_packed(self, profile_data, tmp_path):
        log, compressed = profile_data
        batch = list(
            generate_pocketdata(total=400, n_distinct=90, seed=8).statements()
        )
        served = {}
        for label in ("packed", "compiled"):
            root = tmp_path / label
            store = SummaryStore(root)
            store.save("pocket", compressed, log)
            if label == "compiled":
                version_file = root / "profiles" / "pocket" / "v000001.json"
                payload = json.loads(version_file.read_text())
                payload["artifact"] = _label_compiled(payload["artifact"])
                version_file.write_text(json.dumps(payload))
            loaded, state = store.load_state("pocket")
            assert loaded.backend == state.backend == "packed"
            service = AnalyticsService(store, staleness_threshold=float("inf"))
            try:
                ingested = service.handle_ingest(
                    {"profile": "pocket", "statements": batch}
                )
                ingested["report"].pop("seconds")  # wall clock
                scored = service.handle_score(
                    {"profile": "pocket", "statements": batch[:64]}
                )
            finally:
                service.close()
            artifact = store.load("pocket").to_payload()
            served[label] = json.dumps(
                [ingested, scored, artifact], sort_keys=True
            )
        assert served["compiled"] == served["packed"]
