"""Tests for the crash-safe checkpointed result store."""

from __future__ import annotations

import json

import pytest

from repro.core.io import atomic_write_text
from repro.experiments.config import ScenarioConfig
from repro.experiments.exec import (
    ITEM_SCHEMA,
    JOURNAL_NAME,
    ResultStore,
    StoreWarning,
)
from repro.experiments.results import ScenarioResult
from repro.experiments.runner import Scenario
from repro.experiments.workload import ScenarioSpec
from repro.topology.chain import chain_topology


@pytest.fixture(scope="module")
def result() -> ScenarioResult:
    return Scenario(ScenarioSpec(
        topology=chain_topology(hops=2),
        config=ScenarioConfig(packet_target=15, max_sim_time=25.0))).run()


class TestAtomicWriteText:
    def test_writes_and_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.json"
        returned = atomic_write_text(path, "hello")
        assert returned == path
        assert path.read_text() == "hello"

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "out.json", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestPutGet:
    def test_round_trip(self, tmp_path, result):
        store = ResultStore(tmp_path)
        path = store.put("abc123", result)
        assert path == store.item_path("abc123")
        assert store.get("abc123") == result

    def test_envelope_carries_schema_and_key(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put("abc123", result)
        data = json.loads(store.item_path("abc123").read_text())
        assert data["schema"] == ITEM_SCHEMA
        assert data["key"] == "abc123"
        assert data["result"] == result.to_dict()

    def test_missing_entry_is_none_without_warning(self, tmp_path):
        import warnings

        store = ResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get("nope") is None

    def test_no_temp_files_remain(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put("abc123", result)
        assert not list(tmp_path.glob("*.tmp"))


class TestInvalidEntries:
    def test_corrupt_json_skipped_with_warning(self, tmp_path):
        store = ResultStore(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        store.item_path("bad").write_text("{truncated")
        with pytest.warns(StoreWarning, match="corrupt JSON"):
            assert store.get("bad") is None

    def test_non_object_entry_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.item_path("bad").parent.mkdir(exist_ok=True)
        store.item_path("bad").write_text("[1, 2]")
        with pytest.warns(StoreWarning):
            assert store.get("bad") is None

    def test_entry_without_envelope_skipped(self, tmp_path, result):
        # a bare ScenarioResult dict: no build that hashes these keys wrote it
        store = ResultStore(tmp_path)
        store.item_path("bare").parent.mkdir(parents=True, exist_ok=True)
        store.item_path("bare").write_text(json.dumps(result.to_dict()))
        with pytest.warns(StoreWarning, match="schema version None"):
            assert store.get("bare") is None

    def test_schema_mismatch_skipped(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put("item", result)
        data = json.loads(store.item_path("item").read_text())
        data["schema"] = ITEM_SCHEMA + 1
        store.item_path("item").write_text(json.dumps(data))
        with pytest.warns(StoreWarning, match="schema version"):
            assert store.get("item") is None

    def test_key_mismatch_skipped(self, tmp_path, result):
        # a copied/renamed entry file must not satisfy a different fingerprint
        store = ResultStore(tmp_path)
        store.put("original", result)
        text = store.item_path("original").read_text()
        store.item_path("copied").write_text(text)
        with pytest.warns(StoreWarning, match="copied or renamed"):
            assert store.get("copied") is None
        assert store.get("original") == result

    def test_undecodable_payload_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.item_path("bad").parent.mkdir(exist_ok=True)
        store.item_path("bad").write_text(
            json.dumps({"schema": ITEM_SCHEMA, "key": "bad",
                        "result": {"nonsense": True}}))
        with pytest.warns(StoreWarning, match="ScenarioResult"):
            assert store.get("bad") is None


class TestResume:
    def test_maps_only_valid_stored_keys(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put("good", result)
        store.item_path("bad").write_text("{broken")
        with pytest.warns(StoreWarning):
            recovered = store.resume(["good", "bad", "absent"])
        assert recovered == {"good": result}

    def test_missing_directory_is_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.resume(["a", "b"]) == {}

    def test_item_glob_excludes_journal(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put("abc", result)  # also journals
        assert store.journal_path.exists()
        assert [path.stem for path in tmp_path.glob("*.json")] == ["abc"]


class TestJournal:
    def test_put_appends_done_event(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put("k1", result)
        store.put("k2", result)
        lines = store.journal_path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["event"] for e in events] == ["done", "done"]
        assert [e["key"] for e in events] == ["k1", "k2"]
        assert all("ts" in e for e in events)

    def test_journal_name_is_not_an_item_glob_match(self, tmp_path):
        assert not JOURNAL_NAME.endswith(".json")

    def test_custom_records_appended(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append_journal({"event": "resume", "recovered": 3})
        record = json.loads(store.journal_path.read_text())
        assert record["event"] == "resume"
        assert record["recovered"] == 3
