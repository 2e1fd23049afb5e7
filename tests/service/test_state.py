"""DurableSessionStore: splice, histogram, commits, destructive close."""

import numpy as np
import pytest

from repro.core import ColumnarCollection
from repro.errors import BadRequestError, SessionError
from repro.service import ServiceConfig
from repro.service.state import (
    DurableSessionStore,
    insert_observation,
    value_histogram,
)
from repro.store import CheckpointManager

PROGRAM = "x = gauss(0.0, 2.0);\nreturn x;"
NUM_PARTICLES = 20


@pytest.fixture
def store(tmp_path):
    return DurableSessionStore(
        ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
    )


class TestInsertObservation:
    def test_splices_before_last_return(self):
        edited = insert_observation(PROGRAM, "observe(gauss(x, 1.0) == 0.5);")
        lines = [line for line in edited.splitlines() if line]
        assert lines[-1].startswith("return")
        assert "observe" in lines[-2]

    def test_appends_when_no_return(self):
        edited = insert_observation("x = flip(0.5);", "observe(x == true)")
        assert edited.rstrip().endswith("observe(x == true);")

    def test_adds_missing_semicolon(self):
        edited = insert_observation(PROGRAM, "observe(gauss(x, 1.0) == 0.5)")
        assert "== 0.5);" in edited

    def test_empty_statement_is_bad_request(self):
        with pytest.raises(BadRequestError, match="non-empty"):
            insert_observation(PROGRAM, "   ")

    def test_targets_last_return(self):
        source = "x = flip(0.5);\nif (x) { return 1; } else { return 0; }"
        edited = insert_observation(source, "observe(x == true);")
        # Spliced before the *last* return keyword, not the first.
        assert edited.index("observe") > edited.index("return")


class TestValueHistogram:
    def test_masses_sum_to_one_and_rank(self, store):
        result = store.create_session(
            "h", "s1", PROGRAM, env=None, num_particles=NUM_PARTICLES, seed=3
        )
        collection = store.manager.get("s1").collection
        histogram = value_histogram(collection, top=5)
        assert len(histogram) <= 5
        masses = [entry["probability"] for entry in histogram]
        assert masses == sorted(masses, reverse=True)
        assert result["num_particles"] == NUM_PARTICLES


class TestLifecycle:
    def test_create_edit_observe_posterior(self, store):
        store.create_session(
            "alice", "s1", PROGRAM, env=None, num_particles=None, seed=1
        )
        assert store.meta("s1")["program"] == PROGRAM
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 1.5);")
        assert "observe" in store.meta("s1")["program"]
        posterior = store.posterior("s1", top=4)
        assert posterior["num_edits"] == 1
        assert posterior["values"]

    def test_create_duplicate_session_rejected(self, store):
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        with pytest.raises(SessionError):
            store.create_session(
                "a", "s1", PROGRAM, env=None, num_particles=None, seed=1
            )

    def test_unparseable_program_is_bad_request(self, store):
        with pytest.raises(BadRequestError, match="parse"):
            store.create_session(
                "s1", "a", "this ! is not ( a program", env=None,
                num_particles=None, seed=1,
            )
        # Nothing half-created survives the rejection.
        with pytest.raises(SessionError):
            store.meta("s1")

    def test_owns_enforces_tenant_isolation(self, store):
        store.create_session("alice", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.owns("alice", "s1")
        with pytest.raises(BadRequestError, match="another tenant"):
            store.owns("mallory", "s1")

    def test_sessions_of(self, store):
        store.create_session("alice", "a1", PROGRAM, env=None, num_particles=None, seed=1)
        store.create_session("bob", "b1", PROGRAM, env=None, num_particles=None, seed=2)
        assert store.sessions_of("alice") == ["a1"]
        assert sorted(store.session_ids()) == ["a1", "b1"]


class TestDurability:
    def test_recover_round_trips_collections(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("alice", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 0.5);")
        before = store.manager.get("s1").snapshot()

        fresh = DurableSessionStore(config)
        assert fresh.recover() == ["s1"]
        after = fresh.manager.get("s1").snapshot()
        from repro.store.codec import dumps

        assert dumps(before, "json") == dumps(after, "json")
        assert fresh.meta("s1")["tenant"] == "alice"

    def test_disk_bytes_positive_with_store(self, store):
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        assert store.disk_bytes("s1") > 0

    def test_close_is_destructive(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        result = store.close_session("s1")
        assert result["session"] == "s1"
        assert result["tenant"] == "a"
        # A fresh process finds nothing to resurrect.
        fresh = DurableSessionStore(config)
        assert fresh.recover() == []
        with pytest.raises(SessionError):
            store.posterior("s1")

    def test_posterior_degraded_reads_last_commit(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 1.0);")
        degraded = store.posterior_degraded("s1", top=4)
        assert degraded["degraded"] is True
        assert degraded["num_edits"] == 1
        live = store.posterior("s1", top=4)
        assert degraded["values"] == live["values"]

    def test_in_memory_store_has_no_disk(self):
        store = DurableSessionStore(ServiceConfig(num_particles=NUM_PARTICLES))
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        assert store.disk_bytes("s1") == 0
        assert store.recover() == []


class TestColumnarServiceEquivalence:
    def test_columnar_sessions_match_object_sessions(self, tmp_path):
        """A store whose sessions committed columnar (``$ccoll``)
        snapshots still recovers under the object-only service."""
        config = ServiceConfig(
            store_dir=str(tmp_path / "object"), num_particles=NUM_PARTICLES
        )
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=5)
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 0.7);")
        latest = CheckpointManager(tmp_path / "object" / "checkpoints" / "s1").load_latest()
        CheckpointManager(tmp_path / "legacy" / "checkpoints" / "s1").save(
            latest.step,
            ColumnarCollection.from_weighted(latest.collection),
            rng=latest.rng,
            extra=latest.extra,
        )
        legacy = DurableSessionStore(
            ServiceConfig(store_dir=str(tmp_path / "legacy"), num_particles=NUM_PARTICLES)
        )
        assert legacy.recover() == ["s1"]
        assert isinstance(legacy.manager.get("s1").collection, ColumnarCollection)
        assert legacy.posterior("s1", top=8) == store.posterior("s1", top=8)
        edit = "x = gauss(0.5, 2.0);\nreturn x;"
        assert legacy.apply_edit("s1", edit) == store.apply_edit("s1", edit)
        assert legacy.posterior("s1", top=8) == store.posterior("s1", top=8)


class TestLazySessionLifecycle:
    def _store(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 1.0);")
        return config, store

    def test_recover_session_pulls_one_session(self, tmp_path):
        config, _ = self._store(tmp_path)
        fresh = DurableSessionStore(config)
        assert fresh.recover_session("s1") is True
        assert fresh.posterior("s1")["num_edits"] == 1
        assert fresh.recover_session("missing") is False

    def test_recover_session_refreshes_a_stale_live_copy(self, tmp_path):
        config, store = self._store(tmp_path)
        # A second store (another shard) advances the durable state.
        other = DurableSessionStore(config)
        other.recover_session("s1")
        other.apply_observation("s1", "observe(gauss(x, 1.0) == 2.0);")
        # Re-recovering in the first store replaces, never merges.
        assert store.recover_session("s1") is True
        assert store.posterior("s1")["num_edits"] == 2

    def test_release_session_drops_live_copy_only(self, tmp_path):
        config, store = self._store(tmp_path)
        assert store.release_session("s1") is True
        assert store.release_session("s1") is False
        fresh = DurableSessionStore(config)
        assert fresh.recover_session("s1") is True
        assert fresh.posterior("s1")["num_edits"] == 1

    def test_scan_meta_indexes_without_adopting(self, tmp_path):
        config, _ = self._store(tmp_path)
        fresh = DurableSessionStore(config)
        assert fresh.scan_meta() == ["s1"]
        assert fresh.meta("s1")["tenant"] == "a"
        # Nothing went live — no replay happened yet.
        assert fresh.manager.live_sessions() == []

    def test_create_over_durable_history_rejected(self, tmp_path):
        config, _ = self._store(tmp_path)
        fresh = DurableSessionStore(config)
        # The fresh store has no live copy, but the durable history
        # exists; re-creating would truncate acknowledged state.
        with pytest.raises(SessionError, match="already exists"):
            fresh.create_session(
                "a", "s1", PROGRAM, env=None, num_particles=None, seed=1
            )
