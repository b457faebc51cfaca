"""Unit tests for checkpoint storage and policy."""

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore, PeriodicCheckpointPolicy
from repro.sparse import laplacian_2d


class TestCheckpointStore:
    def test_save_and_latest(self, small_lap):
        store = CheckpointStore()
        x = np.arange(3.0)
        cp = store.save(5, {"x": x}, matrix=small_lap, scalars={"rr": 2.0})
        assert store.latest is cp
        assert cp.iteration == 5
        assert cp.scalars["rr"] == 2.0

    def test_snapshot_is_deep(self, small_lap):
        store = CheckpointStore()
        x = np.arange(3.0)
        a = small_lap.copy()
        store.save(0, {"x": x}, matrix=a)
        x[0] = 99.0
        a.val[0] = 99.0
        assert store.latest.vectors["x"][0] == 0.0
        assert store.latest.matrix.val[0] == small_lap.val[0]

    def test_restore_returns_fresh_copies(self):
        store = CheckpointStore()
        store.save(0, {"x": np.zeros(4)})
        r1 = store.restore()
        r1.vectors["x"][0] = 7.0
        r2 = store.restore()
        assert r2.vectors["x"][0] == 0.0
        assert store.restores == 2

    def test_keep_limits_stack(self):
        store = CheckpointStore(keep=2)
        for i in range(5):
            store.save(i, {"x": np.full(2, float(i))})
        assert store.latest.iteration == 4
        assert store.saves == 5

    def test_empty_store_raises(self):
        store = CheckpointStore()
        assert store.empty
        with pytest.raises(LookupError):
            _ = store.latest

    def test_size_words(self, small_lap):
        store = CheckpointStore()
        cp = store.save(0, {"x": np.zeros(10), "r": np.zeros(10)}, matrix=small_lap)
        assert cp.size_words == 20 + small_lap.memory_words
        assert store.words_written == cp.size_words

    def test_keep_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointStore(keep=0)

    def test_checkpoint_without_matrix(self):
        store = CheckpointStore()
        cp = store.save(0, {"x": np.zeros(3)})
        assert cp.matrix is None
        assert store.restore().matrix is None


    def test_counters_accumulate(self, small_lap):
        store = CheckpointStore()
        for i in range(3):
            store.save(i, {"x": np.zeros(5)}, matrix=small_lap if i == 1 else None)
        store.restore()
        store.borrow_latest()
        assert (store.saves, store.restores) == (3, 2)
        assert store.words_written == 15 + small_lap.memory_words

    def test_scalars_are_copied(self):
        store = CheckpointStore()
        scalars = {"rr": 1.0}
        store.save(0, {"x": np.zeros(2)}, scalars=scalars)
        scalars["rr"] = 5.0
        assert store.latest.scalars == {"rr": 1.0}
        store.restore().scalars["rr"] = 9.0
        assert store.latest.scalars == {"rr": 1.0}


class TestRecyclingStore:
    def test_reuses_evicted_arrays(self, small_lap):
        store = CheckpointStore(recycle=True)
        first = store.save(0, {"x": np.zeros(4)}, matrix=small_lap)
        second = store.save(1, {"x": np.ones(4)}, matrix=small_lap)
        assert second.vectors["x"] is first.vectors["x"]
        assert second.matrix is first.matrix
        np.testing.assert_array_equal(store.latest.vectors["x"], np.ones(4))

    def test_layout_change_allocates_fresh(self, small_lap):
        store = CheckpointStore(recycle=True)
        first = store.save(0, {"x": np.zeros(4)}, matrix=small_lap)
        bigger = laplacian_2d(21)
        second = store.save(1, {"x": np.zeros(6)}, matrix=bigger)
        assert second.vectors["x"] is not first.vectors["x"]
        assert second.matrix is not first.matrix
        assert second.matrix.equals(bigger)

    def test_keep_two_recycles_only_the_oldest(self):
        store = CheckpointStore(keep=2, recycle=True)
        cps = [store.save(i, {"x": np.full(3, float(i))}) for i in range(3)]
        assert cps[2].vectors["x"] is cps[0].vectors["x"]
        assert cps[2].vectors["x"] is not cps[1].vectors["x"]
        np.testing.assert_array_equal(cps[1].vectors["x"], np.full(3, 1.0))

    def test_restored_copy_survives_later_saves(self):
        store = CheckpointStore(recycle=True)
        store.save(0, {"x": np.zeros(3)})
        restored = store.restore()
        store.save(1, {"x": np.ones(3)})
        np.testing.assert_array_equal(restored.vectors["x"], np.zeros(3))


class TestPeriodicPolicy:
    def test_triggers_every_interval(self):
        policy = PeriodicCheckpointPolicy(3)
        hits = [policy.chunk_verified() for _ in range(9)]
        assert hits == [False, False, True] * 3

    def test_interval_one_always_triggers(self):
        policy = PeriodicCheckpointPolicy(1)
        assert all(policy.chunk_verified() for _ in range(5))

    def test_rollback_resets_progress(self):
        policy = PeriodicCheckpointPolicy(3)
        policy.chunk_verified()
        policy.chunk_verified()
        policy.rolled_back()
        assert policy.chunks_since_checkpoint == 0
        assert not policy.chunk_verified()
        assert not policy.chunk_verified()
        assert policy.chunk_verified()

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            PeriodicCheckpointPolicy(0)
