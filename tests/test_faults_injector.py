"""Unit tests for the Poisson fault model and injector."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultModel


class TestFaultModel:
    def test_rates(self):
        m = FaultModel(alpha=0.25, memory_words=1000)
        assert m.word_rate == pytest.approx(0.25 / 1000)
        assert m.rate == pytest.approx(0.25)
        assert m.normalized_mtbf == pytest.approx(4.0)

    def test_chunk_success_probability(self):
        m = FaultModel(alpha=0.1, memory_words=100)
        assert m.chunk_success_probability(1.0) == pytest.approx(np.exp(-0.1))
        assert m.chunk_success_probability(5.0) == pytest.approx(np.exp(-0.5))

    def test_mean_strikes_matches_alpha(self, rng):
        m = FaultModel(alpha=0.5, memory_words=100)
        samples = [m.strikes_per_iteration(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(0.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(alpha=0.0, memory_words=10)
        with pytest.raises(ValueError):
            FaultModel(alpha=0.1, memory_words=0)


class TestInjector:
    @pytest.fixture
    def injector(self):
        m = FaultModel(alpha=0.5, memory_words=30)
        inj = FaultInjector(m, rng=0)
        inj.register("a", np.zeros(10))
        inj.register("b", np.zeros(20, dtype=np.int64))
        return inj

    def test_registry(self, injector):
        assert set(injector.target_names) == {"a", "b"}
        assert injector.total_words == 30

    def test_unregister(self, injector):
        injector.unregister("a")
        assert injector.target_names == ["b"]

    def test_register_rejects_bad_dtype(self, injector):
        with pytest.raises(TypeError):
            injector.register("c", np.zeros(5, dtype=np.float32))

    def test_sample_does_not_apply(self, injector):
        strikes = injector.sample_strikes(n_strikes=5)
        assert len(strikes) == 5
        assert injector.records == []

    def test_apply_strike_mutates_and_records(self, injector):
        rec = injector.apply_strike(3, ("a", 2, 63))
        assert rec.iteration == 3
        assert rec.target == "a"
        assert rec.old_value == 0.0
        assert rec.new_value != 0.0 or rec.new_value == -0.0
        assert len(injector.records) == 1

    def test_revert_restores(self, injector):
        rec = injector.apply_strike(0, ("b", 5, 10))
        injector.revert(rec)
        # access the registered array through a fresh strike to confirm
        strikes = injector.sample_strikes(n_strikes=0)
        assert strikes == []
        assert injector._targets["b"][5] == 0

    def test_inject_iteration_deterministic(self):
        m = FaultModel(alpha=0.5, memory_words=30)
        arrays = [np.zeros(30), np.zeros(30)]
        recs = []
        for arr in arrays:
            inj = FaultInjector(m, rng=42)
            inj.register("a", arr)
            recs.append([(r.target, r.position, r.bit) for r in inj.inject_iteration(0, n_strikes=4)])
        assert recs[0] == recs[1]
        np.testing.assert_array_equal(arrays[0], arrays[1])

    def test_strike_distribution_proportional_to_size(self):
        m = FaultModel(alpha=1.0, memory_words=1000)
        inj = FaultInjector(m, rng=7)
        inj.register("small", np.zeros(100))
        inj.register("large", np.zeros(900))
        strikes = inj.sample_strikes(n_strikes=3000)
        frac_large = sum(1 for s in strikes if s[0] == "large") / 3000
        assert frac_large == pytest.approx(0.9, abs=0.03)

    def test_no_targets_no_strikes(self):
        m = FaultModel(alpha=1.0, memory_words=10)
        inj = FaultInjector(m, rng=0)
        assert inj.sample_strikes(n_strikes=3) == []


class TestCGState:
    """The injector over a CG run's protected state: the matrix arrays
    and the four iteration vectors, registered the way the engine does."""

    VECTORS = ("x", "r", "p", "q")

    @pytest.fixture
    def state(self, small_lap):
        a = small_lap.copy()
        vectors = {name: np.zeros(a.nrows) for name in self.VECTORS}
        model = FaultModel(alpha=0.5, memory_words=a.memory_words + 4 * a.nrows)
        inj = FaultInjector(model, rng=0)
        for name in ("val", "colid", "rowidx"):
            inj.register(name, getattr(a, name))
        for name, v in vectors.items():
            inj.register(name, v)
        return inj, a, vectors

    def test_registered_words_match_memory_model(self, state, small_lap):
        inj, _, _ = state
        assert inj.total_words == inj.model.memory_words
        assert inj.total_words == small_lap.memory_words + 4 * small_lap.nrows

    def test_strikes_hit_registered_state(self, state, small_lap):
        inj, a, vectors = state
        recs = inj.inject_iteration(0, n_strikes=10)
        assert len(recs) == 10
        assert {r.target for r in recs} <= {"val", "colid", "rowidx", *self.VECTORS}
        touched = not a.equals(small_lap) or any(np.any(v != 0.0) for v in vectors.values())
        assert touched

    def test_unregistered_vectors_immune(self, state):
        inj, _, vectors = state
        for name in self.VECTORS:
            inj.unregister(name)
        recs = inj.inject_iteration(0, n_strikes=20)
        assert {r.target for r in recs} <= {"val", "colid", "rowidx"}
        assert all(np.all(v == 0.0) for v in vectors.values())

    def test_rebinding_vector_redirects_strikes(self, state):
        inj, _, vectors = state
        fresh = np.zeros_like(vectors["x"])
        inj.register("x", fresh)
        for it in range(50):
            if any(r.target == "x" for r in inj.inject_iteration(it, n_strikes=5)):
                break
        assert np.any(fresh != 0.0)
        assert np.all(vectors["x"] == 0.0)

    def test_records_accumulate_with_iterations(self, state):
        inj, _, _ = state
        inj.inject_iteration(0, n_strikes=2)
        inj.inject_iteration(1, n_strikes=3)
        assert [r.iteration for r in inj.records] == [0, 0, 1, 1, 1]

    def test_on_strike_hook_sees_each_position(self, state):
        inj, a, _ = state
        seen = []
        inj.register("colid", a.colid, on_strike=seen.append)
        inj.inject_at(0, "colid", 17, 3)
        inj.inject_at(0, "val", 17, 3)
        assert seen == [17]
        inj.register("colid", a.colid)  # re-registering drops the hook
        inj.inject_at(1, "colid", 18, 3)
        assert seen == [17]
