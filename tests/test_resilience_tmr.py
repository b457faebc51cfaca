"""Unit tests for the engine's TMR voter (``EngineContext.tmr_vote``).

The paper protects the CG vector kernels by triple modular redundancy:
a single corrupted replica is out-voted, two corrupted replicas of the
same vector defeat the vote.  The engine models this on the live
vectors: a lone strike is applied then reverted, a double strike in one
vector is applied and left in place, and the caller rolls back.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Scheme, SchemeConfig
from repro.faults import FaultInjector, FaultModel
from repro.resilience import EngineContext
from repro.sparse import laplacian_2d
from repro.util.log import EventLog

N = 36


@pytest.fixture
def ctx():
    """A bare engine context with three registered CG vectors."""
    a = laplacian_2d(6)
    c = EngineContext(
        SimpleNamespace(iteration=7),
        a,
        a.copy(),
        np.ones(N),
        SchemeConfig(Scheme.ABFT_CORRECTION),
        EventLog(),
    )
    rng = np.random.default_rng(5)
    c.injector = FaultInjector(FaultModel(alpha=0.5, memory_words=3 * N), rng=0)
    c.vectors = {name: rng.normal(size=N) for name in ("r", "p", "x")}
    for name, v in c.vectors.items():
        c.injector.register(name, v)
    c.pristine = {name: v.copy() for name, v in c.vectors.items()}
    return c


def changed(c) -> set[str]:
    """Names of vectors whose bytes differ from the pristine copies."""
    return {
        name
        for name, v in c.vectors.items()
        if not np.array_equal(v.view(np.int64), c.pristine[name].view(np.int64))
    }


class TestNoStrikes:
    def test_empty_phase_passes(self, ctx):
        assert ctx.tmr_vote([], stop_on_failure=True)
        assert ctx.counters.tmr_corrections == 0
        assert ctx.counters.tmr_detections == 0
        assert len(ctx.log) == 0

    def test_no_injector_passes(self, ctx):
        ctx.injector = None
        assert ctx.tmr_vote([("r", 0, 3)], stop_on_failure=True)
        assert ctx.counters.tmr_corrections == 0


class TestSingleStrikeMasked:
    @pytest.mark.parametrize("bit", [0, 17, 40, 51, 52, 62, 63])
    def test_any_bit_out_voted(self, ctx, bit):
        assert ctx.tmr_vote([("p", 11, bit)], stop_on_failure=True)
        assert changed(ctx) == set()
        assert ctx.counters.tmr_corrections == 1

    @pytest.mark.parametrize("target", ["r", "p", "x"])
    def test_every_vector_protected(self, ctx, target):
        assert ctx.tmr_vote([(target, N - 1, 62)], stop_on_failure=False)
        assert changed(ctx) == set()

    def test_one_strike_per_vector_all_masked(self, ctx):
        strikes = [("r", 0, 60), ("p", 5, 61), ("x", 9, 62)]
        assert ctx.tmr_vote(strikes, stop_on_failure=True)
        assert changed(ctx) == set()
        assert ctx.counters.tmr_corrections == 3
        assert ctx.counters.tmr_detections == 0

    def test_strike_is_recorded(self, ctx):
        ctx.tmr_vote([("x", 4, 30)], stop_on_failure=True)
        (rec,) = ctx.injector.records
        assert (rec.iteration, rec.target, rec.position, rec.bit) == (7, "x", 4, 30)

    def test_correction_logged(self, ctx):
        ctx.tmr_vote([("r", 2, 55)], stop_on_failure=True)
        (ev,) = ctx.log.of_kind("tmr-correction")
        assert ev.iteration == 7
        assert ev.payload == {"target": "r"}


class TestDoubleStrikeDefeatsVote:
    def test_double_strike_fails_and_persists(self, ctx):
        ok = ctx.tmr_vote([("p", 3, 62), ("p", 20, 61)], stop_on_failure=True)
        assert not ok
        assert changed(ctx) == {"p"}
        assert ctx.counters.tmr_detections == 1
        assert ctx.counters.tmr_corrections == 0

    def test_double_strike_on_same_word(self, ctx):
        # Two flips of different bits in one word still defeat the vote.
        ok = ctx.tmr_vote([("x", 8, 62), ("x", 8, 10)], stop_on_failure=True)
        assert not ok
        assert changed(ctx) == {"x"}

    def test_triple_strike_counts_once(self, ctx):
        strikes = [("r", 1, 62), ("r", 2, 62), ("r", 3, 62)]
        assert not ctx.tmr_vote(strikes, stop_on_failure=False)
        assert ctx.counters.tmr_detections == 1
        assert len(ctx.injector.records) == 3

    def test_detection_logged_with_strike_count(self, ctx):
        ctx.tmr_vote([("r", 1, 62), ("r", 2, 61)], stop_on_failure=True)
        (ev,) = ctx.log.of_kind("tmr-detection")
        assert ev.payload == {"target": "r", "strikes": 2}

    def test_strikes_in_different_vectors_are_single(self, ctx):
        # Two strikes, but one per vector: each vote still has two good
        # replicas.
        assert ctx.tmr_vote([("r", 1, 62), ("p", 1, 62)], stop_on_failure=True)
        assert changed(ctx) == set()


class TestStopOnFailure:
    STRIKES = [("r", 1, 62), ("r", 2, 62), ("p", 4, 62), ("x", 6, 62), ("x", 7, 62)]

    def test_stop_returns_at_first_failed_target(self, ctx):
        assert not ctx.tmr_vote(self.STRIKES, stop_on_failure=True)
        # Votes run in order of first appearance; nothing after "r" ran.
        assert changed(ctx) == {"r"}
        assert ctx.counters.tmr_detections == 1
        assert ctx.counters.tmr_corrections == 0

    def test_no_stop_finishes_every_vote(self, ctx):
        assert not ctx.tmr_vote(self.STRIKES, stop_on_failure=False)
        assert changed(ctx) == {"r", "x"}
        assert ctx.counters.tmr_detections == 2
        assert ctx.counters.tmr_corrections == 1
        assert [ev.kind for ev in ctx.log.events] == [
            "tmr-detection",
            "tmr-correction",
            "tmr-detection",
        ]

    def test_vote_order_follows_first_appearance(self, ctx):
        strikes = [("x", 0, 62), ("r", 0, 62), ("x", 1, 62)]
        assert not ctx.tmr_vote(strikes, stop_on_failure=True)
        assert changed(ctx) == {"x"}
        assert ctx.counters.tmr_corrections == 0

    def test_rng_untouched(self, ctx):
        state = ctx.injector.rng.bit_generator.state
        ctx.tmr_vote(self.STRIKES, stop_on_failure=False)
        assert ctx.injector.rng.bit_generator.state == state
