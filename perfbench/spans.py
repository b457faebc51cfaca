"""Span recorder for the traced benchmark run.

Wrappers are installed around the program's public functions at their
use sites (the module or class attribute the caller looks up), so the
program itself is unchanged.  Each wrapper records one span
``(id, parent, layer, start, end)`` in memory; self times are derived
after the pass.  Nothing here runs in an untraced pass.

Worker processes of a ``--jobs N`` pool are forked from the traced
process and inherit the wrappers.  The wrapper around ``execute_chunk``
(the pool's worker entry point) starts a fresh recorder in the worker
and writes that chunk's spans and counters to a file in the pass's
output directory when the chunk returns; the parent reads the files
after the experiment call.
"""

from __future__ import annotations

import functools
import json
import os
import time
import warnings
from collections import defaultdict
from pathlib import Path

#: Layer of the pass's root span: its self time is "unattributed".
ROOT = "campaign"
#: Worker root span (one per pool chunk).
CHUNK = "campaign.chunk"
#: Parent-side span around the whole pool phase.
POOL = "campaign.pool"
#: Layer that absorbs executor overhead (execute_task self, worker
#: chunk self, and pool wall time not covered by worker busy time).
DISPATCH = "campaign.dispatch"


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, out_dir: "Path | None" = None) -> None:
        self.out_dir = out_dir
        self.chunks_written = 0
        #: Use sites absent from the program (renamed or removed).
        self.missing: "set[str]" = set()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: "list[tuple[int, int, str, float, float]]" = []
        self.current = -1
        self.next_id = 0
        self.counters: "defaultdict[str, float]" = defaultdict(float)

    def span(self, layer: str):
        return _Span(self, layer)

    def dump_worker_chunk(self) -> None:
        """Write this process's spans and counters, then forget them."""
        path = self.out_dir / f"worker-{self.pid}-{self.chunks_written}.json"
        self.chunks_written += 1
        path.write_text(
            json.dumps({"pid": self.pid, "spans": self.spans, "counters": self.counters})
        )
        self.reset()


class _Span:
    __slots__ = ("rec", "layer", "sid", "parent", "t0")

    def __init__(self, rec: Recorder, layer: str) -> None:
        self.rec, self.layer = rec, layer

    def __enter__(self):
        rec = self.rec
        self.sid = rec.next_id
        rec.next_id += 1
        self.parent = rec.current
        rec.current = self.sid
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        rec = self.rec
        rec.current = self.parent
        rec.spans.append((self.sid, self.parent, self.layer, self.t0, t1))


def _wrap(rec: Recorder, fn, layer: str, post=None):
    """Span around every call of ``fn``; ``post(counters, args, result)``
    runs after the span closes, so its cost is not charged to ``layer``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(layer):
            result = fn(*args, **kwargs)
        if post is not None:
            post(rec.counters, args, result)
        return result

    return wrapper


def _wrap_generator(rec: Recorder, fn, layer: str):
    """Span around each pull of a generator, so the consumer's time
    between pulls stays with the consumer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            with rec.span(layer):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    return wrapper


def _wrap_chunk(rec: Recorder, fn):
    """Worker entry point: fresh recorder, root span, warning count,
    and a dump of the chunk's spans when it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.pid != os.getpid():
            rec.reset()  # forked: drop the parent's spans
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            with rec.span(CHUNK):
                result = fn(*args, **kwargs)
        rec.counters["resilience.warnings_leaked"] += count_runtime_warnings(caught)
        rec.dump_worker_chunk()
        return result

    return wrapper


def count_runtime_warnings(caught) -> int:
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning))


# ----------------------------------------------------------------------
# counters gathered at the same boundaries
# ----------------------------------------------------------------------
def _spmv_post(c, args, _result) -> None:
    """Computed kernel figures for the structure-clean reference SpMxV:
    ``take`` (colid read, x gather, product write), ``multiply`` (val
    read, product read+write), ``reduceat`` (product read, row-start
    read, y write).  Array sizes only: cache hits are ignored."""
    a = args[0]
    nnz, n = a.nnz, a.nrows
    c["spmv.bytes"] += (
        nnz * (a.colid.itemsize + 8 + 8)
        + nnz * (a.val.itemsize + 8 + 8)
        + nnz * 8
        + n * (a.rowidx.itemsize + 8)
    )
    c["spmv.flops"] += 2 * nnz - n


def _correct_post(c, _args, outcome) -> None:
    c["abft.correct.succeeded"] += bool(outcome.corrected)


def _sample_post(c, _args, strikes) -> None:
    c["faults.strikes"] += len(strikes)


def _solve_post(c, _args, res) -> None:
    c["resilience.iters_executed"] += res.iterations_executed
    c["resilience.iters_useful"] += res.iterations
    c["resilience.rollbacks"] += res.counters.rollbacks


def _append_post(c, args, _result) -> None:
    c["store.append.bytes"] += len(json.dumps(args[1]))


def use_sites():
    """``(owner, attribute, layer, post)`` for every wrapped call site.

    Only the CG plugin's SpMxV sites are wrapped: every workload runs
    the paper's CG, so the PCG and BiCGstab sites would record nothing.
    """
    import repro.abft.correction
    import repro.abft.spmv
    import repro.campaign.aggregate
    import repro.campaign.executor
    import repro.campaign.spec
    import repro.faults.injector
    import repro.resilience.cg
    import repro.resilience.engine
    import repro.resilience.registry
    import repro.sim.engine
    import repro.sim.experiments
    import repro.store.sqlite

    ex = repro.campaign.executor
    sqlite = repro.store.sqlite.SqliteStore
    return [
        (repro.abft.spmv, "spmv", "sparse.spmv", _spmv_post),
        (repro.resilience.engine, "spmv", "sparse.spmv", _spmv_post),
        (repro.resilience.cg, "spmv", "sparse.spmv", _spmv_post),
        (repro.resilience.engine, "protected_spmv", "abft.verify", None),
        (repro.abft.correction, "correct_errors", "abft.correct", _correct_post),
        (repro.faults.injector.FaultInjector, "sample_strikes", "faults.sample", _sample_post),
        (repro.resilience.engine.EngineContext, "snapshot", "checkpoint.save", None),
        (repro.resilience.engine.EngineContext, "_restore", "checkpoint.restore", None),
        (repro.resilience.registry, "run_protected", "resilience", _solve_post),
        (repro.sim.engine, "repeat_run", "sim.repeat", None),
        (ex, "execute_task", DISPATCH, None),
        (ex, "_run_pool", POOL, None),
        (repro.campaign.spec.CampaignSpec, "expand", "campaign.expand", None),
        (repro.sim.experiments, "model_interval_for", "model.interval", None),
        (repro.campaign.aggregate, "aggregate_figure1", "campaign.aggregate", None),
        (repro.campaign.aggregate, "aggregate_table1", "campaign.aggregate", None),
        (sqlite, "append", "store.append", _append_post),
        (sqlite, "resume", "store.read", None),
        (ex, "execute_chunk", CHUNK, None),
        (sqlite, "iter_records", "store.read", None),
    ]


class Installed:
    """Context manager: wrappers in place for its duration.  A use site
    the program no longer has is skipped and noted in ``rec.missing``."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.saved: "list[tuple[object, str, object]]" = []

    def __enter__(self) -> "Installed":
        for owner, attr, layer, post in use_sites():
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.rec.missing.add(f"{owner.__name__}.{attr}")
                continue
            if attr == "execute_chunk":
                new = _wrap_chunk(self.rec, fn)
            elif attr == "iter_records":
                new = _wrap_generator(self.rec, fn, layer)
            else:
                new = _wrap(self.rec, fn, layer, post)
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans) -> "tuple[dict[str, float], dict[str, int], float]":
    """Per-layer self time and call count of one process's spans, plus
    the summed duration of its root spans (``parent == -1``)."""
    child = defaultdict(float)
    for _sid, parent, _layer, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: "defaultdict[str, float]" = defaultdict(float)
    calls: "defaultdict[str, int]" = defaultdict(int)
    roots = 0.0
    for sid, parent, layer, t0, t1 in spans:
        self_s[layer] += (t1 - t0) - child[sid]
        calls[layer] += 1
        if parent < 0:
            roots += t1 - t0
    return dict(self_s), dict(calls), roots


def layer_breakdown(parent: Recorder, workers: "list[dict]") -> dict:
    """Wall-clock shares of one traced pass, summing to its root span.

    In the parent, a layer's share is its self time.  Pool workers run
    concurrently, so their self times are divided by the number of
    workers (a wall-equivalent share), and the pool span's own self
    time minus the mean worker busy time goes to ``campaign.dispatch``
    (pool start-up, IPC and tail imbalance).  Counts are summed over
    all processes, and ``busy`` is each layer's self time summed over
    all processes (not divided).
    """
    self_s, calls, _ = self_times(parent.spans)
    shares = dict(self_s)
    busy = dict(self_s)
    unattributed = shares.pop(ROOT, 0.0)
    calls.pop(ROOT, None)
    counters: "defaultdict[str, float]" = defaultdict(float, parent.counters)
    pids = {w["pid"] for w in workers}
    if workers:
        worker_busy = 0.0
        for w in workers:
            w_self, w_calls, w_roots = self_times([tuple(s) for s in w["spans"]])
            worker_busy += w_roots
            for layer, v in w_self.items():
                layer = DISPATCH if layer == CHUNK else layer
                shares[layer] = shares.get(layer, 0.0) + v / len(pids)
                busy[layer] = busy.get(layer, 0.0) + v
            for layer, v in w_calls.items():
                calls[layer] = calls.get(layer, 0) + v
            for k, v in w["counters"].items():
                counters[k] += v
        shares[DISPATCH] = (
            shares.get(DISPATCH, 0.0) + shares.pop(POOL, 0.0) - worker_busy / len(pids)
        )
    return {
        "shares": shares,
        "busy": busy,
        "calls": calls,
        "counters": counters,
        "unattributed": unattributed,
    }


def read_worker_files(out_dir: Path) -> "list[dict]":
    files = sorted(out_dir.glob("worker-*.json"))
    data = [json.loads(f.read_text()) for f in files]
    for f in files:
        f.unlink()
    return data
