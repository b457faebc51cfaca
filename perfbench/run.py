"""Campaign benchmark for the ``repro`` reproduction.

Drives the functions behind ``repro figure1``, ``repro table1`` and
``repro report`` (``run_figure1``, ``run_table1``, ``summarize_store``
/ ``format_summary``) in this process, one closed-loop client, fixed
``reps`` and the base seed taken from ``--seed``, so two commits do the
same deterministic work.  ``--adaptive`` is not used: adaptive sampling
changes how many repetitions run, which is a result, not a workload.
There is no ``reps_per_s``: at fixed reps it is ``1 / campaign_s``, and a
second gated copy of one figure only doubles the chance of a false
rejection.

Usage::

    python3 perfbench/run.py --workload fig1-small --seed 1 --seconds 30 --trace 0

A run repeats whole passes (one chain of experiment calls, caches cleared
before each) until the window is used, then reports medians.  The last
stdout line is the result object; the line before it carries host
context (CPU steal, load average, versions), which explains a noisy run
but is not a metric.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over fresh processes of interpreter start,
  ``import repro``, suite matrix build and checksum setup, net of
  hypervisor steal like ``campaign_s``;
- ``campaign_s``: median wall time of one pass, up to the rendered
  table (and, for ``sweep-store``, the resumed pass and the report),
  net of hypervisor steal: ``wall * cpu / (cpu + steal)``, i.e. the
  wall time with the stolen share of the busy CPU time removed.  On an
  unshared host it equals the wall time.  On the 2-vCPU VM these
  figures were taken on, steal reached a third of a run's CPU time and
  the raw wall medians of ten runs spread by 20-28 % of their median
  (IQR, every workload), more than any bound allows; the raw medians
  stay in the context line;
- ``campaign_cpu_s``: the same interval's user+sys CPU of this process
  and its reaped pool workers, which host steal does not inflate;
- ``peak_rss_mb``: the largest resident set of this process or any
  pool worker.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py``.  The SpMxV byte and flop figures are
computed from array sizes, not measured; every working set here is
below 5 MiB, well inside the 300 MiB last-level cache of the reference
host, so no DRAM-bandwidth claim is made.

Outputs are checked: every task must finish, converge and not be
quarantined; every pass must render the same bytes (traced or not, and
fresh or resumed from the store); a reduced pass at the default seed
must match the digest in ``digests.json``, and at the default seed the
full pass must too.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: The CLI's default ``--base-seed``; the full-pass digest is kept for it.
DEFAULT_SEED = 2015
#: Set-up probes per run (fresh interpreters; the median is reported).
SETUP_PROBES = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  #: "figure1" or "table1"
    uids: "tuple[int, ...] | None"  #: None = all nine suite matrices
    scale: int
    reps: int
    jobs: int
    store: bool  #: fresh sqlite store, then a resumed pass and a report
    canary_uid: int  #: matrix of the reduced default-seed check
    cli: str  #: the equivalent ``repro`` command line
    mtbf: "tuple[float, ...] | None" = None  #: figure1 x-axis; None = the paper's six


WORKLOADS = {
    w.name: w
    for w in (
        # n = 1250, 0.5 MB matrix (L2-resident): per-call Python work
        # around each product dominates (wrapper, verify, strike
        # sampling, recurrence); ufunc time is about 30 % of the run.
        Workload(
            "fig1-small", "figure1", (2213,), 16, 10, 1, False, 2213,
            "repro figure1 --uids 2213 --scale 16 --reps 10 --jobs 1 --base-seed SEED",
        ),
        # n = 5776, 270 k nnz, 4.3 MB (L3-resident): take/reduceat
        # kernels dominate; alpha = 1/16 drives corrections, rollbacks
        # and checkpoint save/restore.
        Workload(
            "tab1-large", "table1", (341,), 4, 2, 1, False, 341,
            "repro table1 --uids 341 --scale 4 --reps 2 --jobs 1 --base-seed SEED",
        ),
        # 162 small tasks over a 2-worker pool: expansion, model
        # optimisation, dispatch, store writes and reads and aggregation
        # sit on the blocking path.
        Workload(
            "sweep-store", "figure1", None, 64, 2, 2, True, 2213,
            "repro figure1 --scale 64 --reps 2 --jobs 2 --store sqlite:F --base-seed SEED;"
            " the same with --resume; repro report sqlite:F",
        ),
    )
}

#: layer metric -> (end-to-end metric it should move, workloads where it
#: should move most, workloads where it should stay about flat).  A
#: traced run fails if a wrapped layer records no call on a workload in
#: its "mostly" set.
ALL = ("fig1-small", "tab1-large", "sweep-store")
LAYER_MAP = {
    "setup.import_s": ("setup_s", ALL, ()),
    "setup.matrix_build_s": ("setup_s", ALL, ()),
    "setup.checksum_s": ("setup_s", ALL, ()),
    "sparse.spmv": ("campaign_cpu_s", ("fig1-small",), ("tab1-large",)),
    "abft.verify": ("campaign_cpu_s", ("fig1-small", "tab1-large"), ()),
    "abft.correct": ("campaign_s", ("tab1-large",), ("fig1-small", "sweep-store")),
    "faults.sample": ("campaign_cpu_s", ("fig1-small",), ()),
    "checkpoint.save": ("campaign_s", ("tab1-large",), ("fig1-small",)),
    "checkpoint.restore": ("campaign_s", ("tab1-large",), ("fig1-small",)),
    "resilience": ("campaign_cpu_s", ("fig1-small",), ()),
    "sim.repeat": ("campaign_cpu_s", ("fig1-small",), ()),
    "model.interval": ("campaign_s", ("sweep-store",), ("fig1-small", "tab1-large")),
    "campaign.expand": ("campaign_s", ("sweep-store",), ("fig1-small", "tab1-large")),
    "campaign.dispatch": ("campaign_s", ("sweep-store",), ("fig1-small", "tab1-large")),
    "campaign.aggregate": ("campaign_s", ("sweep-store",), ("fig1-small", "tab1-large")),
    "store.append": ("campaign_s", ("sweep-store",), ("fig1-small", "tab1-large")),
    "store.read": ("campaign_s", ("sweep-store",), ("fig1-small", "tab1-large")),
    "api.render": ("campaign_s", ("sweep-store",), ()),
    "api.report": ("campaign_s", ("sweep-store",), ()),
}


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(wl: Workload, seed: int, rec=None) -> dict:
    """One chain of experiment calls, timed, then checked outside the timing."""
    from repro.api.report import format_summary, summarize_store
    from repro.obs.metrics import METRICS
    from repro.perf import clear_caches
    from repro.sim import experiments, results

    extra = {}
    if wl.kind == "figure1":
        experiment, render = experiments.run_figure1, results.format_figure1
        extra["mtbf_values"] = None if wl.mtbf is None else list(wl.mtbf)
    else:
        experiment, render = experiments.run_table1, results.format_table1
    store = db = None
    if wl.store:
        db = OUT / f"{wl.name}-{os.getpid()}.db"
        _remove_db(db)
        store = f"sqlite:{db.relative_to(ROOT)}"
    kw = dict(
        scale=wl.scale,
        reps=wl.reps,
        uids=None if wl.uids is None else list(wl.uids),
        base_seed=seed,
        jobs=wl.jobs,
        store=store,
        progress=False,
        chaos="off",
        **extra,
    )
    if rec is None:
        span, tracing = (lambda _layer: contextlib.nullcontext()), contextlib.nullcontext()
    else:
        from spans import Installed

        span, tracing = rec.span, Installed(rec)
    before = {k: METRICS.count(k) for k in ("campaign.tasks", "engine.diverged",
                                            "campaign.quarantined")}
    clear_caches()
    summary = resumed = raised = None
    text = ""
    with tracing:
        steal0 = steal_seconds()
        t0 = time.perf_counter()
        c0 = cpu_seconds()
        try:
            with span("campaign"):
                out = experiment(**kw)
                with span("api.render"):
                    text = render(out)
                if wl.store:
                    out = experiment(**kw)
                    with span("api.render"):
                        resumed = render(out)
                    with span("api.report"):
                        summary = summarize_store(store)
                        format_summary(summary)
        except Exception as exc:  # noqa: BLE001 - a raising task is a failed operation
            raised = exc
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        steal = steal_seconds() - steal0
    net = net_of_steal(wall, cpu, steal)

    delta = {k: METRICS.count(k) - v for k, v in before.items()}
    problems = []
    if raised is not None:
        # The tasks finished before the raise (stored ones, if the
        # workload has a store: pool workers' counters are not in this
        # process), plus the one that raised.
        if db is not None:
            tasks, failed = _store_outcomes(store)
            _remove_db(db)
        else:
            tasks = int(delta["campaign.tasks"])
            failed = min(tasks, int(delta["engine.diverged"]))
        tasks, failed = tasks + 1, failed + 1
        problems.append(f"experiment raised {raised!r}")
        report = ""
    elif wl.store:
        tasks, failed = _store_outcomes(store)
        if resumed != text:
            problems.append("resumed pass rendered different bytes")
        report = format_summary(dataclasses.replace(summary, path="<store>", telemetry=None))
        _remove_db(db)
    else:
        tasks = int(delta["campaign.tasks"])
        # Per-solve counters: a task fails if any of its reps diverged,
        # so this bounds the failed-task count from above.
        failed = min(tasks, int(delta["engine.diverged"] + delta["campaign.quarantined"]))
        report = ""
    if tasks == 0:
        problems.append("no task ran")
    elif failed:
        problems.append(f"{failed} task(s) failed")
    return {
        "wall": wall,
        "net": net,
        "cpu": cpu,
        "steal": steal,
        "tasks": tasks,
        "failed": failed,
        "digest": hashlib.sha256((text + "\0" + report).encode()).hexdigest(),
        "problems": problems,
    }


def net_of_steal(wall: float, cpu: float, steal: float) -> float:
    """Wall time with the stolen share of the busy CPU time removed."""
    return wall * cpu / (cpu + steal) if cpu + steal > 0 else wall


def _remove_db(db: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{db}{suffix}").unlink(missing_ok=True)


def _store_outcomes(store: str) -> "tuple[int, int]":
    """(tasks, failed) from the task records of a campaign store."""
    from repro.store import open_store

    tasks = failed = 0
    with open_store(store) as st:
        for rec in st.iter_records():
            kind = rec.get("kind")
            if kind in ("telemetry", "partial"):
                continue
            tasks += 1
            if kind == "quarantine" or rec["stats"]["convergence_rate"] != 1.0:
                failed += 1
    return tasks, failed


# ----------------------------------------------------------------------
# set-up probes, host context
# ----------------------------------------------------------------------
def setup_probes(wl: Workload) -> "list[dict]":
    from repro.sim.matrices import suite_specs

    uids = [s.uid for s in suite_specs(None if wl.uids is None else list(wl.uids))]
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(SRC), str(wl.scale)]
    cmd += [str(u) for u in uids]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probes = []
    for _ in range(SETUP_PROBES):
        steal0 = steal_seconds()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        steal = steal_seconds() - steal0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["repro_file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"probe imported repro from {probe['repro_file']}")
        probes.append({**probe, "wall": wall, "net": net_of_steal(wall, cpu, steal)})
    return probes


def steal_seconds() -> float:
    """Hypervisor steal so far, summed over CPUs (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def host_context(steal0: float) -> dict:
    import numpy

    with open("/proc/loadavg") as fh:
        load = [float(v) for v in fh.read().split()[:3]]
    return {
        "steal_s": steal_seconds() - steal0,
        "loadavg": load,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# measurement loops
# ----------------------------------------------------------------------
def _keep_going(t_start: float, seconds: float, durations: "list[float]") -> bool:
    """Start another pass while its expected midpoint is in the window,
    so a pass of length L runs about ``seconds / L`` times whatever the
    host speed."""
    return time.perf_counter() - t_start + 0.5 * statistics.median(durations) < seconds


def measure(wl: Workload, seed: int, seconds: float) -> "list[dict]":
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, seed))
        if not _keep_going(t_start, seconds, [p["wall"] for p in passes]):
            return passes


def measure_traced(wl: Workload, seed: int, seconds: float):
    """Alternate untraced and traced passes; return both lists, the
    traced passes' layer breakdowns and the use sites not found."""
    from spans import Recorder, count_runtime_warnings, layer_breakdown, read_worker_files

    plain, traced, breakdowns = [], [], []
    t_start = time.perf_counter()
    pairs = []
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(wl, seed))
        out_dir = OUT / f"trace-{os.getpid()}-{len(traced)}"
        out_dir.mkdir(parents=True, exist_ok=True)
        rec = Recorder(out_dir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            traced.append(run_pass(wl, seed, rec))
        workers = read_worker_files(out_dir)
        out_dir.rmdir()
        b = layer_breakdown(rec, workers)
        b["counters"]["resilience.warnings_leaked"] += count_runtime_warnings(caught)
        breakdowns.append(b)
        _write_spans(wl, seed, rec.spans, workers)
        pairs.append(time.perf_counter() - t0)
        if not _keep_going(t_start, seconds, pairs):
            return plain, traced, breakdowns, sorted(rec.missing)


def _write_spans(wl: Workload, seed: int, spans, workers) -> None:
    """Spans of the latest traced pass, one list per process."""
    path = OUT / f"spans-{wl.name}-seed{seed}.json"
    fields = ["id", "parent", "layer", "start", "end"]
    path.write_text(json.dumps({
        "fields": fields,
        "processes": [{"pid": os.getpid(), "spans": spans}]
        + [{"pid": w["pid"], "spans": w["spans"]} for w in workers],
    }))


def per_layer_metrics(
    wl, probes, plain, traced, breakdowns, missing
) -> "tuple[dict, list[str]]":
    """The ``--trace 1`` metrics (means over traced passes, so shares
    still add up) and the problems found in the trace."""
    problems = []
    layers = sorted({k for b in breakdowns for k in (*b["shares"], *b["calls"])})
    share = {k: statistics.fmean(b["shares"].get(k, 0.0) for b in breakdowns) for k in layers}
    calls = {k: statistics.fmean(b["calls"].get(k, 0) for b in breakdowns) for k in layers}
    keys = sorted({k for b in breakdowns for k in b["counters"]})
    cnt = {k: statistics.fmean(b["counters"].get(k, 0.0) for b in breakdowns) for k in keys}
    unattributed = statistics.fmean(b["unattributed"] for b in breakdowns)
    traced_s = statistics.median(p["wall"] for p in traced)
    plain_s = statistics.median(p["wall"] for p in plain)
    # Overhead from the steal-net times, like campaign_s.
    overhead = statistics.median(p["net"] for p in traced) - statistics.median(
        p["net"] for p in plain)
    traced_mean = statistics.fmean(p["wall"] for p in traced)
    closure = abs(sum(share.values()) + unattributed - traced_mean) / traced_mean
    if closure > 0.05:
        problems.append(f"layer shares miss the traced campaign time by {closure:.1%}")
    if {p["digest"] for p in plain} != {p["digest"] for p in traced}:
        problems.append("traced passes rendered different bytes than untraced ones")
    problems += [f"use site {site} not found, not traced" for site in missing]
    for layer, (_e2e, mostly, _flat) in LAYER_MAP.items():
        if wl.name in mostly and not layer.startswith("setup.") and not calls.get(layer):
            problems.append(f"wrapped layer {layer} recorded no call on {wl.name}")

    spmv_calls = calls.get("sparse.spmv", 0)
    spmv_busy = statistics.fmean(b["busy"].get("sparse.spmv", 0.0) for b in breakdowns)
    spmv_bytes, spmv_flops = cnt.get("spmv.bytes", 0), cnt.get("spmv.flops", 0)

    def per_call(total, n):
        return total / n if n else 0.0

    m = {
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "setup.matrix_build_s": (statistics.median(p["matrix_build_s"] for p in probes), "s"),
        "setup.checksum_s": (statistics.median(p["checksum_s"] for p in probes), "s"),
        "sparse.spmv.calls": (spmv_calls, "count"),
        "sparse.spmv.self_s": (share.get("sparse.spmv", 0.0), "s"),
        "sparse.spmv.us_per_call": (per_call(spmv_busy * 1e6, spmv_calls), "us"),
        "sparse.spmv.bytes_per_call_computed": (per_call(spmv_bytes, spmv_calls), "B"),
        "sparse.spmv.flops_per_call_computed": (per_call(spmv_flops, spmv_calls), "flop"),
        "sparse.spmv.flops_per_byte_computed": (per_call(spmv_flops, spmv_bytes), "flop/B"),
        "abft.verify.self_s": (share.get("abft.verify", 0.0), "s"),
        "abft.correct.calls": (calls.get("abft.correct", 0), "count"),
        "abft.correct.self_s": (share.get("abft.correct", 0.0), "s"),
        "abft.correct.success_frac": (
            per_call(cnt.get("abft.correct.succeeded", 0), calls.get("abft.correct", 0)),
            "fraction"),
        "faults.sample.self_s": (share.get("faults.sample", 0.0), "s"),
        "faults.strikes": (cnt.get("faults.strikes", 0), "count"),
        "checkpoint.save.calls": (calls.get("checkpoint.save", 0), "count"),
        "checkpoint.save.self_s": (share.get("checkpoint.save", 0.0), "s"),
        "checkpoint.restore.calls": (calls.get("checkpoint.restore", 0), "count"),
        "checkpoint.restore.self_s": (share.get("checkpoint.restore", 0.0), "s"),
        "resilience.self_s": (share.get("resilience", 0.0), "s"),
        "resilience.iters_executed": (cnt.get("resilience.iters_executed", 0), "count"),
        "resilience.useful_frac": (
            per_call(cnt.get("resilience.iters_useful", 0),
                     cnt.get("resilience.iters_executed", 0)), "fraction"),
        "resilience.rollbacks": (cnt.get("resilience.rollbacks", 0), "count"),
        "resilience.warnings_leaked": (cnt.get("resilience.warnings_leaked", 0), "count"),
        "sim.repeat.self_s": (share.get("sim.repeat", 0.0), "s"),
        "model.interval.self_s": (share.get("model.interval", 0.0), "s"),
        "campaign.expand_s": (share.get("campaign.expand", 0.0), "s"),
        "campaign.dispatch_s": (share.get("campaign.dispatch", 0.0), "s"),
        "campaign.aggregate_s": (share.get("campaign.aggregate", 0.0), "s"),
        "store.append.calls": (calls.get("store.append", 0), "count"),
        "store.append.self_s": (share.get("store.append", 0.0), "s"),
        "store.append.bytes": (cnt.get("store.append.bytes", 0), "B"),
        "store.read_s": (share.get("store.read", 0.0), "s"),
        "api.render_s": (share.get("api.render", 0.0), "s"),
        "api.report_s": (share.get("api.report", 0.0), "s"),
        "trace.campaign_s": (traced_s, "s"),
        "trace.untraced_campaign_s": (plain_s, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (
            overhead / statistics.median(p["net"] for p in plain), "fraction"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.closure_err": (closure, "fraction"),
    }
    return m, problems


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def load_repro() -> None:
    """Import the checkout's ``repro`` from ``src/``, never an installed one."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def canary_of(wl: Workload) -> Workload:
    """The reduced default-seed check: one rep of the three schemes at
    1/alpha = 16 on one matrix at the workload's scale (through the
    store if the workload has one).  It runs before the measured passes
    because it also warms the process: lazy imports, and the
    allocator's switch from mmap to heap for arrays of the workload's
    size, which otherwise costs the first pass ~500 k page faults on
    tab1-large."""
    return dataclasses.replace(
        wl, kind="figure1", uids=(wl.canary_uid,), reps=1, jobs=1, mtbf=(16.0,)
    )


def check_digest(wl: Workload, name: str, digest: str) -> "list[str]":
    expected = json.loads((HERE / "digests.json").read_text())[wl.name][name]
    if digest != expected:
        return [f"{name} output digest {digest[:12]} != expected {expected[:12]}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    os.chdir(ROOT)
    # A chaos spec in the environment would inject faults into the pool.
    os.environ.pop("REPRO_CHAOS", None)
    steal0 = steal_seconds()
    try:
        load_repro()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    canary = run_pass(canary_of(wl), DEFAULT_SEED)
    problems = canary["problems"] + check_digest(wl, "canary", canary["digest"])

    if args.trace:
        plain, traced, breakdowns, missing = measure_traced(wl, args.seed, args.seconds)
        passes = plain + traced
    else:
        passes = measure(wl, args.seed, args.seconds)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    problems += [p for ps in passes for p in ps["problems"]]
    if len({p["digest"] for p in passes}) > 1:
        problems.append("passes rendered different bytes")
    if args.seed == DEFAULT_SEED:
        problems += check_digest(wl, "full", passes[0]["digest"])

    probes = setup_probes(wl)
    if args.trace:
        metrics, trace_problems = per_layer_metrics(
            wl, probes, plain, traced, breakdowns, missing)
        problems += trace_problems
    else:
        metrics = {
            "setup_s": (statistics.median(p["net"] for p in probes), "s"),
            "campaign_s": (statistics.median(p["net"] for p in passes), "s"),
            "campaign_cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    context = {
        "workload": wl.name,
        "cli": wl.cli.replace("SEED", str(args.seed)),
        "passes": len(passes),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_wall_s": statistics.median(p["wall"] for p in probes),
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "pass_cpu_s": [round(p["cpu"], 4) for p in passes],
        "pass_steal_s": [round(p["steal"], 2) for p in passes],
        "digest": passes[0]["digest"],
        "canary_digest": canary["digest"],
        "problems": problems,
        **host_context(steal0),
    }
    (OUT / f"context-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(context, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["tasks"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        sys.exit(1)
