"""Bit-identity lock for the numba backend's kernel transcription.

:mod:`repro.backends.numba_backend` re-implements the reference CSR
kernels — clean walk, guarded walk, checksum scatter — as
numba-compilable loops that reproduce NumPy's exact summation orders
(``np.add.reduceat`` = seed + pairwise_sum of the rest, ``np.add.at``
= sequential scatter).  These tests lock that claim with
``NumbaBackend(jit=False)``: the *identical kernel bodies* run
interpreted, so the algorithm is pinned even on environments without
the optional numba dependency.  When numba *is* installed, the same
locks run compiled, plus the full golden-trajectory replays.

If one of these fails, the transcription no longer matches NumPy's
reduction order and the backend's bit-identity contract — the thing
that lets it substitute inside the fault physics at all — is broken.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.numba_backend import (
    _DEFER,
    _DONE,
    NumbaBackend,
    numba_available,
)
from repro.core import Method, Scheme, SchemeConfig
from repro.resilience import run_ft_method
from repro.sim.engine import make_rhs
from repro.sparse import CSRMatrix, stencil_spd
from repro.sparse.norms import column_sums
from repro.sparse.spmv import spmv

from test_backends import CORRUPTIONS, stamped

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ft_trajectories.json"
_gold = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def py_backend():
    """The numba kernel bodies, interpreted — same floats, no JIT."""
    return NumbaBackend(jit=False)


def _random_csr(rng, nrows, ncols, max_row):
    """Random CSR with row lengths up to ``max_row`` (0 allowed)."""
    lens = rng.integers(0, max_row + 1, size=nrows)
    rowidx = np.zeros(nrows + 1, dtype=np.int64)
    rowidx[1:] = np.cumsum(lens)
    nnz = int(rowidx[-1])
    colid = rng.integers(0, ncols, size=nnz).astype(np.int64)
    val = rng.standard_normal(nnz)
    return CSRMatrix(val, colid, rowidx, (nrows, ncols))


class TestCleanKernelBitIdentity:
    def test_stencil_products(self, py_backend):
        a = stamped(stencil_spd(256, kind="box", radius=2))
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.standard_normal(a.ncols)
            assert np.array_equal(py_backend.spmv(a, x), spmv(a, x))

    def test_short_rows_hit_small_block(self, py_backend):
        # Rows of 0..10 nnz: the n<8 sequential branch and the empty-row
        # zero, across many random layouts.
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = stamped(_random_csr(rng, 60, 40, 10))
            x = rng.standard_normal(a.ncols)
            assert np.array_equal(py_backend.spmv(a, x), spmv(a, x))

    def test_wide_rows_hit_pairwise_recursion(self, py_backend):
        # Rows up to 600 nnz: the >128 recursive halving (explicit-stack
        # emulation) must split exactly where NumPy's pairwise_sum does.
        rng = np.random.default_rng(3)
        a = stamped(_random_csr(rng, 25, 80, 600))
        assert int(np.diff(a.rowidx).max()) > 128
        x = rng.standard_normal(a.ncols)
        assert np.array_equal(py_backend.spmv(a, x), spmv(a, x))

    def test_signed_zero_rows_preserved(self, py_backend):
        # A row of all -0.0 products must sum to -0.0 (NumPy seeds its
        # accumulators with the bit-preserving additive identity).  A
        # 0.0-initialized accumulator would flip the sign bit.
        for nnz_per_row in (1, 2, 5, 9, 130):
            nrows = 3
            rowidx = np.arange(0, (nrows + 1) * nnz_per_row, nnz_per_row,
                               dtype=np.int64)
            nnz = nrows * nnz_per_row
            colid = np.tile(np.arange(nnz_per_row, dtype=np.int64), nrows)
            a = CSRMatrix(np.full(nnz, -0.0), colid, rowidx,
                          (nrows, nnz_per_row))
            stamped(a)
            x = np.ones(a.ncols)
            y_ref = spmv(a, x)
            y = py_backend.spmv(a, x)
            assert np.array_equal(
                np.signbit(y), np.signbit(y_ref)
            ), nnz_per_row
            assert np.array_equal(y, y_ref)

    def test_out_buffer_and_empty_matrix(self, py_backend):
        a = stamped(stencil_spd(49, kind="cross", radius=1))
        x = np.ones(a.ncols)
        out = np.full(a.nrows, np.nan)
        y = py_backend.spmv(a, x, out=out)
        assert y is out
        assert np.array_equal(out, spmv(a, x))
        empty = stamped(CSRMatrix(
            np.zeros(0), np.zeros(0, dtype=np.int64),
            np.zeros(4, dtype=np.int64), (3, 3),
        ))
        assert np.array_equal(py_backend.spmv(empty, np.ones(3)), np.zeros(3))

    def test_shape_mismatch_raises(self, py_backend):
        a = stamped(stencil_spd(49, kind="cross", radius=1))
        with pytest.raises(ValueError, match="shape"):
            py_backend.spmv(a, np.ones(a.ncols + 1))
        with pytest.raises(ValueError, match="out"):
            py_backend.spmv(a, np.ones(a.ncols), out=np.empty(a.nrows - 1))


class TestGuardedKernelBitIdentity:
    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_directed_corruption_grid(self, py_backend, kind):
        a = stamped(stencil_spd(144, kind="cross", radius=2))
        CORRUPTIONS[kind](a)
        a.mark_structure_dirty()
        x = np.random.default_rng(11).standard_normal(a.ncols)
        y_ref = spmv(a, x)
        y = py_backend.spmv(a, x)
        assert np.array_equal(y, y_ref, equal_nan=True)

    def test_random_rowidx_fuzz(self, py_backend):
        # Random single-entry rowidx strikes across many draws: every
        # clip/monotone/overshoot combination must either reproduce the
        # reference bits directly or defer to the reference kernel.
        rng = np.random.default_rng(12)
        a0 = stencil_spd(100, kind="cross", radius=2)
        x = rng.standard_normal(a0.ncols)
        for _ in range(40):
            a = a0.copy()
            stamped(a)
            pos = int(rng.integers(0, a.rowidx.size))
            a.rowidx[pos] = int(rng.integers(-a.nnz, 2 * a.nnz))
            a.mark_structure_dirty()
            assert np.array_equal(py_backend.spmv(a, x), spmv(a, x))

    def test_defer_verdicts_direct(self, py_backend):
        # White-box: the kernel itself reports _DEFER exactly on the two
        # machine-dependent reference paths (non-monotone row loop,
        # overshoot repair) and _DONE elsewhere.
        a = stamped(stencil_spd(64, kind="cross", radius=1))
        x = np.ones(a.ncols)
        y = np.empty(a.nrows)
        guarded = py_backend._get_kernels()["guarded"]

        clean = guarded(a.val, a.colid, a.rowidx, x, y, a.ncols, a.nnz)
        assert clean == _DONE

        nonmono = a.copy()
        nonmono.rowidx[4] = nonmono.rowidx[7] + 3  # starts decrease later
        assert guarded(
            nonmono.val, nonmono.colid, nonmono.rowidx, x, y,
            nonmono.ncols, nonmono.nnz,
        ) == _DEFER

        # Overshoot: a row's end pulled below the next row's start while
        # the start sequence stays monotone — the reference repairs the
        # reduceat segment with a contiguous .sum().
        over = a.copy()
        over.rowidx[-1] = over.nnz + 10  # clips to nnz; last real row's
        over.rowidx[-2] = over.rowidx[-3]  # end < next start
        status = guarded(
            over.val, over.colid, over.rowidx, x, y, over.ncols, over.nnz
        )
        # Whatever the verdict, the public entry point must match the
        # reference bits (by kernel or by deferring to it).
        over.mark_structure_dirty()
        assert np.array_equal(py_backend.spmv(over, x), spmv(over, x))
        assert status in (_DONE, _DEFER)

    def test_equal_starts_quirk(self, py_backend):
        # indices[k] >= indices[k+1] makes reduceat yield the single
        # element at indices[k]; the kernel must reproduce that quirk.
        a = stamped(stencil_spd(64, kind="cross", radius=1))
        a.rowidx[4] = int(a.rowidx[5])
        a.mark_structure_dirty()
        x = np.arange(a.ncols, dtype=float)
        assert np.array_equal(py_backend.spmv(a, x), spmv(a, x))

    def test_guarded_with_wild_reads_and_wide_rows(self, py_backend):
        # colid wrap + >128-nnz rows: the guarded pairwise path with the
        # modulo applied per element, through the recursion emulation.
        rng = np.random.default_rng(13)
        a = stamped(_random_csr(rng, 20, 60, 400))
        a.colid[7] = a.ncols + 1000
        a.colid[11] = -99
        a.mark_structure_dirty()
        x = rng.standard_normal(a.ncols)
        assert np.array_equal(py_backend.spmv(a, x), spmv(a, x))


class TestChecksumKernel:
    def test_bit_identical_to_column_sums(self, py_backend):
        a = stamped(stencil_spd(144, kind="box", radius=1))
        w = np.vstack([np.ones(a.nrows),
                       np.arange(1.0, a.nrows + 1.0)])
        prods = py_backend.checksum_products(a, w)
        assert prods.shape == (2, a.ncols)
        for i in range(2):
            assert np.array_equal(prods[i], column_sums(a, weights=w[i]))

    def test_unstamped_routes_to_base_scatter(self, py_backend):
        a = stencil_spd(100, kind="cross", radius=1)
        assert not a.structure_clean
        w = np.ones((1, a.nrows))
        assert np.array_equal(
            py_backend.checksum_products(a, w)[0], column_sums(a)
        )

    def test_weights_shape_validated(self, py_backend):
        a = stamped(stencil_spd(100, kind="cross", radius=1))
        with pytest.raises(ValueError, match="weights"):
            py_backend.checksum_products(a, np.ones((2, a.nrows + 1)))


class TestWarmupAndFlags:
    def test_interpreted_flag(self, py_backend):
        assert py_backend.name == "numba"
        assert py_backend.compiled is False

    def test_warmup_idempotent_and_prepare_warms(self):
        be = NumbaBackend(jit=False)
        assert not be._warm
        be.warmup()
        assert be._warm
        be.warmup()  # second call is a no-op
        be2 = NumbaBackend(jit=False)
        be2.prepare(stamped(stencil_spd(25, kind="cross", radius=1)))
        assert be2._warm


class TestProtectedReplays:
    """Whole-solve bit-identity through ``run_protected``.

    The solve stack — ABFT setup, fault injection, detection,
    rollback, accounting — runs the numba kernels for every product
    and must land on the byte-identical trajectory the reference
    backend produces.
    """

    def _replay(self, method, scheme, alpha, backend):
        a = stencil_spd(100, kind="cross", radius=1)
        b = make_rhs(a)
        cfg = SchemeConfig(scheme, checkpoint_interval=5)
        with np.errstate(all="ignore"):
            return run_ft_method(
                method, a, b, cfg, alpha=alpha, rng=17, eps=1e-8,
                backend=backend,
            )

    @pytest.mark.parametrize("method,scheme,alpha", [
        (Method.CG, Scheme.ABFT_CORRECTION, 0.0),
        (Method.CG, Scheme.ABFT_CORRECTION, 0.2),
        (Method.CG, Scheme.ABFT_DETECTION, 0.2),
        (Method.BICGSTAB, Scheme.ABFT_CORRECTION, 0.2),
    ], ids=lambda v: getattr(v, "value", v))
    def test_small_system_trajectories(self, py_backend, method, scheme, alpha):
        ref = self._replay(method, scheme, alpha, "reference")
        nb = self._replay(method, scheme, alpha, py_backend)
        assert (
            hashlib.sha256(np.ascontiguousarray(nb.x).tobytes()).hexdigest()
            == hashlib.sha256(np.ascontiguousarray(ref.x).tobytes()).hexdigest()
        )
        assert float(nb.time_units).hex() == float(ref.time_units).hex()
        assert float(nb.residual_norm).hex() == float(ref.residual_norm).hex()
        assert nb.iterations == ref.iterations
        assert nb.iterations_executed == ref.iterations_executed
        assert nb.counters.faults_injected == ref.counters.faults_injected
        assert nb.counters.rollbacks == ref.counters.rollbacks
        assert nb.counters.detections == ref.counters.detections


# ---------------------------------------------------------------------------
# golden-trajectory replays
# ---------------------------------------------------------------------------

#: One golden entry per (driver, scheme) pair — same dedup as the
#: reference-backend replays in test_resilience_golden.py.
_BACKEND_ENTRIES = list(
    {(e["driver"], e["scheme"]): e for e in _gold["entries"]}.values()
)

#: One cheap entry (68 executed iterations) for the interpreted mode:
#: the full grid at ~90x interpretation slowdown belongs behind numba.
_PY_MODE_ENTRY = next(
    e for e in _gold["entries"]
    if e["driver"] == "ft_cg" and e["scheme"] == "abft-correction"
    and e["seed"] == 42 and e["alpha"] == 0.1
)


def _entry_id(entry) -> str:
    return f"{entry['driver']}-{entry['scheme']}-a{entry['alpha']}-seed{entry['seed']}"


@pytest.fixture(scope="module")
def golden_problem():
    a = stencil_spd(529, kind="cross", radius=2)
    b = np.random.default_rng(_gold["rhs_seed"]).normal(size=a.nrows)
    return a, b


def _replay_golden(problem, entry, backend):
    a, b = problem
    cfg = SchemeConfig(
        Scheme(entry["scheme"]),
        checkpoint_interval=_gold["s"],
        verification_interval=entry["d"],
    )
    method = Method.CG if entry["driver"] == "ft_cg" else Method.BICGSTAB
    with np.errstate(all="ignore"):
        res = run_ft_method(
            method, a, b, cfg,
            alpha=entry["alpha"], rng=entry["seed"], eps=_gold["eps"],
            backend=backend,
        )
    want = entry["result"]
    x_sha = hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest()
    assert x_sha == want["x_sha256"]
    assert float(res.time_units).hex() == want["time_units"]
    assert float(res.residual_norm).hex() == want["residual_norm"]
    assert res.counters.rollbacks == want["counters"]["rollbacks"]
    assert res.counters.faults_injected == want["counters"]["faults_injected"]


def test_golden_replay_interpreted_numba(golden_problem, py_backend):
    """One golden trajectory through the interpreted numba kernels —
    always runs, so the transcription is pinned to the pre-refactor
    drivers even without the optional dependency."""
    _replay_golden(golden_problem, _PY_MODE_ENTRY, py_backend)


@pytest.mark.skipif(not numba_available(), reason="optional dependency "
                    "numba is not installed")
@pytest.mark.parametrize("entry", _BACKEND_ENTRIES, ids=_entry_id)
def test_golden_replay_compiled_numba(golden_problem, entry):
    """The full golden grid through the *compiled* kernels: the JIT
    (no fastmath, no reassociation) must produce the same bytes the
    interpreter does."""
    _replay_golden(golden_problem, entry, get_backend("numba"))
