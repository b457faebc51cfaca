"""Fault-physics floating-point warnings stay inside the library.

A flipped exponent bit can push a value to ~1e300, after which products
and norms overflow to inf.  That is the silent error under study — the
ABFT checksums, Chen's tests and the reliable residual check turn it
into a detection — not a numerical accident to report, so no
``RuntimeWarning`` may reach the caller.  Every test here runs with
``RuntimeWarning`` promoted to an error.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import warnings

import numpy as np
import pytest

from repro.core import Scheme, SchemeConfig
from repro.core.methods import Method
from repro.core.stability import chen_verify
from repro.perf import SolveWorkspace
from repro.resilience.engine import _reliable_residual_norm
from repro.resilience.registry import run_ft_method
from repro.sparse import CSRMatrix, spmv, stencil_spd

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ft_trajectories.json"


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def test_row_loop_kernel_overflow_is_silent():
    """A non-monotone ``rowidx`` forces the row-loop kernel; a huge
    value in a row overflows its dot product to inf."""
    dense = np.diag([4.0, 4.0, 4.0, 4.0])
    dense[1, 2] = 1e308
    a = CSRMatrix.from_dense(dense)
    a.rowidx[2] = 0  # non-monotone: the reduceat path cannot be used
    y = spmv(a, np.full(4, 10.0))
    assert not np.all(np.isfinite(y))


def test_chen_tests_overflow_is_a_failed_verification(stencil):
    b = np.ones(stencil.nrows)
    huge = np.full(stencil.nrows, 1e300)
    report = chen_verify(stencil, b, huge, huge, huge, huge)
    assert not report.passed


def test_reliable_residual_norm_overflows_to_inf(stencil):
    norm = _reliable_residual_norm(stencil, np.ones(stencil.nrows),
                                   np.full(stencil.nrows, 1e300), None)
    assert norm == np.inf


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("workspace", [False, True])
def test_overflowing_solve_leaks_no_warning(seed, workspace):
    """The golden ONLINE-DETECTION points at α = 0.3 overflow Chen's
    norms and the row-loop kernel many times per solve; they must run
    warning-free and still reproduce their golden trajectory."""
    gold = json.loads(GOLDEN.read_text())
    (entry,) = [
        e for e in gold["entries"]
        if e["driver"] == "ft_cg" and e["scheme"] == "online-detection"
        and e["alpha"] == 0.3 and e["seed"] == seed
    ]
    a = stencil_spd(529, kind="cross", radius=2)
    b = np.random.default_rng(gold["rhs_seed"]).normal(size=a.nrows)
    cfg = SchemeConfig(
        Scheme.ONLINE_DETECTION, checkpoint_interval=gold["s"], verification_interval=entry["d"]
    )
    res = run_ft_method(
        Method.CG, a, b, cfg, alpha=0.3, rng=seed, eps=gold["eps"],
        workspace=SolveWorkspace() if workspace else None,
    )
    want = entry["result"]
    assert hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest() == want["x_sha256"]
    assert float(res.time_units).hex() == want["time_units"]
