"""Sparse matrix–vector product kernels.

Two implementations of ``y = A @ x``:

- :func:`spmv` — the production kernel.  It reduces ``val * x[colid]``
  per row with :func:`numpy.add.reduceat`, which is the standard
  vectorization of a CSR row loop (see the scientific-python optimizing
  guide: vectorize the loop, avoid copies, operate on contiguous data).
- :func:`spmv_reference` — a pure-Python row loop that mirrors the
  paper's Algorithm 2 line-by-line.  It is the kernel the ABFT proofs
  reason about and is kept as the oracle the vectorized kernel is
  cross-checked against in the tests.

Both kernels read *exactly* the bytes stored in the CSR arrays: no
canonicalization, no duplicate folding.  That property is what lets the
fault-injection study corrupt ``Val``/``Colid``/``Rowidx`` and observe
the corruption flow into ``y``.

:func:`spmv` is also the dispatch point of the pluggable kernel axis:
``backend=`` hands the product to a registered
:class:`repro.backends.KernelBackend` (e.g. ``"scipy"``), which must
route guarded (non-``structure_clean``) matrices back here — the
wild-read emulation below is the single definition of the fault
physics.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["spmv", "spmv_reference"]


def spmv(
    a: CSRMatrix,
    x: np.ndarray,
    *,
    out: "np.ndarray | None" = None,
    scratch: "np.ndarray | None" = None,
    backend: "object | None" = None,
) -> np.ndarray:
    """Vectorized CSR SpMxV.

    Parameters
    ----------
    a:
        The matrix.  May be structurally corrupted (out-of-range column
        indices are clipped into range to emulate a wild read, matching
        what the reference kernel would fault on — see Notes).
    x:
        Dense input vector of length ``a.ncols``.
    out:
        Optional preallocated output vector (``float64``, length
        ``a.nrows``, must not alias ``x``).  Overwritten and returned.
    scratch:
        Optional preallocated ``float64`` buffer of at least ``a.nnz``
        elements for the per-nonzero products — the solver workspace
        passes one so the hot loop allocates nothing.
    backend:
        Optional kernel backend — a registered name (``"scipy"``,
        ``"dense"``) or a :class:`repro.backends.KernelBackend`
        instance.  ``None`` / ``"reference"`` runs this function's own
        kernel (the bit-identity default); any other backend receives
        the call verbatim and is contractually required to route
        non-``structure_clean`` matrices back here, so the fault
        physics below is backend-invariant.

    Notes
    -----
    When a bit flip corrupts ``colid`` or ``rowidx``, a C kernel would
    read out-of-bounds memory.  To keep the simulation memory-safe while
    still producing a *wrong* answer for ABFT to catch, indices are
    taken modulo the valid range.  A flag in the result is unnecessary:
    ABFT's checksums are the detection mechanism under study.

    When the matrix carries the
    :attr:`~repro.sparse.csr.CSRMatrix.structure_clean` stamp, the
    defensive work (``colid`` range scan, ``rowidx`` clipping and the
    monotone-segment guard) is skipped: the stamp certifies exactly the
    invariants those guards probe, so the result is bit-identical.
    """
    if backend is not None:
        if type(backend) is not str:
            # Hot path: the engine resolves names once and hands the
            # instance down, so per-product calls skip the registry
            # (the stock reference backend resolves to None upstream;
            # a reference *instance* passed here just round-trips).
            return backend.spmv(a, x, out=out, scratch=scratch)
        from repro.backends import resolve_backend

        be = resolve_backend(backend)
        if be is not None:
            return be.spmv(a, x, out=out, scratch=scratch)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
    n = a.nrows
    nnz = a.nnz
    if out is None:
        y = np.zeros(n, dtype=np.float64) if nnz == 0 else np.empty(n, dtype=np.float64)
    else:
        y = out
    if nnz == 0:
        if out is not None:
            y[:] = 0.0
        return y

    if a.structure_clean:
        # Fast path: indices certified in-range and monotone, so the
        # scan, the clips and the overshoot repair are all no-ops by
        # construction — same floats, none of the guard work.
        rowptr = a.rowidx
        with np.errstate(over="ignore", invalid="ignore"):
            if scratch is None:
                products = a.val * x[a.colid]
            else:
                # mode="clip" skips the per-element bounds check; the
                # structure_clean stamp guarantees it never clips.
                products = np.take(x, a.colid, out=scratch[:nnz], mode="clip")
                np.multiply(a.val, products, out=products)
        starts = rowptr[:-1]
        if a._rows_nonempty:  # hoisted with the stamp: no per-call guard
            np.add.reduceat(products, starts, out=y)
            return y
        y[:] = 0.0
        nonempty = rowptr[1:] > starts
        if nonempty.any():
            y[nonempty] = np.add.reduceat(products, starts[nonempty])
        return y
    y[:] = 0.0

    colid = a.colid
    # Memory-safe emulation of wild reads caused by corrupted indices.
    if colid.size and (colid.min() < 0 or colid.max() >= a.ncols):
        colid = np.mod(colid, a.ncols)
    # Corrupted values can overflow to ±inf — that is the silent error
    # propagating, not a kernel bug; ABFT flags the non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        products = a.val * x[colid]

    rowptr = a.rowidx
    starts = np.clip(rowptr[:-1], 0, a.nnz)
    ends = np.clip(rowptr[1:], 0, a.nnz)
    # reduceat needs monotone segments; a corrupted rowidx can violate
    # that, in which case we fall back to the (safe) reference loop.
    if np.all(starts[1:] >= starts[:-1]) and np.all(ends >= starts):
        nonempty = ends > starts
        if nonempty.any():
            seg = np.add.reduceat(products, starts[nonempty])
            # reduceat sums from each start to the next start; trim the
            # tail of each segment that spills past its row's end.
            ends_ne = ends[nonempty]
            starts_ne = starts[nonempty]
            next_starts = np.empty_like(starts_ne)
            next_starts[:-1] = starts_ne[1:]
            next_starts[-1] = a.nnz
            overshoot = next_starts - ends_ne
            if np.any(overshoot > 0):
                # rare (only for corrupted rowidx); correct per segment
                idx = np.nonzero(overshoot > 0)[0]
                for k in idx:
                    seg[k] = products[starts_ne[k] : ends_ne[k]].sum()
            y[nonempty] = seg
        return y
    looped = _spmv_loop(a.val, colid, rowptr, x, n, a.nnz)
    if out is None:
        return looped
    out[:] = looped
    return out


def _spmv_loop(
    val: np.ndarray,
    colid: np.ndarray,
    rowidx: np.ndarray,
    x: np.ndarray,
    n: int,
    nnz: int,
) -> np.ndarray:
    """Row-loop kernel tolerant of corrupted row pointers."""
    y = np.zeros(n, dtype=np.float64)
    # One vectorized clip + tolist instead of two np.clip scalar
    # dispatches per row; the per-row dot products are unchanged.
    bounds = np.clip(rowidx, 0, nnz).tolist()
    # A corrupted value can overflow a row's dot product to ±inf: the
    # silent error propagating, for ABFT to flag, not a kernel fault.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            lo = bounds[i]
            hi = bounds[i + 1]
            if hi > lo:
                y[i] = float(val[lo:hi] @ x[colid[lo:hi]])
    return y


def spmv_reference(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Pure-Python row-loop SpMxV mirroring Algorithm 2's inner loop.

    Used as the oracle in tests and by the line-by-line protected
    kernel; orders of magnitude slower than :func:`spmv`, so only call
    it on small matrices.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"x must have shape ({a.ncols},), got {x.shape}")
    n = a.nrows
    nnz = a.nnz
    y = np.zeros(n, dtype=np.float64)
    for i in range(n):
        yi = 0.0
        lo = int(np.clip(a.rowidx[i], 0, nnz))
        hi = int(np.clip(a.rowidx[i + 1], 0, nnz))
        for j in range(lo, hi):
            ind = int(a.colid[j]) % a.ncols
            yi += a.val[j] * x[ind]
        y[i] = yi
    return y
