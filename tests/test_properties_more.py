"""Additional property-based tests: checkpointing, partitioning, faults."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro.checkpoint import CheckpointStore, PeriodicCheckpointPolicy
from repro.faults.bitflip import flip_bit_float64, flip_bit_int64
from repro.parallel import block_rows, partition_by_nnz
from repro.sparse import CSRMatrix, spmv


# ----------------------------------------------------------------------
# bit flips are involutions and always change the representation
# ----------------------------------------------------------------------
@given(
    value=st.floats(allow_nan=False, allow_infinity=False, width=64),
    bit=st.integers(0, 63),
)
@settings(max_examples=200, deadline=None)
def test_float_flip_involution(value, bit):
    flipped = flip_bit_float64(value, bit)
    back = flip_bit_float64(flipped, bit)
    assert np.float64(back).view(np.uint64) == np.float64(value).view(np.uint64)


@given(value=st.integers(-(2**62), 2**62), bit=st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_int_flip_involution_and_change(value, bit):
    flipped = flip_bit_int64(value, bit)
    assert flipped != value
    assert flip_bit_int64(flipped, bit) == value


# ----------------------------------------------------------------------
# checkpoint store: restore always returns exactly what was saved
# ----------------------------------------------------------------------
@given(
    n=st.integers(1, 30),
    iteration=st.integers(0, 10**6),
    seed=st.integers(0, 2**31 - 1),
    keep=st.integers(1, 4),
    extra_saves=st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_checkpoint_roundtrip(n, iteration, seed, keep, extra_saves):
    rng = np.random.default_rng(seed)
    store = CheckpointStore(keep=keep)
    last = None
    for i in range(extra_saves + 1):
        vecs = {"x": rng.normal(size=n), "r": rng.normal(size=n)}
        scal = {"rr": float(rng.normal())}
        store.save(iteration + i, vecs, scalars=scal)
        last = (dict(vecs), dict(scal), iteration + i)
    cp = store.restore()
    vecs, scal, it = last
    assert cp.iteration == it
    assert cp.scalars == scal
    for k in vecs:
        np.testing.assert_array_equal(cp.vectors[k], vecs[k])


@given(interval=st.integers(1, 20), chunks=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_policy_checkpoint_count(interval, chunks):
    policy = PeriodicCheckpointPolicy(interval)
    hits = sum(policy.chunk_verified() for _ in range(chunks))
    assert hits == chunks // interval


# ----------------------------------------------------------------------
# partitioning: blocks always reassemble the matrix exactly
# ----------------------------------------------------------------------
@st.composite
def matrix_and_parts(draw):
    n = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    p = draw(st.integers(1, min(6, n)))
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < 0.3, rng.normal(size=(n, n)), 0.0)
    return CSRMatrix.from_dense(dense), p


@given(matrix_and_parts())
@settings(max_examples=50, deadline=None)
def test_partition_reassembles(data):
    a, p = data
    for part in (block_rows(a.nrows, p), partition_by_nnz(a, p)):
        assert part.bounds[0] == 0 and part.bounds[-1] == a.nrows
        pieces = [part.local_block(a, r).to_dense() for r in range(p)]
        np.testing.assert_array_equal(np.vstack(pieces), a.to_dense())


@given(matrix_and_parts())
@settings(max_examples=50, deadline=None)
def test_distributed_product_equals_sequential(data):
    """Row blocks each verified by their own checksums reassemble the
    sequential product."""
    a, p = data
    x = np.random.default_rng(1).normal(size=a.ncols)
    part = partition_by_nnz(a, p)
    pieces = []
    for r in range(p):
        blk = part.local_block(a, r)
        res = protected_spmv(blk, x.copy(), compute_checksums(blk, nchecks=2))
        assert res.status is SpmvStatus.OK
        pieces.append(res.y)
    np.testing.assert_allclose(np.concatenate(pieces), spmv(a, x), rtol=1e-10, atol=1e-12)


# ----------------------------------------------------------------------
# DP placement never loses to any uniform policy
# ----------------------------------------------------------------------
@given(
    n=st.integers(2, 40),
    q=st.floats(0.5, 0.999),
    tcp=st.floats(0.1, 3.0),
    tv=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_dp_dominates_uniform(n, q, tcp, tv):
    from repro.model import expected_frame_time, optimal_checkpoint_positions

    dp = optimal_checkpoint_positions(n, 1.0, q, tcp, 1.0, tv)
    for s in range(1, n + 1):
        frames, rem = divmod(n, s)
        uniform = frames * expected_frame_time(s, 1.0, tcp, 1.0, tv, q)
        if rem:
            uniform += expected_frame_time(rem, 1.0, tcp, 1.0, tv, q)
        assert dp.expected_time <= uniform + 1e-9
