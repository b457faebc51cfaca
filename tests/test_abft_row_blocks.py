"""ABFT on row blocks: each rank's rectangular block protected on its own.

In a 1-D row-distributed SpMxV every rank multiplies its
``(hi − lo) × n`` block by the full input vector.  The checksum scheme
applies unchanged to rectangular blocks, so each rank detects and
corrects its own single error: a local repair is a global repair, and
the single-error budget is per block rather than per product.
"""

import numpy as np
import pytest

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro.parallel import block_rows, partition_by_nnz

PARTITIONERS = {
    "rows": lambda a, p: block_rows(a.nrows, p),
    "nnz": partition_by_nnz,
}


def blocks_of(a, p, how="nnz"):
    """The partition, each rank's block and its two-row checksums."""
    part = PARTITIONERS[how](a, p)
    blocks = [part.local_block(a, r) for r in range(p)]
    return part, blocks, [compute_checksums(b, nchecks=2) for b in blocks]


def protected_blocks(blocks, checks, x, *, hooks=None, correct=True):
    """Run every rank's protected product; returns the per-rank results."""
    hooks = hooks or {}
    return [
        protected_spmv(b, x.copy(), c, correct=correct, fault_hook=hooks.get(r))
        for r, (b, c) in enumerate(zip(blocks, checks))
    ]


def val_hook(*positions, delta=2.0):
    def hook(stage, blk, _x, _y):
        if stage == "pre":
            for pos in positions:
                blk.val[pos] += delta

    return hook


class TestCleanBlocks:
    @pytest.mark.parametrize("how", sorted(PARTITIONERS))
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_concatenated_blocks_match_sequential(self, small_lap, xvec, how, p):
        _, blocks, checks = blocks_of(small_lap, p, how)
        results = protected_blocks(blocks, checks, xvec)
        assert all(r.status is SpmvStatus.OK for r in results)
        np.testing.assert_allclose(
            np.concatenate([r.y for r in results]), small_lap.matvec(xvec), rtol=1e-12
        )

    def test_block_checksums_are_rectangular(self, small_lap):
        part, blocks, checks = blocks_of(small_lap, 4)
        for r, (b, c) in enumerate(zip(blocks, checks)):
            lo, hi = part.rows_of(r)
            assert b.shape == (hi - lo, small_lap.ncols)
            assert not c.is_square
            assert c.column_checksums.shape == (2, small_lap.ncols)

    def test_checksums_reusable_across_inputs(self, small_lap, rng):
        _, blocks, checks = blocks_of(small_lap, 4)
        for _ in range(3):
            x = rng.normal(size=small_lap.ncols)
            assert all(r.status is SpmvStatus.OK for r in protected_blocks(blocks, checks, x))

    def test_nonsymmetric_matrix(self, small_spd, rng):
        a = small_spd.copy()
        a.val[:] = rng.normal(size=a.nnz)  # same pattern, no symmetry
        x = rng.normal(size=a.ncols)
        _, blocks, checks = blocks_of(a, 5)
        results = protected_blocks(blocks, checks, x)
        assert all(r.status is SpmvStatus.OK for r in results)
        np.testing.assert_allclose(np.concatenate([r.y for r in results]), a.matvec(x), rtol=1e-12)


class TestLocalRecovery:
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_local_val_error_corrected(self, small_lap, xvec, rank):
        _, blocks, checks = blocks_of(small_lap, 4)
        pristine = blocks[rank].copy()
        results = protected_blocks(blocks, checks, xvec, hooks={rank: val_hook(5, delta=3.0)})
        statuses = [r.status for r in results]
        assert statuses.count(SpmvStatus.CORRECTED) == 1
        assert statuses[rank] is SpmvStatus.CORRECTED
        assert results[rank].correction.kind == "val"
        assert blocks[rank].equals(pristine)
        np.testing.assert_allclose(
            np.concatenate([r.y for r in results]), small_lap.matvec(xvec), rtol=1e-9
        )

    def test_one_error_per_rank_all_corrected(self, small_lap, xvec):
        _, blocks, checks = blocks_of(small_lap, 4)
        hooks = {0: val_hook(3), 2: val_hook(8), 3: val_hook(40)}
        results = protected_blocks(blocks, checks, xvec, hooks=hooks)
        assert [r.status for r in results] == [
            SpmvStatus.CORRECTED,
            SpmvStatus.OK,
            SpmvStatus.CORRECTED,
            SpmvStatus.CORRECTED,
        ]
        np.testing.assert_allclose(
            np.concatenate([r.y for r in results]), small_lap.matvec(xvec), rtol=1e-9
        )

    def test_per_block_budget_beats_global_budget(self, small_lap, checks2, xvec):
        """The same two errors defeat one global checksum pair but are
        two independent single errors for two ranks."""
        part, blocks, checks = blocks_of(small_lap, 2)
        lo1 = int(small_lap.rowidx[part.rows_of(1)[0]])
        a = small_lap.copy()
        a.val[[3, lo1 + 3]] += 2.0
        assert protected_spmv(a, xvec.copy(), checks2).status is SpmvStatus.UNCORRECTABLE
        results = protected_blocks(blocks, checks, xvec, hooks={0: val_hook(3), 1: val_hook(3)})
        assert [r.status for r in results] == [SpmvStatus.CORRECTED] * 2

    def test_double_error_in_one_rank_uncorrectable(self, small_lap, xvec):
        _, blocks, checks = blocks_of(small_lap, 4)
        results = protected_blocks(blocks, checks, xvec, hooks={2: val_hook(3, 40)})
        assert results[2].status is SpmvStatus.UNCORRECTABLE
        assert not results[2].trusted
        assert all(r.status is SpmvStatus.OK for i, r in enumerate(results) if i != 2)

    def test_detection_only_mode(self, small_lap, xvec):
        part = partition_by_nnz(small_lap, 3)
        blocks = [part.local_block(small_lap, r) for r in range(3)]
        checks = [compute_checksums(b, nchecks=1) for b in blocks]
        results = protected_blocks(blocks, checks, xvec, hooks={0: val_hook(0)}, correct=False)
        assert [r.status for r in results] == [SpmvStatus.DETECTED, SpmvStatus.OK, SpmvStatus.OK]

    def test_local_x_error_corrected(self, small_lap, xvec):
        """A rank's received copy of x is checked by its block's
        shifted input test, even for entries the block never reads."""
        _, blocks, checks = blocks_of(small_lap, 4)

        def hook(stage, _blk, xx, _y):
            if stage == "pre":
                xx[17] += 4.0

        results = protected_blocks(blocks, checks, xvec, hooks={3: hook})
        assert results[3].status is SpmvStatus.CORRECTED
        np.testing.assert_allclose(
            np.concatenate([r.y for r in results]), small_lap.matvec(xvec), rtol=1e-9
        )

    def test_local_colid_error_corrected(self, small_lap, xvec):
        _, blocks, checks = blocks_of(small_lap, 4)
        blk = blocks[1]
        original = int(blk.colid[10])
        blk.colid[10] = (original + 7) % blk.ncols
        res = protected_spmv(blk, xvec.copy(), checks[1])
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == "colid"
        assert int(blk.colid[10]) == original

    def test_local_rowidx_error_corrected(self, small_lap, xvec):
        _, blocks, checks = blocks_of(small_lap, 4)
        blk = blocks[2]
        pristine = blk.copy()
        blk.rowidx[12] += 1
        res = protected_spmv(blk, xvec.copy(), checks[2])
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == "rowidx"
        assert blk.equals(pristine)

    def test_output_error_corrected(self, small_lap, xvec):
        part, blocks, checks = blocks_of(small_lap, 4)

        def hook(stage, _blk, _x, y):
            if stage == "post":
                y[6] += 1.5

        results = protected_blocks(blocks, checks, xvec, hooks={1: hook})
        assert results[1].status is SpmvStatus.CORRECTED
        lo, hi = part.rows_of(1)
        np.testing.assert_allclose(results[1].y, small_lap.matvec(xvec)[lo:hi], rtol=1e-9)
