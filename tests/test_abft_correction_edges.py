"""Edge-case tests for the CORRECTERRORS decoder."""

import numpy as np
import pytest

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro.sparse import CSRMatrix


@pytest.fixture
def arrow():
    """An arrow matrix: row 0 dense-ish, one row with a single entry."""
    n = 30
    dense = np.zeros((n, n))
    dense[0, :] = -1.0
    dense[:, 0] = -1.0
    np.fill_diagonal(dense, n + 1.0)
    return CSRMatrix.from_dense(dense)


class TestBoundaryPositions:
    def test_val_error_first_entry(self, arrow, rng):
        cks = compute_checksums(arrow, nchecks=2)
        x = rng.normal(size=arrow.ncols)
        a = arrow.copy()
        a.val[0] += 2.0
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert a.equals(arrow)

    def test_val_error_last_entry(self, arrow, rng):
        cks = compute_checksums(arrow, nchecks=2)
        x = rng.normal(size=arrow.ncols)
        a = arrow.copy()
        a.val[a.nnz - 1] += 2.0
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert a.equals(arrow)

    def test_rowidx_error_first_interior_pointer(self, arrow, rng):
        cks = compute_checksums(arrow, nchecks=2)
        x = rng.normal(size=arrow.ncols)
        a = arrow.copy()
        a.rowidx[1] += 1
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert a.equals(arrow)

    def test_x_error_last_position(self, arrow, rng):
        cks = compute_checksums(arrow, nchecks=2)
        x = rng.normal(size=arrow.ncols)

        def hook(stage, aa, xx, yy):
            if stage == "pre":
                xx[-1] += 3.0

        xc = x.copy()
        res = protected_spmv(arrow, xc, cks, fault_hook=hook)
        assert res.status is SpmvStatus.CORRECTED
        np.testing.assert_allclose(xc, x, rtol=1e-9)

    def test_error_in_single_entry_row(self, rng):
        """A row with exactly one nonzero exercises the zC decode with
        the minimal candidate set."""
        n = 20
        dense = np.diag(np.arange(2.0, n + 2.0))
        dense[3, 7] = -1.0
        dense[7, 3] = -1.0
        a_clean = CSRMatrix.from_dense(dense)
        cks = compute_checksums(a_clean, nchecks=2)
        x = rng.normal(size=n)
        a = a_clean.copy()
        # Row 5 holds only the diagonal entry; corrupt it.
        lo = int(a.rowidx[5])
        a.val[lo] += 1.5
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.CORRECTED
        assert a.equals(a_clean)


class TestNearMissErrors:
    def test_colid_flip_within_row_is_caught_or_explicit(self, small_lap, rng):
        """Flipping a colid to *another existing column of the same row*
        creates a duplicate — decode may fix it or reject it, never pass
        silently."""
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        a = small_lap.copy()
        lo, hi = int(a.rowidx[100]), int(a.rowidx[101])
        assert hi - lo >= 2
        a.colid[lo] = a.colid[hi - 1]  # duplicate an existing column
        res = protected_spmv(a, x.copy(), cks)
        assert res.status in (SpmvStatus.CORRECTED, SpmvStatus.UNCORRECTABLE)

    def test_zero_delta_is_noop(self, small_lap, rng):
        """'Corruption' that doesn't change the value must not flag."""
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        a = small_lap.copy()
        a.val[5] += 0.0
        res = protected_spmv(a, x.copy(), cks)
        assert res.status is SpmvStatus.OK

    def test_nan_val_handled(self, small_lap, rng):
        cks = compute_checksums(small_lap, nchecks=2)
        x = rng.normal(size=small_lap.ncols)
        a = small_lap.copy()
        a.val[17] = np.nan
        res = protected_spmv(a, x.copy(), cks)
        # NaN poisons the row; either repaired via the checksum rebuild
        # or explicitly uncorrectable.
        assert res.status in (SpmvStatus.CORRECTED, SpmvStatus.UNCORRECTABLE)
        if res.status is SpmvStatus.CORRECTED:
            np.testing.assert_allclose(res.y, small_lap.matvec(x), rtol=1e-8)

    def test_x_strike_with_zero_column_weighting(self, rng):
        """x-error correction must work even when the struck entry's
        column in A is empty (y unaffected, dx silent, dxp catches)."""
        n = 25
        dense = np.diag(np.full(n, 3.0))
        dense[0, 1] = dense[1, 0] = -1.0
        a = CSRMatrix.from_dense(dense)
        # Column 10 of A has only the diagonal; zero it to make the
        # column empty while keeping SPD-ish structure for the test.
        dense2 = dense.copy()
        dense2[10, 10] = 0.0
        dense2[10, 11] = 1.0  # keep row 10 nonempty
        a = CSRMatrix.from_dense(dense2)
        cks = compute_checksums(a, nchecks=2)
        x = rng.normal(size=n)

        def hook(stage, aa, xx, yy):
            if stage == "pre":
                xx[10] += 2.0

        xc = x.copy()
        res = protected_spmv(a, xc, cks, fault_hook=hook)
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == "x"
        np.testing.assert_allclose(xc, x, rtol=1e-9)

    def test_rowidx_non_monotone_without_pointer_residual(self, arrow):
        """Three pointer strikes ``+t, −2t, +t`` on consecutive pointers
        cancel in both exact pointer checksums, so no rowidx residual
        trips, yet they leave ``rowidx`` non-monotone.  A second,
        computation error flags ``dx``; the column-checksum decode must
        then report the pointers uncorrectable (the engine rolls back)
        instead of crashing on a negative row length."""
        cks = compute_checksums(arrow, nchecks=2)
        a = arrow.copy()
        t = int(a.rowidx[3] - a.rowidx[1])
        a.rowidx[1] += t
        a.rowidx[2] -= 2 * t
        a.rowidx[3] += t
        assert np.any(np.diff(np.clip(a.rowidx, 0, a.nnz)) < 0)

        def hook(stage, aa, xx, yy):
            if stage == "post":
                yy[7] += 1.0

        # x = 0 keeps y blind to the pointer corruption, so only the
        # computation error shows in dx (and localizes to row 7).
        res = protected_spmv(a, np.zeros(arrow.ncols), cks, fault_hook=hook)
        assert not res.residuals.rowidx_flagged
        assert res.status is SpmvStatus.UNCORRECTABLE
        assert res.correction.detail == "rowidx non-monotone"


class TestMainEntry:
    def test_module_banner(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "table1" in out

    def test_module_forwards_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["table1", "--scale", "48", "--reps", "1", "--uids", "2213"]) == 0
        assert "2213" in capsys.readouterr().out
