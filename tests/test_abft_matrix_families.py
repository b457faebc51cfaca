"""Algorithm 2 across matrix families: no false positives, every single
error corrected, and the live matrix healed for the next product.

The decode-path tests elsewhere use one 2-D Laplacian.  Theorem 1's
guarantee does not depend on the sparsity pattern, so the same checks
run here on every generator family the experiments draw from: 3-D and
anisotropic stencils, banded, random, graph-Laplacian and box-stencil
matrices, whose column sums, row lengths and value ranges differ.
"""

import numpy as np
import pytest

from repro.abft import SpmvStatus, compute_checksums, protected_spmv
from repro.sparse import (
    anisotropic_2d,
    banded_spd,
    graph_laplacian_spd,
    laplacian_2d,
    laplacian_3d,
    random_spd,
    stencil_spd,
)

_BUILDERS = {
    "laplacian_2d": lambda: laplacian_2d(12),
    "laplacian_3d": lambda: laplacian_3d(5),
    "anisotropic_2d": lambda: anisotropic_2d(12, eps=0.01),
    "banded": lambda: banded_spd(150, 4, seed=1),
    "random": lambda: random_spd(150, 0.05, seed=2),
    "graph_laplacian": lambda: graph_laplacian_spd(150, seed=3),
    "box_stencil": lambda: stencil_spd(169, kind="box"),
}
FAMILIES = sorted(_BUILDERS)

#: Single-error locations of Algorithm 2 and the decoder's name for each.
KINDS = {"val": "val", "colid": "colid", "rowidx": "rowidx", "x": "x", "y": "computation"}


@pytest.fixture(scope="module")
def systems():
    """family → (matrix, detect-2/correct-1 checksums, detect-1 checksums, x)."""
    out = {}
    for i, name in enumerate(FAMILIES):
        a = _BUILDERS[name]()
        x = np.random.default_rng(100 + i).normal(size=a.ncols)
        out[name] = (a, compute_checksums(a, nchecks=2), compute_checksums(a, nchecks=1), x)
    return out


def strike(kind, a, rng):
    """Corrupt one word of ``a`` (matrix kinds, in place) or return a
    fault hook that corrupts ``x`` before or ``y`` after the product."""
    if kind == "val":
        pos = int(rng.integers(a.nnz))
        a.val[pos] += 1.0 + abs(a.val[pos])
    elif kind == "colid":
        row = int(rng.integers(a.nrows))
        pos = int(a.rowidx[row])
        a.colid[pos] = (int(a.colid[pos]) + 1 + int(rng.integers(a.ncols - 1))) % a.ncols
    elif kind == "rowidx":
        a.rowidx[1 + int(rng.integers(a.nrows - 1))] += 1
    else:
        pos = int(rng.integers(a.nrows))
        stage = "pre" if kind == "x" else "post"

        def hook(at, _a, xx, y):
            if at == stage:
                (xx if kind == "x" else y)[pos] += 2.5

        return hook
    return None


class TestNoFalsePositives:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_clean_product_passes_both_modes(self, systems, family):
        a, cks2, cks1, x = systems[family]
        for cks, correct in ((cks2, True), (cks1, False)):
            res = protected_spmv(a, x.copy(), cks, correct=correct)
            assert res.status is SpmvStatus.OK
            np.testing.assert_array_equal(res.y, a.matvec(x))

    @pytest.mark.parametrize("exponent", [-6, -3, 0, 3, 6])
    def test_clean_across_input_scales(self, systems, exponent):
        rng = np.random.default_rng(exponent + 10)
        for family in FAMILIES:
            a, cks2, _, _ = systems[family]
            for _ in range(3):
                x = rng.normal(size=a.ncols) * 10.0**exponent
                assert protected_spmv(a, x, cks2).status is SpmvStatus.OK, family

    def test_caller_matrix_untouched_by_clean_products(self, systems):
        a, cks2, _, x = systems["random"]
        snapshot = a.copy()
        for _ in range(3):
            protected_spmv(a, x.copy(), cks2)
        assert a.equals(snapshot)


class TestSingleErrorCorrected:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_repaired_to_clean_product(self, systems, family, kind):
        clean, cks2, _, x = systems[family]
        a = clean.copy()
        hook = strike(kind, a, np.random.default_rng(FAMILIES.index(family)))
        xx = x.copy()
        res = protected_spmv(a, xx, cks2, fault_hook=hook)
        assert res.status is SpmvStatus.CORRECTED
        assert res.correction.kind == KINDS[kind]
        np.testing.assert_array_equal(a.colid, clean.colid)
        np.testing.assert_array_equal(a.rowidx, clean.rowidx)
        # A value is restored by checksum arithmetic: exact up to rounding.
        np.testing.assert_allclose(a.val, clean.val, rtol=1e-9)
        np.testing.assert_allclose(xx, x, rtol=1e-9)
        np.testing.assert_allclose(res.y, clean.matvec(x), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind", ["val", "colid", "rowidx"])
    def test_healed_matrix_verifies_clean_next(self, systems, kind):
        clean, cks2, _, x = systems["graph_laplacian"]
        a = clean.copy()
        strike(kind, a, np.random.default_rng(9))
        assert protected_spmv(a, x.copy(), cks2).status is SpmvStatus.CORRECTED
        assert protected_spmv(a, x.copy(), cks2).status is SpmvStatus.OK


class TestDoubleErrors:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_two_val_errors_never_silently_pass(self, systems, family):
        clean, cks2, cks1, x = systems[family]
        for cks, correct, expected in (
            (cks2, True, SpmvStatus.UNCORRECTABLE),
            (cks1, False, SpmvStatus.DETECTED),
        ):
            a = clean.copy()
            a.val[[1, a.nnz - 2]] += [1.0, -2.0]
            assert protected_spmv(a, x.copy(), cks, correct=correct).status is expected
