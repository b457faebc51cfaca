"""1-D block-row partitioning of a CSR matrix.

Each rank (or thread) owns a contiguous block of rows and the matching
slice of the output vector.  Two partitioners are provided: equal row
counts, and nnz-balanced contiguous blocks (the quantity that actually
balances SpMxV work).  Communication-volume metrics follow the partitioning
literature the paper cites (Kaya, Uçar, Çatalyürek [24]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["RowPartition", "block_rows", "partition_by_nnz"]


@dataclass(frozen=True)
class RowPartition:
    """A contiguous row partition of a matrix over ``p`` ranks.

    ``bounds`` has ``p + 1`` entries; rank ``r`` owns rows
    ``[bounds[r], bounds[r+1])``.
    """

    bounds: tuple[int, ...]

    @property
    def nparts(self) -> int:
        """Number of ranks."""
        return len(self.bounds) - 1

    def rows_of(self, rank: int) -> tuple[int, int]:
        """Row range ``(lo, hi)`` owned by ``rank``."""
        return self.bounds[rank], self.bounds[rank + 1]

    def owner_of(self, row: int) -> int:
        """Rank owning a global row index."""
        r = int(np.searchsorted(self.bounds, row, side="right")) - 1
        if not 0 <= r < self.nparts:
            raise IndexError(f"row {row} outside partition bounds {self.bounds}")
        return r

    def local_block(self, a: CSRMatrix, rank: int) -> CSRMatrix:
        """Extract rank's rectangular ``(hi−lo) × n`` CSR block.

        The block's arrays are fresh copies: each simulated rank owns
        its memory, so per-rank fault injection stays local.
        """
        lo, hi = self.rows_of(rank)
        start, stop = int(a.rowidx[lo]), int(a.rowidx[hi])
        return CSRMatrix(
            a.val[start:stop].copy(),
            a.colid[start:stop].copy(),
            (a.rowidx[lo : hi + 1] - a.rowidx[lo]).copy(),
            (hi - lo, a.ncols),
        )

    def slice_vector(self, x: np.ndarray, rank: int) -> np.ndarray:
        """Rank's slice of a row-distributed vector (copy)."""
        lo, hi = self.rows_of(rank)
        return np.array(x[lo:hi], copy=True)

    def communication_volume(self, a: CSRMatrix) -> int:
        """Words of x that must cross rank boundaries (p2p model).

        For each rank, the x entries it *reads* (column support of its
        block) that it does not *own*.  An allgather implementation
        moves more; this metric is the partition-quality lower bound
        reported in the literature.
        """
        total = 0
        for r in range(self.nparts):
            lo, hi = self.rows_of(r)
            start, stop = int(a.rowidx[lo]), int(a.rowidx[hi])
            cols = np.unique(a.colid[start:stop])
            total += int(np.count_nonzero((cols < lo) | (cols >= hi)))
        return total


def block_rows(n: int, p: int) -> RowPartition:
    """Equal-row-count contiguous partition of ``n`` rows over ``p`` ranks."""
    if p < 1 or p > n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    bounds = np.linspace(0, n, p + 1).astype(int)
    return RowPartition(bounds=tuple(int(b) for b in bounds))


def partition_by_nnz(a: CSRMatrix, p: int) -> RowPartition:
    """Contiguous partition balancing nonzeros per rank.

    Greedy split of the prefix-nnz curve into ``p`` equal arcs — the
    standard 1-D balanced-chains heuristic.
    """
    n = a.nrows
    if p < 1 or p > n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    target = a.nnz / p
    bounds = [0]
    for r in range(1, p):
        cut = int(np.searchsorted(a.rowidx, r * target, side="left"))
        cut = max(bounds[-1] + 1, min(cut, n - (p - r)))
        bounds.append(cut)
    bounds.append(n)
    return RowPartition(bounds=tuple(bounds))
