"""nnz-balanced row partitioning.

Contiguous 1-D block-row partitions of a CSR matrix — equal row counts
(:func:`block_rows`) or balanced stored nonzeros
(:func:`partition_by_nnz`, the quantity that balances SpMxV work) —
with the communication-volume metrics of the partitioning literature
the paper cites.  The threaded kernel backend
(:mod:`repro.backends.threaded`) splits its products with them.
"""

from repro.parallel.partition import RowPartition, block_rows, partition_by_nnz

__all__ = ["RowPartition", "block_rows", "partition_by_nnz"]
