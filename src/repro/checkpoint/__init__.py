"""Backward recovery: in-memory checkpointing of solver state.

The paper's schemes checkpoint the CG iteration vectors **and the
sparse matrix** (the extension to Chen's method described in Section
3.1): a detected memory error may have corrupted ``A`` itself, so
recovery must restore a valid copy of the matrix too.  A checkpoint is
taken only right after a successful verification, which is what makes
the last checkpoint always valid.  Checkpoints live in memory
(:class:`CheckpointStore`); the resilience engine stages them and
rolls back to them.
"""

from repro.checkpoint.store import Checkpoint, CheckpointStore
from repro.checkpoint.policy import PeriodicCheckpointPolicy

__all__ = ["Checkpoint", "CheckpointStore", "PeriodicCheckpointPolicy"]
