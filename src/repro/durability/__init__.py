"""Durability: checkpoint + write-ahead log crash-restart recovery.

The paper's warehouse is a process that never dies; the production
runtime's warehouse is a process that *will*.  This package makes the
maintained view survive it:

* :mod:`repro.durability.checkpoint` -- :class:`ViewCheckpoint`
  serializes every hosted view's materialized state plus the protocol
  position (claimed vectors, delivered high-water marks, the pending
  update queue) using the codec-v2 flat-row encoding;
* :mod:`repro.durability.wal` -- :class:`UpdateLog`, an append-only log
  of every source update delivered since the last checkpoint
  (length-prefixed CRC-checked frames, fsync-on-batch,
  truncate-on-torn-tail);
* :mod:`repro.durability.recovery` -- :func:`load_state` /
  :func:`resume_warehouse` rebuild a warehouse from checkpoint + log
  replay and re-enter the protocol at the exact FIFO position;
* :mod:`repro.durability.manager` -- :class:`DurabilityManager` wires
  the hooks into a running warehouse and applies the checkpoint policy.

The recovery argument is the paper's own Section 4 argument: per-source
FIFO delivery is all SWEEP needs, and recovery preserves it -- replayed
updates stay *parked* until their source's position provably covers
them (a redelivered twin, a newer live update, or a ``PositionAnswer``
probe), then re-enter the queue in their original per-source order, so
every delivered-but-uninstalled update from a source is back in the
queue when that source's answer returns and local compensation stays
exact.
"""

from repro.durability.checkpoint import ViewCheckpoint
from repro.durability.errors import (
    CheckpointCorruptionError,
    DurabilityError,
    GenerationMismatchError,
    RecoveryError,
    SimulatedCrash,
    WalCorruptionError,
)
from repro.durability.manager import CheckpointPolicy, CrashPlan, DurabilityManager
from repro.durability.recovery import (
    RecoveredState,
    attach_durability,
    load_state,
    resume_warehouse,
    seed_standby_dir,
)
from repro.durability.wal import UpdateLog, read_update_log

__all__ = [
    "CheckpointCorruptionError",
    "CheckpointPolicy",
    "CrashPlan",
    "DurabilityError",
    "DurabilityManager",
    "GenerationMismatchError",
    "RecoveredState",
    "RecoveryError",
    "SimulatedCrash",
    "UpdateLog",
    "ViewCheckpoint",
    "WalCorruptionError",
    "attach_durability",
    "load_state",
    "read_update_log",
    "resume_warehouse",
    "seed_standby_dir",
]
