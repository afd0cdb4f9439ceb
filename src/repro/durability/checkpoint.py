"""Checkpoint files: one view-state + protocol-position snapshot per generation.

A checkpoint is written only at a *stable point* -- after an install
completes and before the next queued update is popped -- so it never has
to serialize a half-finished sweep.  What it must carry instead is the
exact protocol position:

* ``applied_counts`` -- the claimed vector ``V0``: per source, how many
  updates the stored view contents reflect (sequence numbers are dense,
  so this doubles as the highest installed ``seq`` per source);
* ``delivered_marks`` -- per source, the highest ``seq`` delivered to
  this warehouse (logged or pending), the FIFO resume position: a
  redelivered update at or below the mark is a duplicate;
* ``pending`` -- every delivered-but-uninstalled update, in delivery
  order (the ``UpdateMessageQueue`` plus any update still in the inbox);
* ``request_watermark`` -- a request-id fence; answers to queries issued
  before the crash carry ids at or below it and are dropped on replay.

Files are written atomically (tmp + fsync + rename), carry a CRC over
the canonical body, and are named by generation; the matching WAL
(``update-<generation>.wal``) records deliveries after the checkpoint.

The envelope ``{"format": 2, "crc", "body"}`` is a binwire document (the
shared binary kernel codec v3 uses on the wire -- see
:mod:`repro.runtime.binwire`) whose ``body`` is a nested binwire document
carried as bytes, with the CRC over exactly those bytes.  Anything else,
such as a JSON envelope of the retired format 1, fails
:meth:`ViewCheckpoint.load` with :class:`CheckpointCorruptionError`.  The
``.json`` filename is kept (the generation glob patterns are part of the
on-disk contract).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

from repro.durability.encoding import encode_bag, encode_notice
from repro.durability.errors import CheckpointCorruptionError

_CHECKPOINT_FORMAT = 2


def _binwire():
    # NOTE: imported lazily -- a module-level import of repro.runtime
    # from the durability package would close the package import cycle
    # (runtime -> distributed -> harness -> warehouse -> durability).
    from repro.runtime import binwire

    return binwire


def checkpoint_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"checkpoint-{generation:08d}.json")


def checkpoint_generations(directory: str) -> list[int]:
    """Generations with a checkpoint file present, ascending."""
    found = []
    for name in os.listdir(directory):
        if name.startswith("checkpoint-") and name.endswith(".json"):
            try:
                found.append(int(name[len("checkpoint-") : -len(".json")]))
            except ValueError:
                continue
    return sorted(found)


@dataclass
class ViewCheckpoint:
    """Durable image of one warehouse at a stable point."""

    generation: int
    applied_counts: dict[int, int]
    delivered_marks: dict[int, int]
    views: dict[str, dict]  # view name -> encoded v2 flat rows
    pending: list[dict] = field(default_factory=list)  # encoded notices
    #: source name -> encoded auxiliary copy (locality layer); absent in
    #: pre-locality checkpoints, which decode to an empty dict.
    aux: dict[str, dict] = field(default_factory=dict)
    installs: int = 0
    request_watermark: int = 0
    written_at: float = 0.0

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "generation": self.generation,
            "applied_counts": {str(k): v for k, v in self.applied_counts.items()},
            "delivered_marks": {
                str(k): v for k, v in self.delivered_marks.items()
            },
            "views": self.views,
            "pending": self.pending,
            "aux": self.aux,
            "installs": self.installs,
            "request_watermark": self.request_watermark,
            "written_at": self.written_at,
        }

    @classmethod
    def from_json(cls, body: dict) -> "ViewCheckpoint":
        return cls(
            generation=int(body["generation"]),
            applied_counts={
                int(k): int(v) for k, v in body["applied_counts"].items()
            },
            delivered_marks={
                int(k): int(v) for k, v in body["delivered_marks"].items()
            },
            views=dict(body["views"]),
            pending=list(body.get("pending", ())),
            aux=dict(body.get("aux", {})),
            installs=int(body.get("installs", 0)),
            request_watermark=int(body.get("request_watermark", 0)),
            written_at=float(body.get("written_at", 0.0)),
        )

    # ------------------------------------------------------------------
    def write(self, directory: str) -> str:
        """Atomic write: tmp file, fsync, rename over the final name.

        On POSIX a crash can leave a stale tmp file but never a torn
        file under the final name, which is why recovery may treat any
        present checkpoint as all-or-nothing.
        """
        dumps = _binwire().dumps
        body_bytes = dumps(self.to_json())
        blob = dumps(
            {
                "format": _CHECKPOINT_FORMAT,
                "crc": zlib.crc32(body_bytes),
                "body": body_bytes,
            }
        )
        final = checkpoint_path(directory, self.generation)
        tmp = final + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        return final

    @classmethod
    def load(cls, path: str) -> "ViewCheckpoint":
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            binwire = _binwire()
            envelope = binwire.loads(blob)
            if int(envelope.get("format", 0)) != _CHECKPOINT_FORMAT:
                raise CheckpointCorruptionError(
                    f"{path}: unsupported checkpoint format"
                    f" {envelope.get('format')!r}"
                )
            body_bytes = envelope["body"]
            if zlib.crc32(body_bytes) != int(envelope["crc"]):
                raise CheckpointCorruptionError(f"{path}: body fails CRC")
            return cls.from_json(binwire.loads(body_bytes))
        except CheckpointCorruptionError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorruptionError(
                f"{path}: unreadable checkpoint: {exc}"
            ) from exc

    @classmethod
    def load_latest(
        cls, directory: str
    ) -> "tuple[int, ViewCheckpoint] | None":
        """The newest checkpoint in ``directory``, or None if there is none.

        A corrupt *newest* checkpoint raises rather than silently falling
        back to an older generation: the newer WAL would then be
        unreplayable and the served view silently stale.
        """
        generations = checkpoint_generations(directory)
        if not generations:
            return None
        newest = generations[-1]
        return newest, cls.load(checkpoint_path(directory, newest))


def capture_checkpoint(
    warehouse,
    generation: int,
    delivered_marks: dict[int, int],
    parked=(),
) -> ViewCheckpoint:
    """Snapshot a quiescent warehouse's durable image.

    Must be called at a stable point: the previous update/batch fully
    installed (all views), no sweep in flight, no unconsumed answers.
    ``pending`` captures recovery-``parked`` updates first (the oldest
    deliveries, still awaiting source-position confirmation), then the
    update queue, then any updates already in the inbox but not yet
    dispatched.  Redelivered twins of an already-captured (or already
    installed) update are skipped so no sequence number appears twice.
    """
    from repro.sources.messages import next_request_id

    stores = getattr(warehouse, "stores", None) or {
        warehouse.view.name: warehouse.store
    }
    applied = warehouse.applied_counts
    seen: set = set()
    pending = []
    for notice in parked:
        seen.add((notice.source_index, notice.seq))
        pending.append(encode_notice(notice))
    live = list(warehouse.update_queue.peek_all())
    live.extend(
        msg for msg in warehouse.inbox.peek_all() if msg.kind == "update"
    )
    for msg in live:
        notice = msg.payload
        key = (notice.source_index, notice.seq)
        if key in seen or notice.seq <= applied.get(notice.source_index, 0):
            continue
        seen.add(key)
        pending.append(encode_notice(notice))
    locality = getattr(warehouse, "locality", None)
    aux = (
        {name: encode_bag(rel) for name, rel in locality.aux_relations().items()}
        if locality is not None
        else {}
    )
    return ViewCheckpoint(
        generation=generation,
        applied_counts=dict(warehouse.applied_counts),
        delivered_marks=dict(delivered_marks),
        views={
            name: encode_bag(store.relation) for name, store in stores.items()
        },
        pending=pending,
        aux=aux,
        installs=warehouse.store.installs,
        request_watermark=next_request_id(),
        written_at=warehouse.sim.now,
    )


#: Envelope tag for a shard-rebalance view handoff (same binwire kernel
#: and CRC discipline as a format-2 checkpoint, different payload shape).
HANDOFF_FORMAT = 3


def encode_view_handoff(
    view_name: str,
    position: dict[int, int],
    relation,
    aux: dict[str, object] | None = None,
    epoch: int = 0,
) -> bytes:
    """Serialize one view's migration handoff as a binwire envelope.

    The body carries the view's contents (codec-v2 flat rows, the same
    ``encode_bag`` the checkpoint writer uses), the per-source position
    vector the contents reflect (the donor's seal snapshot ``P``), and
    the donor's auxiliary source copies so a locality-enabled recipient
    can adopt rather than rebuild them.  CRC and format tagging mirror
    :meth:`ViewCheckpoint.write` so a torn or corrupt handoff is caught
    at decode time, not as a silently wrong view.
    """
    body = {
        "view": view_name,
        "position": {str(k): int(v) for k, v in position.items()},
        "rows": encode_bag(relation),
        "aux": {
            name: encode_bag(rel) for name, rel in (aux or {}).items()
        },
        "epoch": int(epoch),
    }
    body_bytes = _binwire().dumps(body)
    return _binwire().dumps(
        {
            "format": HANDOFF_FORMAT,
            "crc": zlib.crc32(body_bytes),
            "body": body_bytes,
        }
    )


def decode_view_handoff(blob: bytes) -> dict:
    """Decode and verify a handoff produced by :func:`encode_view_handoff`.

    Returns ``{"view", "position", "rows", "aux", "epoch"}`` with the
    position keyed by int source index; ``rows``/``aux`` values stay in
    flat-row form for the caller to decode against its schemas (see
    :func:`repro.durability.encoding.decode_relation`).
    """
    binwire = _binwire()
    envelope = binwire.loads(blob)
    if int(envelope.get("format", 0)) != HANDOFF_FORMAT:
        raise CheckpointCorruptionError(
            f"unsupported handoff format {envelope.get('format')!r}"
        )
    body_bytes = envelope["body"]
    if zlib.crc32(body_bytes) != int(envelope["crc"]):
        raise CheckpointCorruptionError("handoff body fails CRC")
    body = binwire.loads(body_bytes)
    return {
        "view": body["view"],
        "position": {int(k): int(v) for k, v in body["position"].items()},
        "rows": body["rows"],
        "aux": dict(body.get("aux", {})),
        "epoch": int(body.get("epoch", 0)),
    }


__all__ = [
    "HANDOFF_FORMAT",
    "ViewCheckpoint",
    "capture_checkpoint",
    "checkpoint_generations",
    "checkpoint_path",
    "decode_view_handoff",
    "encode_view_handoff",
]
