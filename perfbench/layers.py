"""Per-layer metrics of one traced repetition.

:data:`PROBES` count work at a few layer boundaries (rows a join emits,
bytes the WAL writes...); :func:`layer_metrics` folds a
:class:`~perfbench.tracer.SpanRecorder` and the run's own counters into
the per-layer metrics named in the README.
"""

from __future__ import annotations

import os

from perfbench.tracer import LAYERS, SELECT, SpanRecorder, layer_of

JOIN = "repro.relational.incremental.PartialView.extend"
MERGE = "repro.relational.delta.merge_deltas"
COMPENSATE = (
    "repro.relational.incremental.PartialView.compensate",
    "repro.relational.incremental.PartialView.compensate_in_place",
)
APPLY_DELTA = "repro.relational.relation.Relation.apply_delta"
COMMITS = (
    "repro.sources.server.DataSourceServer.local_update",
    "repro.runtime.shard.ShardedSourceFront.local_update",
)
ANSWER = "repro.sources.memory.MemoryBackend.compute_join"
PENDING = "repro.warehouse.base.QueueDrivenWarehouse.pending_updates_from"
INSTALL = "repro.warehouse.view_store.MaterializedView.install_wide"
WAREHOUSE_INSTALL = "repro.warehouse.base.WarehouseBase.install_wide"
ENCODE = "repro.runtime.codec.WireCodec.encode_message"
DECODE = "repro.runtime.codec.WireCodec.decode_message"
WRITE_FRAME = "repro.runtime.tcp.write_frame"
WAL_APPEND = "repro.durability.wal.UpdateLog.append"
WAL_SYNC = "repro.durability.wal.UpdateLog.sync"
CHECKPOINT = "repro.durability.checkpoint.ViewCheckpoint.write"


class _Probe:
    """Counts work at one wrapped function; ``before`` returns the state
    that ``after`` receives."""

    def before(self, recorder, args, kwargs):
        return None

    def after(self, recorder, args, kwargs, result, state):
        pass


class _JoinRows(_Probe):
    def after(self, recorder, args, kwargs, result, state):
        recorder.counters["join.rows_out"] += result.delta.distinct_count


class _MergeInputs(_Probe):
    def before(self, recorder, args, kwargs):
        deltas = args[1] if len(args) > 1 else kwargs.get("deltas")
        if isinstance(deltas, (list, tuple)):
            recorder.counters["merge.inputs"] += len(deltas)


class _Compensated(_Probe):
    def after(self, recorder, args, kwargs, result, state):
        recorder.counters["pending.returned"] += len(result)


class _Backlog(_Probe):
    def before(self, recorder, args, kwargs):
        queue = getattr(args[0], "update_queue", None)
        if queue is not None:
            recorder.samples["backlog"].append(len(queue))


class _Frames(_Probe):
    def before(self, recorder, args, kwargs):
        frame = args[1] if len(args) > 1 else kwargs["obj"]
        kind = frame.get("t")
        if kind == "msg":
            recorder.counters["frames"] += 1
            recorder.counters["frame.msgs"] += 1
        elif kind == "mb":
            recorder.counters["frames"] += 1
            recorder.counters["frame.msgs"] += len(frame["frames"])


class _WalBytes(_Probe):
    def before(self, recorder, args, kwargs):
        return os.path.getsize(args[0].path)

    def after(self, recorder, args, kwargs, result, state):
        recorder.counters["disk.bytes"] += os.path.getsize(args[0].path) - state


class _Fsyncs(_Probe):
    def before(self, recorder, args, kwargs):
        # UpdateLog.sync only calls fsync when records await it.
        if args[0]._since_sync:
            recorder.counters["fsyncs"] += 1


class _CheckpointBytes(_Probe):
    def after(self, recorder, args, kwargs, result, state):
        recorder.counters["disk.bytes"] += os.path.getsize(result)


PROBES = {
    JOIN: _JoinRows(),
    MERGE: _MergeInputs(),
    PENDING: _Compensated(),
    WAREHOUSE_INSTALL: _Backlog(),
    WRITE_FRAME: _Frames(),
    WAL_APPEND: _WalBytes(),
    WAL_SYNC: _Fsyncs(),
    CHECKPOINT: _CheckpointBytes(),
}


NAMED = (
    JOIN, MERGE, *COMPENSATE, APPLY_DELTA, ANSWER, PENDING, INSTALL,
    ENCODE, DECODE, WRITE_FRAME, WAL_APPEND, WAL_SYNC, CHECKPOINT,
)


def _calls(recorder: SpanRecorder, *names: str) -> int:
    return sum(recorder.calls.get(name, 0) for name in names)


def layer_metrics(
    recorder: SpanRecorder, window_s: float, counters: dict, n_updates: int,
    installs_by_shard: dict | None,
) -> dict[str, float]:
    """Per-layer figures of one traced call that took ``window_s``."""
    missing = sorted((set(NAMED) | set(PROBES)) - recorder.wrapped)
    if missing:
        raise ValueError(f"named spans no longer exist: {missing}")
    by_layer = dict.fromkeys(LAYERS, 0)
    by_layer["other"] = 0
    for name, ns in recorder.self_ns.items():
        if name != SELECT:
            by_layer[layer_of(name)] += ns
    idle_s = recorder.self_ns.get(SELECT, 0) / 1e9
    covered_s = recorder.root_union_ns() / 1e9
    spans_s = sum(recorder.self_ns.values()) / 1e9
    installs = counters.get("installs", 0)
    backlog = sorted(recorder.samples.get("backlog", ()))
    frames = recorder.counters.get("frames", 0)
    disk = recorder.counters.get("disk.bytes", 0)
    in_layer = recorder.layer_self_ns(NAMED)

    def _self_s(*names: str) -> float:
        return sum(in_layer[name] for name in names) / 1e9

    out = {
        f"{layer}.self_s": ns / 1e9 for layer, ns in by_layer.items()
    }
    out.update(
        {
            "relational.join.calls": _calls(recorder, JOIN),
            "relational.join.self_s": _self_s(JOIN),
            "relational.join.rows_out": recorder.counters.get("join.rows_out", 0),
            "relational.merge_deltas.calls": _calls(recorder, MERGE),
            "relational.merge_deltas.inputs": recorder.counters.get(
                "merge.inputs", 0
            ),
            "relational.merge_deltas.self_s": _self_s(MERGE),
            "relational.compensate.self_s": _self_s(*COMPENSATE),
            "relational.apply_delta.self_s": _self_s(APPLY_DELTA),
            "sources.commits": _calls(recorder, *COMMITS),
            "sources.answer.calls": _calls(recorder, ANSWER),
            "sources.answer.self_s": _self_s(ANSWER),
            "warehouse.installs": installs,
            "warehouse.updates_per_install": (
                counters.get("updates_installed", 0) / installs if installs else 0.0
            ),
            "warehouse.backlog_p50": backlog[len(backlog) // 2] if backlog else 0,
            "warehouse.backlog_max": backlog[-1] if backlog else 0,
            "warehouse.queries_per_update": counters.get("queries_sent", 0)
            / n_updates,
            "warehouse.compensated_updates": recorder.counters.get(
                "pending.returned", 0
            ),
            "warehouse.pending.self_s": _self_s(PENDING),
            "warehouse.install.self_s": _self_s(INSTALL),
            "codec.encode.calls": _calls(recorder, ENCODE),
            "codec.encode.self_s": _self_s(ENCODE),
            "codec.decode.calls": _calls(recorder, DECODE),
            "codec.decode.self_s": _self_s(DECODE),
            "codec.bytes_precompress": counters.get("wire_bytes_precompress", 0),
            "codec.bytes_wire": counters.get("wire_bytes_total", 0),
            "bytes_per_update": counters.get("wire_bytes_precompress", 0)
            / n_updates,
            "transport.frames": frames,
            "transport.msgs_per_frame": (
                recorder.counters.get("frame.msgs", 0) / frames if frames else 0.0
            ),
            "transport.write_frame.self_s": _self_s(WRITE_FRAME),
            "runtime.loop_idle_s": idle_s,
            "runtime.loop_busy_frac": 1.0 - idle_s / window_s,
            "runtime.loop_iterations": _calls(recorder, SELECT),
            "runtime.unattributed_s": window_s - covered_s,
            "durability.wal_append.calls": _calls(recorder, WAL_APPEND),
            "durability.wal_append.self_s": _self_s(WAL_APPEND),
            "durability.fsyncs": recorder.counters.get("fsyncs", 0),
            "durability.fsync.self_s": _self_s(WAL_SYNC),
            "durability.checkpoints": _calls(recorder, CHECKPOINT),
            "durability.checkpoint.self_s": _self_s(CHECKPOINT),
            "durability.bytes_written": disk,
            "disk_bytes_per_update": disk / n_updates,
            "shard.install_skew": _skew(installs_by_shard),
            "trace.window_s": window_s,
            "trace.spans": len(recorder),
            # Self times sum to the time root spans cover, exactly, when
            # spans nest; anything else is a tracer fault.
            "trace.accounting_error_s": abs(spans_s - covered_s),
        }
    )
    return out


def _skew(installs_by_shard: dict | None) -> float:
    """max/mean installs per shard (1.0 for a single warehouse)."""
    if not installs_by_shard:
        return 1.0
    counts = list(installs_by_shard.values())
    return max(counts) / (sum(counts) / len(counts))


__all__ = ["PROBES", "layer_metrics"]
