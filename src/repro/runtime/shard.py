"""Sharded warehouse runtime: per-view maintenance fanned across shards.

A sharded run partitions the maintained view family across ``n_shards``
warehouse shards (see :mod:`repro.warehouse.sharding`).  Each shard is an
ordinary multi-view warehouse -- the unchanged SWEEP or batched-sweep
scheduler over its subset of the views -- so it inherits the single
warehouse's per-view consistency guarantee wholesale.  The only new
moving part is the **router** at each source:

* one :class:`ShardedSourceFront` per source applies each local update
  to the backend exactly once, then fans the update notice out over
  *per-shard FIFO channels* to exactly the shards whose views reference
  that source;
* each (source, shard) pair has its own query channel and its own
  ProcessQuery loop at the source, and the per-shard update/answer
  channel is shared FIFO -- so *within one shard* the paper's Section 4
  argument (updates applied before a query's evaluation are delivered
  before its answer) holds verbatim, and SWEEP's local compensation
  stays exact.

There is deliberately **no cross-shard coordination**: views are
independent maintenance problems, and the consistency oracle verifies
each one shard-by-shard.

Why it is faster
----------------
The source-side cost of a sweep step grows with the number of partial
view changes in the request (one per view that needs the step): a single
warehouse maintaining ``m`` views pays ``m`` joins per step, serially.
Sharding splits the family ``m/N`` views per shard, and the per-shard
ProcessQuery loops service different shards' steps concurrently -- so the
latency-bound pipeline of each shard overlaps the others', dividing the
wall-clock per update by up to ``N`` without touching the protocol.

Entry points
------------
:func:`run_sharded` hosts every shard and source on one event loop over
either transport (``local`` bounded queues or loopback TCP), optionally
under a chaos profile.  :func:`serve_shard_async` hosts one shard as its
own OS process (``repro serve-shard``), and :class:`ShardSupervisor`
launches and babysits a full multi-process deployment, killing the fleet
and surfacing the culprit when any member crashes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import socket
import subprocess
import sys
import time as _time
from dataclasses import dataclass

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.oracle import RunRecorder
from repro.durability.encoding import encode_bag
from repro.durability.manager import (
    CheckpointPolicy,
    CrashPlan,
    DurabilityManager,
    LoggingMailbox,
)
from repro.durability.recovery import (
    RecoveredState,
    attach_durability,
    load_state,
    resume_warehouse,
)
from repro.harness.config import ExperimentConfig
from repro.harness.runner import build_workload, record_predicate_cache_delta
from repro.relational.delta import Delta
from repro.relational.predicate import compile_cache_stats
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.runtime.chaos import (
    ChaosConfig,
    ChaosLocalChannel,
    ChaosStats,
    ChaosTcpProxy,
    profile,
)
from repro.runtime.codec import WireCodec
from repro.runtime.errors import RuntimeHostError, TransportRetriesExceeded
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.nodes import _listener_codec_cap
from repro.runtime.tcp import (
    ChannelListener,
    TcpChannel,
    TcpChannelConfig,
    probe_peer,
)
from repro.runtime.transport import LocalChannel
from repro.simulation.channel import Message
from repro.simulation.errors import ProcessKilled
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.process import Delay
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog
from repro.sources.memory import MemoryBackend
from repro.sources.messages import (
    MultiQueryAnswer,
    MultiQueryRequest,
    PositionAnswer,
    PositionRequest,
    QueryAnswer,
    SnapshotAnswer,
    SnapshotRequest,
    UpdateNotice,
    make_rebalance_fence,
)
from repro.sources.sqlite import SqliteBackend
from repro.sources.updater import ScheduledUpdater
from repro.warehouse.locality import build_locality
from repro.warehouse.migration import (
    GapComplete,
    GapFrame,
    HandoffState,
    MigratingMultiViewBatchedSweepWarehouse,
    MigratingMultiViewSweepWarehouse,
    MigrationMemberState,
)
from repro.warehouse.multiview import (
    MultiViewBatchedSweepWarehouse,
    MultiViewSweepWarehouse,
)
from repro.warehouse.sharding import (
    RebalancePlan,
    ShardMember,
    ShardPlan,
    assign_replicas,
    partition_views,
    view_family,
)
from repro.workloads.scenarios import Workload

#: Claimed per-view consistency of each sharded scheduler.
CLAIMED_LEVELS = {
    "sweep": ConsistencyLevel.COMPLETE,
    "batched-sweep": ConsistencyLevel.STRONG,
}


class ShardCrashed(RuntimeHostError):
    """A member of a multi-process sharded deployment exited non-zero."""


class ShardVerificationError(RuntimeHostError):
    """A shard's views failed their claimed consistency level."""


def _make_backend(config: ExperimentConfig, view, index: int, initial):
    if config.backend == "sqlite":
        return SqliteBackend(view, index, initial)
    return MemoryBackend(view, index, initial)


def _member_label(key) -> str:
    """Channel-name fragment for a routing key (shard int or member)."""
    if isinstance(key, ShardMember):
        return key.label
    return f"sh{key}"


def _as_member(key) -> ShardMember:
    if isinstance(key, ShardMember):
        return key
    return ShardMember(shard=int(key))


# ---------------------------------------------------------------------------
# Failover: deterministic primary kills and hot-standby promotion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailoverSpec:
    """Kill shard ``shard``'s primary at a deterministic protocol point.

    Exactly one of the ``after_*`` thresholds should be set; the kill
    switch fires inside the primary's own process frame the moment that
    count is reached, so the kill lands *mid-protocol* (mid-batch when
    counting installs, mid-compensation when counting deliveries,
    mid-query right after a query left for a source) rather than at a
    tidy quiescent boundary.

    ``unfenced_replay`` is the mutation hook for the oracle tests: a
    correct promotion inherits the standby's own FIFO position and lets
    the incarnation-epoch fence drop whatever was in flight to the dead
    primary; the mutated promotion instead replays the primary's last
    delivered frame into the standby -- the duplicate a fence-skipping
    takeover of the dead primary's channel would deliver -- and the
    consistency oracle must fail the run.
    """

    shard: int
    after_deliveries: int | None = None
    after_installs: int | None = None
    after_queries: int | None = None
    unfenced_replay: bool = False

    def __post_init__(self) -> None:
        thresholds = [
            t
            for t in (
                self.after_deliveries,
                self.after_installs,
                self.after_queries,
            )
            if t is not None
        ]
        if len(thresholds) != 1:
            raise ValueError(
                "set exactly one of after_deliveries/after_installs/"
                f"after_queries, got {self!r}"
            )
        if thresholds[0] < 1:
            raise ValueError(f"kill threshold must be >= 1, got {self!r}")


class _KillSwitch:
    """Wraps a warehouse's protocol hooks to fire a :class:`FailoverSpec`.

    The wrapped methods run inside the victim's generator frames, so
    raising :class:`ProcessKilled` there unwinds exactly one process of
    the victim mid-step -- the kernel treats it as a clean termination
    and every other site keeps running.
    """

    def __init__(self, spec: FailoverSpec, warehouse, on_fire):
        self.spec = spec
        self.warehouse = warehouse
        self.on_fire = on_fire
        self.fired = False
        self.last_notice = None
        self._deliveries = 0
        self._installs = 0
        self._queries = 0
        self._arm()

    def _arm(self) -> None:
        wh, spec = self.warehouse, self.spec
        orig_note = wh.note_delivery

        def note_delivery(notice):
            orig_note(notice)
            self.last_notice = notice
            self._deliveries += 1
            if (
                spec.after_deliveries is not None
                and self._deliveries >= spec.after_deliveries
            ):
                self._fire()

        wh.note_delivery = note_delivery
        orig_install = wh._after_install

        def _after_install(note):
            orig_install(note)
            self._installs += 1
            if (
                spec.after_installs is not None
                and self._installs >= spec.after_installs
            ):
                self._fire()

        wh._after_install = _after_install
        orig_query = wh.send_query

        def send_query(index, payload):
            orig_query(index, payload)
            self._queries += 1
            if (
                spec.after_queries is not None
                and self._queries >= spec.after_queries
            ):
                self._fire()

        wh.send_query = send_query

    def _fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        self.on_fire(self)
        raise ProcessKilled(
            f"failover kill switch: shard {self.spec.shard} primary"
        )


# ---------------------------------------------------------------------------
# Rebalancing: live view migration between shards
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RebalanceSpec:
    """Migrate ``view`` to shard ``to_shard`` at a deterministic point.

    Exactly one of the ``after_*`` thresholds must be set; the trigger
    fires inside the donor primary's own process frame the moment that
    count is reached, so the seal request lands *mid-protocol* (mid-batch
    when counting installs, mid-compensation when counting deliveries)
    rather than at a tidy quiescent boundary -- exactly the points the
    drain/handoff/re-route protocol has to survive.

    ``skip_straggler_forwarding`` is the mutation hook for the oracle
    tests: the donor seals and hands off but never forwards the gap
    ``(P_i, B_i]``, sending the completion signal immediately -- the
    migrated view then silently misses the straggler window and both the
    consistency oracle and the baseline byte-comparison must catch it.
    """

    view: str
    to_shard: int
    after_deliveries: int | None = None
    after_installs: int | None = None
    skip_straggler_forwarding: bool = False

    def __post_init__(self) -> None:
        thresholds = [
            t
            for t in (self.after_deliveries, self.after_installs)
            if t is not None
        ]
        if len(thresholds) != 1:
            raise ValueError(
                "set exactly one of after_deliveries/after_installs,"
                f" got {self!r}"
            )
        if thresholds[0] < 1:
            raise ValueError(f"rebalance threshold must be >= 1, got {self!r}")


class _RebalanceTrigger:
    """Wraps the donor primary's protocol hooks to fire a rebalance.

    The non-lethal sibling of :class:`_KillSwitch`: same deterministic
    counting inside the victim's own generator frames, but instead of
    raising it asks the coordinator to start the migration and lets the
    current unit of work finish -- the donor seals at its next
    unit-of-work boundary (see ``ViewMigrationMixin._before_unit``).
    """

    def __init__(self, spec: RebalanceSpec, warehouse, coordinator):
        self.spec = spec
        self.warehouse = warehouse
        self.coordinator = coordinator
        self.fired = False
        self._deliveries = 0
        self._installs = 0
        self._arm()

    def _arm(self) -> None:
        wh, spec = self.warehouse, self.spec
        orig_note = wh.note_delivery

        def note_delivery(notice):
            orig_note(notice)
            self._deliveries += 1
            if (
                spec.after_deliveries is not None
                and self._deliveries >= spec.after_deliveries
            ):
                self._fire()

        wh.note_delivery = note_delivery
        orig_install = wh._after_install

        def _after_install(note):
            orig_install(note)
            self._installs += 1
            if (
                spec.after_installs is not None
                and self._installs >= spec.after_installs
            ):
                self._fire()

        wh._after_install = _after_install

    def _fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        self.coordinator.fire()


class RebalanceCoordinator:
    """Control plane of one live migration (fencing epoch 1).

    Pairs donor and recipient members positionally (primary with
    primary, standby ``k`` with standby ``k``), posts one fence per
    source down the *real* per-(source, member) update channels of every
    participating member, and injects the in-process control frames --
    handoff, gap stragglers, gap-complete -- into the paired recipient
    member's inbox.  Fences are the only protocol frames that ride the
    wire (they are ordinary empty :class:`UpdateNotice` frames, so the
    binwire codec carries them unchanged over TCP); the handoff blob and
    gap frames are coordinator deliveries even under the tcp transport,
    modelling the operator-driven control plane of a real rebalance.
    """

    def __init__(
        self,
        rebalance: RebalancePlan,
        runtime,
        chain: ViewDefinition,
        fronts: dict[int, "ShardedSourceFront"],
        member_recorders: dict[ShardMember, dict[str, RunRecorder]],
        epoch: int = 1,
    ):
        self.rebalance = rebalance
        self.runtime = runtime
        self.chain = chain
        self.fronts = fronts
        self.member_recorders = member_recorders
        self.epoch = epoch
        self.fired = False
        #: source index -> boundary seq ``B_i`` captured at fire time.
        self.boundaries: dict[int, int] = {}
        self._donor_states: dict[ShardMember, MigrationMemberState] = {}
        self._pair: dict[ShardMember, ShardMember] = {}
        self._recipient_inboxes: dict[ShardMember, Mailbox] = {}

    def register_pair(
        self,
        donor: ShardMember,
        recipient: ShardMember,
        donor_state: MigrationMemberState,
        recipient_inbox: Mailbox,
    ) -> None:
        self._donor_states[donor] = donor_state
        self._pair[donor] = recipient
        self._recipient_inboxes[recipient] = recipient_inbox

    @property
    def members(self) -> list[ShardMember]:
        return [*self._donor_states, *self._recipient_inboxes]

    def fire(self) -> None:
        """Request the seal on every donor member and post the fences.

        The boundary ``B_i`` is each source's committed position *now*;
        channel FIFO pins the fence between update ``B_i`` and
        ``B_i + 1`` on every participating member's stream, so all
        members agree on the pre/post-boundary split even though each
        has its own channel.
        """
        if self.fired:
            return
        self.fired = True
        for state in self._donor_states.values():
            state.seal_requested = True
        for index in sorted(self.fronts):
            front = self.fronts[index]
            boundary = front.update_seq
            self.boundaries[index] = boundary
            fence = make_rebalance_fence(
                index,
                boundary,
                Delta.empty(self.chain.schema_of(index)),
                self.epoch,
                applied_at=self.runtime.now,
            )
            for member in self.members:
                # Fresh frame per member, mirroring local_update's fanout.
                front.update_channels[member].send(
                    Message(
                        kind="update",
                        sender=front.name,
                        payload=dataclasses.replace(fence),
                    )
                )

    # -- callbacks from the donor-side warehouse mixin -----------------
    def handoff(self, donor: ShardMember, state: HandoffState) -> None:
        recipient = self._pair[donor]
        # The view's recorder follows the view: history keeps accruing on
        # the same object, and the result collector reads it from the
        # recipient member's set.
        self.member_recorders[donor].pop(state.view, None)
        if state.recorder is not None:
            self.member_recorders[recipient][state.view] = state.recorder
        self._inject(recipient, state)

    def forward_gap(self, donor: ShardMember, notice: UpdateNotice) -> None:
        self._inject(self._pair[donor], GapFrame(self.epoch, notice))

    def gap_complete(self, donor: ShardMember) -> None:
        self._inject(self._pair[donor], GapComplete(self.epoch))

    def _inject(self, recipient: ShardMember, payload) -> None:
        self._recipient_inboxes[recipient].put(
            Message(
                kind="rebalance",
                sender="rebalance-coordinator",
                payload=payload,
            )
        )


# ---------------------------------------------------------------------------
# The source-side router
# ---------------------------------------------------------------------------

class ShardedSourceFront:
    """One data source serving several warehouse shards.

    Owns the single authoritative backend.  ``local_update`` applies the
    delta exactly once and fans a fresh copy of the notice to every
    shard's update channel (per-shard delivery stamping must not be
    shared).  Each shard gets its own query inbox and its own ProcessQuery
    loop, so sweep steps of different shards are serviced concurrently;
    within one shard, updates and answers share that shard's FIFO channel
    -- the linchpin of SWEEP's local compensation, preserved per shard.

    ``query_service_time`` models the per-join evaluation cost: a
    MultiQueryRequest carrying ``k`` partial view changes takes
    ``k * query_service_time`` virtual units, which is the quantity
    sharding actually divides (fewer views per shard means fewer joins
    per step means shorter steps).
    """

    def __init__(
        self,
        runtime,
        view: ViewDefinition,
        index: int,
        backend,
        update_channels: dict[int, object],
        query_service_time: float = 0.0,
        trace: TraceLog | None = None,
    ):
        self.sim = runtime
        self.view = view
        self.index = index
        self.name = view.name_of(index)
        self.backend = backend
        self.update_channels = dict(update_channels)
        self.query_service_time = query_service_time
        self.trace = trace
        self.update_seq = 0
        self._listeners: list = []
        # Keys are shard ints in a replica-less run and ShardMembers in a
        # replicated one; either way each key gets its own FIFO channel
        # pair, so the per-(source, key) ordering argument is unchanged.
        self.query_inboxes: dict = {}
        for key in sorted(self.update_channels):
            self.query_inboxes[key] = Mailbox(
                runtime, f"{self.name}-{_member_label(key)}-queries"
            )
        for key in sorted(self.update_channels):
            runtime.spawn(
                f"{self.name}-{_member_label(key)}-ProcessQuery",
                self._process_queries(key),
            )

    # ------------------------------------------------------------------
    def local_update(self, delta, txn_id: str | None = None, txn_total: int = 0):
        """Commit one update and route it to every subscribed shard."""
        self.backend.apply(delta)
        self.update_seq += 1
        notice = UpdateNotice(
            source_index=self.index,
            seq=self.update_seq,
            delta=delta,
            applied_at=self.sim.now,
            txn_id=txn_id,
            txn_total=txn_total,
        )
        for listener in self._listeners:
            listener(notice)
        if self.trace:
            self.trace.record(self.sim.now, self.name, "local-update", notice)
        for key in sorted(self.update_channels):
            # Fresh notice per member: each warehouse stamps its own
            # delivery order; the (immutable) delta is shared by reference.
            self.update_channels[key].send(
                Message(
                    kind="update",
                    sender=self.name,
                    payload=dataclasses.replace(
                        notice, delivery_seq=None, delivered_at=0.0
                    ),
                )
            )
        return notice

    def add_update_listener(self, listener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    def _process_queries(self, key):
        """ProcessQuery loop for one member (mirrors DataSourceServer)."""
        inbox = self.query_inboxes[key]
        channel = self.update_channels[key]
        while True:
            msg = yield inbox.get()
            request = msg.payload
            if isinstance(request, PositionRequest):
                # Recovery probe: current seq only, no join, no delay.
                answer = PositionAnswer(
                    request_id=request.request_id,
                    source_index=self.index,
                    position=self.update_seq,
                    epoch=request.epoch,
                )
            elif isinstance(request, SnapshotRequest):
                if self.query_service_time > 0:
                    yield Delay(self.query_service_time)
                # Delta-encoded: codec-v2 flat rows, the checkpoint
                # encoder's format (see repro.durability.encoding).
                answer = SnapshotAnswer(
                    request_id=request.request_id,
                    source_index=self.index,
                    rows=encode_bag(self.backend.snapshot()),
                    epoch=request.epoch,
                )
            elif isinstance(request, MultiQueryRequest):
                if self.query_service_time > 0:
                    yield Delay(
                        self.query_service_time * max(1, len(request.partials))
                    )
                answer = MultiQueryAnswer(
                    request_id=request.request_id,
                    partials=[
                        self.backend.compute_join(p) for p in request.partials
                    ],
                    epoch=request.epoch,
                )
            else:
                if self.query_service_time > 0:
                    yield Delay(self.query_service_time)
                answer = QueryAnswer(
                    request_id=request.request_id,
                    partial=self.backend.compute_join(request.partial),
                    epoch=request.epoch,
                )
            channel.send(
                Message(kind="answer", sender=self.name, payload=answer)
            )

    def drop_member(self, key) -> None:
        """Stop serving a dead member: no more updates, queries sealed.

        Its ProcessQuery loop stays blocked on the sealed inbox forever,
        which the kernel counts as settled; queued queries are discarded
        (answers to a dead member would be dropped at its end anyway).
        """
        self.update_channels.pop(key, None)
        inbox = self.query_inboxes.get(key)
        if inbox is not None:
            inbox.seal()

    def quiescent(self) -> bool:
        return all(len(box) == 0 for box in self.query_inboxes.values())

    def __repr__(self) -> str:
        return (
            f"ShardedSourceFront({self.name!r},"
            f" members={[_member_label(k) for k in sorted(self.update_channels)]})"
        )


# ---------------------------------------------------------------------------
# Deployable sites (TCP)
# ---------------------------------------------------------------------------

def _family_codec(views: list[ViewDefinition]) -> WireCodec:
    return WireCodec(views[0], extra_views=tuple(views[1:]))


def build_shard_warehouse(
    runtime,
    views: list[ViewDefinition],
    query_channels: dict,
    initial_states: dict[str, Relation],
    recorders: dict[str, RunRecorder] | None,
    config: ExperimentConfig,
    inbox: Mailbox,
    metrics: MetricsCollector,
    trace: TraceLog | None,
    migratable: bool = False,
):
    """One shard's warehouse over its assigned views (SWEEP or batched).

    ``migratable`` selects the migration-capable subclasses (see
    :mod:`repro.warehouse.migration`) so a live rebalance can seal,
    donate, or adopt a view; they are behaviourally identical until the
    coordinator attaches a migration state.
    """
    primary = views[0]
    recorders = recorders or {}
    common = dict(
        locality=build_locality(config, views, initial_states),
        initial_view=primary.evaluate(initial_states),
        recorder=recorders.get(primary.name),
        metrics=metrics,
        trace=trace,
        inbox=inbox,
        extra_views=views[1:],
        initial_states=initial_states,
        extra_recorders={
            v.name: recorders[v.name] for v in views[1:] if v.name in recorders
        },
    )
    if config.algorithm == "batched-sweep":
        cls = (
            MigratingMultiViewBatchedSweepWarehouse
            if migratable
            else MultiViewBatchedSweepWarehouse
        )
        return cls(
            runtime,
            primary,
            query_channels,
            max_batch=config.batch_max,
            adaptive=config.batch_adaptive,
            **common,
        )
    if config.algorithm == "sweep":
        cls = (
            MigratingMultiViewSweepWarehouse
            if migratable
            else MultiViewSweepWarehouse
        )
        return cls(runtime, primary, query_channels, **common)
    raise ValueError(
        f"sharded runtime supports sweep/batched-sweep, not {config.algorithm!r}"
    )


class ShardNode:
    """One warehouse shard as a deployable site (listener + query channels).

    With ``durable_dir`` the shard checkpoints its views and logs every
    delivered update (see :mod:`repro.durability`); a restart with the
    same directory recovers the durable state and resynchronizes both
    transport directions: the listener adopts the senders' sequence
    position (``adopt_next``), and the query channels announce a fresh
    ``epoch`` so source listeners accept their restarted numbering.
    """

    def __init__(
        self,
        runtime: AsyncRuntime,
        shard_id: int,
        views: list[ViewDefinition],
        source_addresses: dict[int, tuple[str, int]],
        initial_states: dict[str, Relation],
        config: ExperimentConfig,
        recorders: dict[str, RunRecorder] | None = None,
        metrics: MetricsCollector | None = None,
        trace: TraceLog | None = None,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        tcp_config: TcpChannelConfig | None = None,
        durable_dir: str | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        crash_plan: CrashPlan | None = None,
        fsync_batch: int = 8,
        member: ShardMember | None = None,
        migratable: bool = False,
        codec_views: list[ViewDefinition] | None = None,
    ):
        if not views:
            raise ValueError(f"shard {shard_id} has no views to host")
        self.runtime = runtime
        self.shard_id = shard_id
        #: Replica identity: channel names derive from the member label,
        #: so a standby (``sh0r1``) owns its own FIFO sessions alongside
        #: the primary's (``sh0``) rather than colliding with them.
        self.member = member if member is not None else ShardMember(shard_id)
        label = self.member.label
        self.views = list(views)
        # A migratable shard may adopt a view it does not host at launch,
        # so its wire codec must span the whole family (``codec_views``),
        # not just the hosted subset.
        self.codec = _family_codec(
            list(codec_views) if codec_views else self.views
        )
        primary = self.views[0]
        self.durability: DurabilityManager | None = None
        self.recovered_state: RecoveredState | None = None
        state: RecoveredState | None = None
        if durable_dir is not None:
            state = load_state(durable_dir, self.views)
            self.inbox: Mailbox = LoggingMailbox(runtime, f"{label}-inbox")
        else:
            self.inbox = Mailbox(runtime, f"{label}-inbox")
        epoch = state.generation + 1 if state is not None else 0
        self.listener = ChannelListener(
            runtime,
            listen_host,
            listen_port,
            adopt_next=state is not None,
            codec_version_max=_listener_codec_cap(tcp_config),
        )
        for index in range(1, primary.n_relations + 1):
            self.listener.register(
                f"{primary.name_of(index)}->{label}", self.inbox, self.codec
            )
        metrics = metrics if metrics is not None else MetricsCollector()
        self.query_channels = {
            index: TcpChannel(
                runtime,
                f"{label}->{primary.name_of(index)}",
                host,
                port,
                self.codec,
                metrics,
                tcp_config,
                epoch=epoch,
            )
            for index, (host, port) in sorted(source_addresses.items())
        }
        self.warehouse = build_shard_warehouse(
            runtime,
            self.views,
            self.query_channels,
            initial_states,
            recorders,
            config,
            self.inbox,
            metrics,
            trace,
            migratable=migratable,
        )
        if durable_dir is not None:
            if state is not None:
                resume_warehouse(self.warehouse, state)
            self.durability = DurabilityManager(
                durable_dir,
                policy=checkpoint_policy,
                fsync_batch=fsync_batch,
                crash_plan=crash_plan,
            )
            self.durability.attach(self.warehouse, state)
            self.recovered_state = state

    async def start(self) -> None:
        await self.listener.start()

    @property
    def address(self) -> tuple[str, int]:
        """Where sources should dial this shard's update/answer channel."""
        return self.listener.address

    def quiescent(self) -> bool:
        if len(self.inbox) != 0:
            return False
        if self.warehouse.pending_work():
            return False
        return all(channel.idle for channel in self.query_channels.values())

    async def aclose(self) -> None:
        if self.durability is not None:
            self.durability.close()
        for channel in self.query_channels.values():
            await channel.aclose()
        await self.listener.aclose()

    def __repr__(self) -> str:
        return (
            f"ShardNode({self.shard_id}, views={[v.name for v in self.views]},"
            f" listen={self.listener.port})"
        )


class ShardedSourceNode:
    """One data-source site serving several shards over TCP."""

    def __init__(
        self,
        runtime: AsyncRuntime,
        views: list[ViewDefinition],
        index: int,
        backend,
        shard_addresses: dict[int, tuple[str, int]],
        query_service_time: float = 0.0,
        metrics: MetricsCollector | None = None,
        trace: TraceLog | None = None,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        tcp_config: TcpChannelConfig | None = None,
    ):
        self.runtime = runtime
        self.index = index
        primary = views[0]
        self.name = primary.name_of(index)
        self.codec = _family_codec(list(views))
        self.update_channels = {
            key: TcpChannel(
                runtime,
                f"{self.name}->{_member_label(key)}",
                host,
                port,
                self.codec,
                metrics,
                tcp_config,
            )
            for key, (host, port) in sorted(shard_addresses.items())
        }
        self.front = ShardedSourceFront(
            runtime,
            primary,
            index,
            backend,
            self.update_channels,
            query_service_time=query_service_time,
            trace=trace,
        )
        self.listener = ChannelListener(
            runtime,
            listen_host,
            listen_port,
            codec_version_max=_listener_codec_cap(tcp_config),
        )
        for key in sorted(shard_addresses):
            self.listener.register(
                f"{_member_label(key)}->{self.name}",
                self.front.query_inboxes[key],
                self.codec,
            )

    async def start(self) -> None:
        await self.listener.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.listener.address

    def quiescent(self) -> bool:
        return (
            all(ch.idle for ch in self.update_channels.values())
            and self.front.quiescent()
        )

    async def drop_member(self, key) -> None:
        """Stop routing to a member known dead before any frame was sent."""
        channel = self.update_channels.pop(key, None)
        self.front.drop_member(key)
        if channel is not None:
            await channel.aclose()

    def tolerate_dead_members(self) -> None:
        """Arm every update channel with hot-standby dead-peer tolerance.

        A channel that exhausts its retry budget mid-run checks whether
        the member's replica group still has a live channel: if so the
        member is marked dead (frames dropped, its query inbox sealed)
        and the fleet keeps going; a shard whose *last* member died
        propagates :class:`TransportRetriesExceeded` as before.
        """
        for key, channel in self.update_channels.items():
            if not isinstance(channel, TcpChannel):
                continue
            channel.on_give_up = self._give_up_handler(key)

    def _give_up_handler(self, key):
        member = _as_member(key)

        def _handler(error) -> bool:
            survivors = [
                k
                for k, ch in self.update_channels.items()
                if k != key
                and _as_member(k).shard == member.shard
                and not getattr(ch, "dead", False)
            ]
            if not survivors:
                return False
            print(
                f"source[{self.name}] member {member.label} unreachable,"
                f" surviving member(s)"
                f" {[_member_label(k) for k in survivors]} carry shard"
                f" {member.shard}: {error}",
                flush=True,
            )
            self.front.query_inboxes[key].seal()
            return True

        return _handler

    async def aclose(self) -> None:
        for channel in self.update_channels.values():
            await channel.aclose()
        await self.listener.aclose()

    def __repr__(self) -> str:
        return (
            f"ShardedSourceNode({self.name!r},"
            f" members={[_member_label(k) for k in sorted(self.update_channels)]})"
        )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class ShardedRunResult:
    """Per-view outcomes of one sharded run (or one shard's serve mode)."""

    config: ExperimentConfig
    n_shards: int
    transport: str
    time_scale: float
    plan: ShardPlan
    final_views: dict[str, Relation]
    levels: dict[str, ConsistencyLevel]
    recorders: dict[str, RunRecorder]
    metrics: MetricsCollector
    updates_total: int
    deliveries_total: int
    wall_seconds: float
    chaos_profile: str | None = None
    chaos_stats: ChaosStats | None = None
    #: shard id -> updates replayed from durable state (recovered runs).
    recovered_pending: dict[int, int] | None = None
    #: hot standbys per shard (0 = no replication).
    replicas: int = 0
    #: shard id -> label of the member promoted after its primary died.
    promotions: dict[int, str] | None = None
    #: structured protocol counters of a mid-run view migration (None
    #: when no rebalance was requested); ``plan`` then holds the
    #: POST-migration assignment.
    rebalance_stats: dict | None = None

    @property
    def installs(self) -> int:
        """Install *transactions* summed over shards (NOT source updates:
        an update fanned out to k shards is installed k times here)."""
        return self.metrics.counters.get("installs", 0)

    @property
    def installs_by_view(self) -> dict[str, int]:
        """Install count per maintained view, from its own recorder."""
        return {
            name: len(self.recorders[name].snapshots)
            for name in sorted(self.final_views)
        }

    @property
    def installs_by_shard(self) -> dict[int, int]:
        """Install counts folded onto the hosting shard."""
        out: dict[int, int] = {}
        for name, count in self.installs_by_view.items():
            shard = self.plan.shard_of(name)
            out[shard] = out.get(shard, 0) + count
        return dict(sorted(out.items()))

    @property
    def updates_per_sec(self) -> float:
        """Unique source updates per wall second (not per-shard deliveries)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.updates_total / self.wall_seconds

    def min_level(self) -> ConsistencyLevel:
        """Weakest per-view verdict (NONE when verification was skipped)."""
        if not self.levels:
            return ConsistencyLevel.NONE
        return min(self.levels.values())

    def verified_at(self, level: ConsistencyLevel) -> bool:
        """Every view reached at least ``level``."""
        return bool(self.levels) and all(
            achieved >= level for achieved in self.levels.values()
        )

    def report(self) -> str:
        lines = [
            f"sharded run      : {self.n_shards} shard(s),"
            f" {self.replicas} standby(s) each,"
            f" {len(self.plan.views)} view(s), {self.transport} transport"
            f" (time scale {self.time_scale} s/unit)",
            f"plan             : {self.plan.describe()}",
        ]
        if self.promotions:
            lines.append(
                "promotions       : "
                + ", ".join(
                    f"shard {shard} -> {label}"
                    for shard, label in sorted(self.promotions.items())
                )
            )
        if self.rebalance_stats:
            rs = self.rebalance_stats
            lines.append(
                f"rebalance        : {rs['view']!r} shard {rs['from_shard']}"
                f" -> {rs['to_shard']},"
                f" gap fwd={rs['gap_forwarded']} pen={rs['pen_retained']}"
                f" catchup={rs['catchup_installs']} dup={rs['dup_dropped']}"
                f" {'complete' if rs['completed'] else 'INCOMPLETE'}"
            )
        if self.chaos_profile is not None and self.chaos_stats is not None:
            lines.append(
                f"chaos profile    : {self.chaos_profile}"
                f" ({self.chaos_stats.faults_injected} faults injected)"
            )
        lines.append(
            f"updates          : {self.updates_total} unique,"
            f" {self.deliveries_total} shard deliveries,"
            f" {self.installs} install txns"
        )
        by_shard = self.installs_by_shard
        lines.append(
            "view installs    : "
            + ", ".join(f"sh{shard}={count}" for shard, count in by_shard.items())
        )
        lines.append(
            f"throughput       : {self.updates_per_sec:.1f} distinct updates/s"
            f" over {self.wall_seconds:.3f}s"
        )
        counters = self.metrics.counters
        if self.config.locality != "off":
            lines.append(
                f"locality         : mode={self.config.locality}"
                f" aux_hits={counters.get('locality_aux_hits', 0)}"
                f" cache_hits={counters.get('locality_cache_hits', 0)}"
                f" dedup_saved={counters.get('locality_dedup_saved', 0)}"
            )
        for name in sorted(self.final_views):
            level = self.levels.get(name)
            shown = level.name.lower() if level is not None else "unchecked"
            lines.append(
                f"view {name:<12}: {self.final_views[name].distinct_count}"
                f" rows, shard {self.plan.shard_of(name)}, {shown}"
            )
        return "\n".join(lines)


def seed_history_from_workload(
    recorders: dict[str, RunRecorder], workload: Workload
) -> None:
    """Reconstruct every source's update history from the shared schedule.

    A serve-mode shard never observes remote sources' commits directly,
    but the schedule is a pure function of the shared config -- so the
    history the oracle needs (dense per-source sequence of deltas) can be
    derived locally, exactly as the source process will replay it.
    """
    for index, schedule in sorted(workload.schedules.items()):
        ordered = sorted(schedule, key=lambda u: u.time)
        for seq, update in enumerate(ordered, start=1):
            notice = UpdateNotice(
                source_index=index,
                seq=seq,
                delta=update.delta,
                applied_at=update.time,
                txn_id=update.txn_id,
                txn_total=update.txn_total,
            )
            for recorder in recorders.values():
                recorder.history.on_source_update(notice)


# ---------------------------------------------------------------------------
# Single-call sharded runs (local or loopback TCP, one event loop)
# ---------------------------------------------------------------------------

def _sharded_views(
    config: ExperimentConfig, workload: Workload
) -> list[ViewDefinition]:
    return view_family(workload.view, max(1, config.n_views))


async def run_sharded_async(
    config: ExperimentConfig,
    n_shards: int = 2,
    transport: str = "local",
    time_scale: float = 0.01,
    host: str = "127.0.0.1",
    timeout: float = 120.0,
    tcp_config: TcpChannelConfig | None = None,
    chaos: "ChaosConfig | str | None" = None,
    views: list[ViewDefinition] | None = None,
    strategy: str = "hash",
    durable_dir: str | None = None,
    checkpoint_policy: CheckpointPolicy | None = None,
    fsync_batch: int = 8,
    crash_plans: "dict[int, CrashPlan] | None" = None,
    replicas: int = 0,
    failover: FailoverSpec | None = None,
    rebalance: RebalanceSpec | None = None,
) -> ShardedRunResult:
    """Run one sharded experiment to quiescence on the current loop.

    The view family defaults to ``view_family(workload.view,
    config.n_views)``; pass ``views`` to override.  ``strategy`` picks the
    partitioning rule (``hash`` / ``round-robin``), and ``chaos`` injects
    deterministic transport faults below the FIFO contract, exactly as in
    :func:`repro.runtime.distributed.run_distributed_async`.

    ``durable_dir`` turns on the durability subsystem: each shard
    checkpoints and WAL-logs under ``<durable_dir>/shard<id>``, and a
    rerun over the same directory recovers every shard from its durable
    state (sources replay their seeded schedules; redeliveries are
    fenced).  ``crash_plans`` (shard id -> :class:`CrashPlan`) injects a
    deterministic :class:`~repro.durability.errors.SimulatedCrash`, which
    this call re-raises -- the crash-restart harness's phase one.

    ``replicas`` pairs every active shard with that many hot standbys:
    full warehouse members subscribing to duplicates of the same
    per-(source, member) FIFO channels, installing in lockstep, mute on
    the answer path (only the authoritative member's views and verdicts
    appear on the result).  ``failover`` additionally kills the chosen
    shard's primary at a deterministic protocol point and promotes its
    first standby -- the in-process half of the failover-equivalence
    harness (:mod:`repro.harness.equivalence`, ``kill-primary``).

    ``rebalance`` migrates one non-primary view to another active shard
    *mid-run*: the donor seals and drains at the chosen protocol point,
    hands off the view's checkpoint-encoded state, and the fencing epoch
    re-routes the per-(source, member) streams with the donor forwarding
    the straggler window (see :mod:`repro.warehouse.migration`).  The
    run's ``rebalance_stats`` carries the structured protocol counters.
    Rebalancing a durable deployment is not supported.
    """
    if transport not in ("tcp", "local"):
        raise ValueError(f"unknown transport {transport!r}")
    if failover is not None and replicas < 1:
        raise ValueError(
            "failover needs at least one hot standby (replicas >= 1)"
        )
    if rebalance is not None and (
        durable_dir is not None or crash_plans
    ):
        raise ValueError(
            "rebalance cannot be combined with durability: a mid-migration"
            " checkpoint would split one view's authority across two WALs"
        )
    chaos = profile(chaos)
    predicate_stats_before = compile_cache_stats()
    rngs = RngRegistry(config.seed)
    workload = build_workload(config, rngs)
    family = views if views is not None else _sharded_views(config, workload)
    plan = partition_views(family, n_shards, strategy=strategy)
    reb_plan: RebalancePlan | None = None
    if rebalance is not None:
        reb_plan = RebalancePlan(plan, rebalance.view, rebalance.to_shard)
    migratable = reb_plan is not None
    rplan = assign_replicas(plan, replicas)
    members = rplan.members
    member_fanout_by_name = rplan.member_fanout()
    primary_chain = family[0]
    n = primary_chain.n_relations
    fanout = {
        index: member_fanout_by_name.get(primary_chain.name_of(index), ())
        for index in range(1, n + 1)
    }
    if failover is not None and failover.shard not in rplan.members_by_shard:
        raise ValueError(
            f"failover shard {failover.shard} hosts no views under"
            f" [{plan.describe()}]"
        )

    runtime = AsyncRuntime(time_scale=time_scale)
    metrics = MetricsCollector()
    trace = TraceLog(enabled=config.trace)
    trace_arg = trace if config.trace else None
    # One recorder set per member: primary and standby each classify
    # against their own delivery order, and only the authoritative
    # member's verdicts end up on the result.
    member_recorders: dict[ShardMember, dict[str, RunRecorder]] = {}
    for member in members:
        recs = {v.name: RunRecorder(v) for v in plan.views_for(member.shard)}
        for recorder in recs.values():
            for index in range(1, n + 1):
                recorder.register_source(
                    index,
                    primary_chain.name_of(index),
                    workload.initial_states[primary_chain.name_of(index)],
                )
        member_recorders[member] = recs
    all_recorders = [
        recorder
        for recs in member_recorders.values()
        for recorder in recs.values()
    ]

    chaos_stats = ChaosStats() if (chaos is not None and chaos.active) else None
    backends: list = []
    channels: list = []
    mailboxes: list[Mailbox] = []
    proxies: list[ChaosTcpProxy] = []
    warehouses: dict[ShardMember, object] = {}
    member_nodes: dict[ShardMember, ShardNode] = {}
    source_nodes: list[ShardedSourceNode] = []
    fronts: dict[int, ShardedSourceFront] = {}
    managers: list[DurabilityManager] = []
    recovered_states: dict[ShardMember, RecoveredState] = {}
    member_inboxes: dict[ShardMember, Mailbox] = {}
    dead: set[ShardMember] = set()
    promotions: dict[int, str] = {}
    crash_plans = crash_plans or {}

    def _member_dir(member: ShardMember) -> str | None:
        if durable_dir is None:
            return None
        suffix = (
            f"shard{member.shard}"
            if member.is_primary
            else f"shard{member.shard}r{member.replica}"
        )
        return os.path.join(durable_dir, suffix)
    shard_primaries = {
        shard: plan.views_for(shard)[0].name for shard in plan.active_shards
    }

    async def _front_address(link: str, address: tuple[str, int]):
        if chaos_stats is None:
            return address
        proxy = ChaosTcpProxy(
            runtime,
            link,
            address,
            chaos,
            seed=config.seed,
            stats=chaos_stats,
            listen_host=host,
        )
        await proxy.start()
        proxies.append(proxy)
        return proxy.address

    def _local_channel(link: str, destination):
        if chaos_stats is None:
            channel = LocalChannel(runtime, link, destination, metrics)
        else:
            channel = ChaosLocalChannel(
                runtime,
                link,
                destination,
                metrics,
                config=chaos,
                seed=config.seed,
                stats=chaos_stats,
            )
        channels.append(channel)
        return channel

    if transport == "local":
        for member in members:
            member_inboxes[member] = (
                LoggingMailbox(runtime, f"{member.label}-inbox")
                if durable_dir is not None
                else Mailbox(runtime, f"{member.label}-inbox")
            )
        mailboxes.extend(member_inboxes.values())
        for index in range(1, n + 1):
            name = primary_chain.name_of(index)
            backend = _make_backend(
                config, primary_chain, index, workload.initial_states[name]
            )
            backends.append(backend)
            update_channels = {
                member: _local_channel(
                    f"{name}->{member.label}", member_inboxes[member]
                )
                for member in fanout[index]
            }
            front = ShardedSourceFront(
                runtime,
                primary_chain,
                index,
                backend,
                update_channels,
                query_service_time=config.query_service_time,
                trace=trace_arg,
            )
            front.add_update_listener(
                lambda notice: [
                    r.history.on_source_update(notice) for r in all_recorders
                ]
            )
            fronts[index] = front
            mailboxes.extend(front.query_inboxes.values())
        for member in members:
            shard_views = plan.views_for(member.shard)
            query_channels = {
                index: _local_channel(
                    f"{member.label}->{primary_chain.name_of(index)}",
                    fronts[index].query_inboxes[member],
                )
                for index in range(1, n + 1)
            }
            warehouses[member] = build_shard_warehouse(
                runtime,
                shard_views,
                query_channels,
                workload.initial_states,
                member_recorders[member],
                config,
                member_inboxes[member],
                metrics,
                trace_arg,
                migratable=migratable,
            )
            if durable_dir is not None:
                manager, state = attach_durability(
                    warehouses[member],
                    _member_dir(member),
                    policy=checkpoint_policy,
                    fsync_batch=fsync_batch,
                    crash_plan=(
                        crash_plans.get(member.shard)
                        if member.is_primary
                        else None
                    ),
                )
                managers.append(manager)
                if state is not None:
                    recovered_states[member] = state
    else:
        placeholder = ("127.0.0.1", 1)
        for index in range(1, n + 1):
            name = primary_chain.name_of(index)
            backend = _make_backend(
                config, primary_chain, index, workload.initial_states[name]
            )
            backends.append(backend)
            node = ShardedSourceNode(
                runtime,
                family,
                index,
                backend,
                {member: placeholder for member in fanout[index]},
                query_service_time=config.query_service_time,
                metrics=metrics,
                trace=trace_arg,
                listen_host=host,
                tcp_config=tcp_config,
            )
            await node.start()
            node.front.add_update_listener(
                lambda notice: [
                    r.history.on_source_update(notice) for r in all_recorders
                ]
            )
            source_nodes.append(node)
            fronts[index] = node.front
            mailboxes.extend(node.front.query_inboxes.values())
        for member in members:
            shard_views = plan.views_for(member.shard)
            node = ShardNode(
                runtime,
                member.shard,
                shard_views,
                {
                    index: await _front_address(
                        f"{member.label}->{source.name}", source.address
                    )
                    for index, source in zip(range(1, n + 1), source_nodes)
                },
                workload.initial_states,
                config,
                recorders=member_recorders[member],
                metrics=metrics,
                trace=trace_arg,
                listen_host=host,
                tcp_config=tcp_config,
                durable_dir=_member_dir(member),
                checkpoint_policy=checkpoint_policy,
                fsync_batch=fsync_batch,
                crash_plan=(
                    crash_plans.get(member.shard)
                    if member.is_primary
                    else None
                ),
                member=member,
                migratable=migratable,
                codec_views=family if migratable else None,
            )
            await node.start()
            member_nodes[member] = node
            warehouses[member] = node.warehouse
            member_inboxes[member] = node.inbox
            mailboxes.append(node.inbox)
            if node.recovered_state is not None:
                recovered_states[member] = node.recovered_state
        for source in source_nodes:
            for member, channel in source.update_channels.items():
                channel.host, channel.port = await _front_address(
                    f"{source.name}->{member.label}",
                    member_nodes[member].address,
                )

    # Attach migration states and arm the rebalance trigger on the donor
    # primary.  Standby members migrate in lockstep with their primaries:
    # donor standby k seals and donates to recipient standby k over their
    # own channel pair, so a later failover on either shard still finds a
    # standby whose view set matches its primary's.
    rebalance_trigger: _RebalanceTrigger | None = None
    coordinator: RebalanceCoordinator | None = None
    if reb_plan is not None:
        vdef = next(v for v in family if v.name == reb_plan.view)
        coordinator = RebalanceCoordinator(
            reb_plan, runtime, primary_chain, fronts, member_recorders
        )
        donor_members = rplan.members_by_shard[reb_plan.from_shard]
        recipient_members = rplan.members_by_shard[reb_plan.to_shard]
        mutated = rebalance.skip_straggler_forwarding
        for donor_m, recipient_m in zip(donor_members, recipient_members):
            donor_state = MigrationMemberState(
                role="donor",
                view_def=vdef,
                epoch=coordinator.epoch,
                coordinator=coordinator,
                member=donor_m,
                n_sources=n,
                skip_forwarding=mutated,
            )
            recipient_state = MigrationMemberState(
                role="recipient",
                view_def=vdef,
                epoch=coordinator.epoch,
                coordinator=coordinator,
                member=recipient_m,
                n_sources=n,
                skip_forwarding=mutated,
                relaxed=mutated,
            )
            warehouses[donor_m].attach_migration(donor_state)
            warehouses[recipient_m].attach_migration(recipient_state)
            coordinator.register_pair(
                donor_m,
                recipient_m,
                donor_state,
                member_inboxes[recipient_m],
            )
        rebalance_trigger = _RebalanceTrigger(
            rebalance,
            warehouses[rplan.primary_of(reb_plan.from_shard)],
            coordinator,
        )

    # Arm the deterministic kill switch on the victim shard's primary.
    kill_switch: _KillSwitch | None = None
    if failover is not None:
        victim = rplan.primary_of(failover.shard)
        standby = rplan.standbys_of(failover.shard)[0]

        def _on_fire(switch, victim=victim, standby=standby):
            # The primary is gone: seal its inbox (models the process
            # disappearing while peers keep sending) and hand authority
            # to the standby, which is already at the same FIFO position
            # on its own channels.
            dead.add(victim)
            member_inboxes[victim].seal()
            promotions[failover.shard] = standby.label
            if failover.unfenced_replay and switch.last_notice is not None:
                # Mutation hook: a fence-skipping takeover of the dead
                # primary's channel replays its last delivered frame
                # into the standby -- a duplicate the epoch fence would
                # have dropped.  The oracle must fail this run.
                member_inboxes[standby].put(
                    Message(
                        kind="update",
                        sender=f"unfenced-replay-{victim.label}",
                        payload=dataclasses.replace(
                            switch.last_notice,
                            delivery_seq=None,
                            delivered_at=0.0,
                        ),
                    )
                )

        kill_switch = _KillSwitch(failover, warehouses[victim], _on_fire)

    updaters = [
        ScheduledUpdater(
            runtime,
            primary_chain.name_of(index),
            fronts[index].local_update,
            schedule,
        )
        for index, schedule in sorted(workload.schedules.items())
    ]
    member_expected = {
        member: sum(
            len(workload.schedules.get(index, ()))
            for index in range(1, n + 1)
            if member in fanout[index]
        )
        for member in members
    }
    # A recovered member's recorder counts only this incarnation's
    # deliveries: the replayed checkpoint/WAL pending plus whatever the
    # durable marks have not fenced off as redeliveries.
    for member, state in recovered_states.items():
        member_expected[member] += len(state.pending) - state.delivered_total

    started = _time.perf_counter()
    try:
        def finished() -> bool:
            if not all(updater.done for updater in updaters):
                return False
            for member in members:
                if member in dead:
                    continue
                rec = member_recorders[member][shard_primaries[member.shard]]
                if rec.updates_delivered < member_expected[member]:
                    return False
            if not runtime.settled():
                return False
            if any(
                wh.pending_work()
                for member, wh in warehouses.items()
                if member not in dead
            ):
                return False
            if transport == "local":
                if not all(channel.idle for channel in channels):
                    return False
            else:
                if not all(
                    node.quiescent()
                    for member, node in member_nodes.items()
                    if member not in dead
                ):
                    return False
                if not all(node.quiescent() for node in source_nodes):
                    return False
            return all(len(box) == 0 for box in mailboxes)

        await runtime.wait_until(finished, timeout=timeout)
        wall = _time.perf_counter() - started
        record_predicate_cache_delta(metrics, predicate_stats_before)
        if kill_switch is not None and not kill_switch.fired:
            raise RuntimeHostError(
                f"failover kill switch never fired ({failover!r}):"
                " thresholds exceed the workload's protocol events"
            )
        if rebalance_trigger is not None and not rebalance_trigger.fired:
            raise RuntimeHostError(
                f"rebalance trigger never fired ({rebalance!r}):"
                " thresholds exceed the workload's protocol events"
            )
        if coordinator is not None:
            for recipient_m in coordinator._recipient_inboxes:
                if recipient_m in dead:
                    continue
                member_stats = warehouses[recipient_m].migration_stats()
                if not member_stats["catchup_done"]:
                    raise RuntimeHostError(
                        f"rebalance incomplete: member {recipient_m.label}"
                        f" settled before catch-up ({member_stats!r})"
                    )

        # Authority per shard: the primary, or -- after a failover --
        # the first surviving standby.  Only the authoritative member's
        # views, verdicts, and recorders appear on the result (the
        # standby is mute on the answer path until promoted).
        def _authority(shard: int) -> ShardMember:
            for candidate in rplan.members_by_shard[shard]:
                if candidate not in dead:
                    return candidate
            raise RuntimeHostError(f"shard {shard}: no surviving member")

        # Views (and their recorders) are read from the member that hosts
        # them at the END of the run: the launch plan unless a rebalance
        # moved one.  The migrated view's recorder owns its own spliced
        # delivery order (donor prefix + catch-up + steady state), so it
        # is excluded from the primary-order copy below.
        effective_plan = (
            reb_plan.result_plan() if reb_plan is not None else plan
        )
        migrated = reb_plan.view if reb_plan is not None else None
        recorders: dict[str, RunRecorder] = {}
        final_views: dict[str, Relation] = {}
        for shard in effective_plan.active_shards:
            member = _authority(shard)
            recs = member_recorders[member]
            # Extra views share their shard primary's delivery order.
            primary_deliveries = recs[shard_primaries[shard]].deliveries
            for view in effective_plan.views_for(shard):
                if view.name in (shard_primaries[shard], migrated):
                    continue
                recs[view.name].deliveries = list(primary_deliveries)
            recorders.update(recs)
            for view in effective_plan.views_for(shard):
                final_views[view.name] = warehouses[member].view_contents(
                    view.name
                )
        levels: dict[str, ConsistencyLevel] = {}
        if config.check_consistency:
            levels = {
                name: recorders[name].classify(
                    max_vectors=config.max_check_vectors
                )
                for name in final_views
            }
        rebalance_stats = None
        if coordinator is not None:
            per_member = {
                key.label: warehouses[key].migration_stats()
                for key in coordinator.members
                if key not in dead
            }
            totals = {
                counter: sum(m.get(counter, 0) for m in per_member.values())
                for counter in (
                    "gap_forwarded",
                    "gap_skipped",
                    "pen_retained",
                    "dup_dropped",
                    "catchup_installs",
                    "aux_adopted",
                    "aux_adopt_skipped",
                )
            }
            donor_primary = rplan.primary_of(reb_plan.from_shard)
            seal_position = (
                warehouses[donor_primary].migration_stats()["seal_position"]
                if donor_primary not in dead
                else {}
            )
            rebalance_stats = {
                "view": reb_plan.view,
                "from_shard": reb_plan.from_shard,
                "to_shard": reb_plan.to_shard,
                "epoch": coordinator.epoch,
                "fired": rebalance_trigger.fired,
                "boundaries": dict(coordinator.boundaries),
                "seal_position": seal_position,
                "completed": all(
                    m["catchup_done"]
                    for m in per_member.values()
                    if m["role"] == "recipient"
                ),
                **totals,
                "members": per_member,
            }
        return ShardedRunResult(
            config=config,
            n_shards=n_shards,
            transport=transport,
            time_scale=time_scale,
            plan=effective_plan,
            final_views=final_views,
            levels=levels,
            recorders=recorders,
            metrics=metrics,
            updates_total=workload.total_updates,
            deliveries_total=sum(
                recorders[shard_primaries[shard]].updates_delivered
                for shard in plan.active_shards
            ),
            wall_seconds=wall,
            chaos_profile=chaos.name if chaos is not None else None,
            chaos_stats=chaos_stats,
            recovered_pending=(
                {
                    member.shard: len(state.pending)
                    for member, state in recovered_states.items()
                    if member.is_primary
                }
                if recovered_states
                else None
            ),
            replicas=replicas,
            promotions=promotions or None,
            rebalance_stats=rebalance_stats,
        )
    finally:
        for manager in managers:
            manager.close()
        for node in member_nodes.values():
            await node.aclose()
        for node in source_nodes:
            await node.aclose()
        for proxy in proxies:
            await proxy.aclose()
        for backend in backends:
            backend.close()
        await runtime.aclose()


def run_sharded(
    config: ExperimentConfig,
    n_shards: int = 2,
    transport: str = "local",
    time_scale: float = 0.01,
    host: str = "127.0.0.1",
    timeout: float = 120.0,
    tcp_config: TcpChannelConfig | None = None,
    chaos: "ChaosConfig | str | None" = None,
    views: list[ViewDefinition] | None = None,
    strategy: str = "hash",
    durable_dir: str | None = None,
    checkpoint_policy: CheckpointPolicy | None = None,
    fsync_batch: int = 8,
    crash_plans: "dict[int, CrashPlan] | None" = None,
    replicas: int = 0,
    failover: FailoverSpec | None = None,
    rebalance: RebalanceSpec | None = None,
) -> ShardedRunResult:
    """Blocking wrapper: one sharded experiment in a fresh event loop."""
    return asyncio.run(
        run_sharded_async(
            config,
            n_shards=n_shards,
            transport=transport,
            time_scale=time_scale,
            host=host,
            timeout=timeout,
            tcp_config=tcp_config,
            chaos=chaos,
            views=views,
            strategy=strategy,
            durable_dir=durable_dir,
            checkpoint_policy=checkpoint_policy,
            fsync_batch=fsync_batch,
            crash_plans=crash_plans,
            replicas=replicas,
            failover=failover,
            rebalance=rebalance,
        )
    )


# ---------------------------------------------------------------------------
# Multi-process entry points (repro serve-shard + ShardSupervisor)
# ---------------------------------------------------------------------------

async def serve_shard_async(
    config: ExperimentConfig,
    shard_id: int,
    n_shards: int,
    source_addresses: dict[int, tuple[str, int]],
    listen_host: str = "127.0.0.1",
    listen_port: int = 0,
    time_scale: float = 0.01,
    expect_updates: int | None = None,
    timeout: float = 3600.0,
    tcp_config: TcpChannelConfig | None = None,
    strategy: str = "hash",
    probe: bool = True,
    verify: bool = True,
    durable_dir: str | None = None,
    checkpoint_policy: CheckpointPolicy | None = None,
    fsync_batch: int = 8,
    replica: int = 0,
    seed_from: str | None = None,
) -> ShardedRunResult:
    """Host one warehouse shard of a multi-process sharded deployment.

    Every process derives the identical view family and plan from the
    shared config (``view_family`` + ``partition_views`` are pure), so no
    schema or assignment is exchanged.  Source histories are reconstructed
    locally from the seeded schedule, which lets this shard verify its
    views' consistency in-process; with ``verify=True`` a view falling
    short of its scheduler's claimed level raises
    :class:`ShardVerificationError` (and the CLI exits non-zero) -- the
    supervisor's oracle gate for free.

    ``durable_dir`` makes the shard crash-restartable: it checkpoints and
    WAL-logs there, and a relaunch over the same directory (what
    ``ShardSupervisor`` does under ``restart="on-crash"``) recovers the
    views and re-enters the protocol where the durable state left off.

    ``replica > 0`` hosts the shard as a **hot standby**
    (``repro serve-shard --standby-of N``): the identical warehouse
    under the member label ``sh<N>r<K>``, subscribing to its own copies
    of the per-source channels and verifying its views independently.
    ``seed_from`` bootstraps a fresh standby's durable directory from
    the primary's newest checkpoint (never the WAL -- see
    :func:`repro.durability.recovery.seed_standby_dir`).
    """
    member = ShardMember(shard_id, replica)
    if seed_from is not None and durable_dir is not None:
        from repro.durability.recovery import seed_standby_dir

        seeded = seed_standby_dir(seed_from, durable_dir)
        if seeded is not None:
            print(
                f"shard[{member.label}] seeded durable dir from"
                f" {seed_from} at generation {seeded}",
                flush=True,
            )
    rngs = RngRegistry(config.seed)
    workload = build_workload(config, rngs)
    family = _sharded_views(config, workload)
    plan = partition_views(family, n_shards, strategy=strategy)
    shard_views = plan.views_for(shard_id)
    if not shard_views:
        raise ValueError(
            f"shard {shard_id} hosts no views under plan [{plan.describe()}]"
        )
    runtime = AsyncRuntime(time_scale=time_scale)
    metrics = MetricsCollector()
    trace = TraceLog(enabled=config.trace)
    recorders = {view.name: RunRecorder(view) for view in shard_views}
    primary_chain = family[0]
    for recorder in recorders.values():
        for index in range(1, primary_chain.n_relations + 1):
            recorder.register_source(
                index,
                primary_chain.name_of(index),
                workload.initial_states[primary_chain.name_of(index)],
            )
    seed_history_from_workload(recorders, workload)
    node = ShardNode(
        runtime,
        shard_id,
        shard_views,
        source_addresses,
        workload.initial_states,
        config,
        recorders=recorders,
        metrics=metrics,
        trace=trace if config.trace else None,
        listen_host=listen_host,
        listen_port=listen_port,
        tcp_config=tcp_config,
        durable_dir=durable_dir,
        checkpoint_policy=checkpoint_policy,
        fsync_batch=fsync_batch,
        member=member,
    )
    await node.start()
    recovered = node.recovered_state
    print(
        f"shard[{member.label}/{n_shards}] hosting"
        f" {[v.name for v in shard_views]} listening on"
        f" {node.address[0]}:{node.address[1]}"
        + (
            f" (recovered generation {recovered.generation},"
            f" {len(recovered.pending)} pending replayed)"
            if recovered is not None
            else ""
        ),
        flush=True,
    )
    started = _time.perf_counter()
    try:
        if probe:
            for index, (phost, pport) in sorted(source_addresses.items()):
                await probe_peer(
                    phost, pport, tcp_config, what=f"source R{index}"
                )
        expected = (
            expect_updates
            if expect_updates is not None
            else workload.total_updates
        )
        if recovered is not None:
            # Only this incarnation's deliveries count: the replayed
            # pending, plus everything past the durable marks.
            expected += len(recovered.pending) - recovered.delivered_total
        primary_recorder = recorders[shard_views[0].name]

        def finished() -> bool:
            return (
                primary_recorder.updates_delivered >= expected
                and runtime.settled()
                and node.quiescent()
            )

        await runtime.wait_until(finished, timeout=timeout)
        wall = _time.perf_counter() - started
        primary_deliveries = primary_recorder.deliveries
        for view in shard_views[1:]:
            recorders[view.name].deliveries = list(primary_deliveries)
        final_views = {
            view.name: node.warehouse.view_contents(view.name)
            for view in shard_views
        }
        levels: dict[str, ConsistencyLevel] = {}
        if config.check_consistency:
            levels = {
                name: recorders[name].classify(
                    max_vectors=config.max_check_vectors
                )
                for name in final_views
            }
        result = ShardedRunResult(
            config=config,
            n_shards=n_shards,
            transport="tcp",
            time_scale=time_scale,
            plan=plan,
            final_views=final_views,
            levels=levels,
            recorders=recorders,
            metrics=metrics,
            updates_total=expected,
            deliveries_total=primary_recorder.updates_delivered,
            wall_seconds=wall,
            recovered_pending=(
                {shard_id: len(recovered.pending)}
                if recovered is not None
                else None
            ),
        )
        if verify and config.check_consistency:
            claimed = CLAIMED_LEVELS.get(
                config.algorithm, ConsistencyLevel.CONVERGENCE
            )
            failing = {
                name: level.name.lower()
                for name, level in levels.items()
                if level < claimed
            }
            if failing:
                raise ShardVerificationError(
                    f"shard {shard_id}: views below claimed"
                    f" {claimed.name.lower()}: {failing}"
                )
        return result
    finally:
        await node.aclose()
        await runtime.aclose()


async def serve_sharded_source_async(
    config: ExperimentConfig,
    index: int,
    shard_addresses: dict[int, tuple[str, int]],
    listen_host: str = "127.0.0.1",
    listen_port: int = 0,
    time_scale: float = 0.01,
    drive: bool = True,
    exit_when_done: bool = True,
    linger: float = 3.0,
    timeout: float = 3600.0,
    tcp_config: TcpChannelConfig | None = None,
    probe: bool = True,
) -> None:
    """Host one data-source site of a multi-process *sharded* deployment.

    Like :func:`repro.runtime.distributed.serve_source_async`, but the
    site routes updates to several shard listeners (``shard_addresses``)
    through a :class:`ShardedSourceFront` and serves one query channel
    per shard.  With ``probe=True`` every shard address is
    connectivity-checked before any update is replayed.

    ``shard_addresses`` keys may be shard ints or :class:`ShardMember`
    instances (a replicated deployment lists every member).  Dead-peer
    tolerance is always armed: a member whose channel exhausts its
    retry budget mid-run is dropped iff another live member still
    carries its shard; losing a shard's *last* member fails the process
    with :class:`TransportRetriesExceeded`, exactly as before.
    """
    rngs = RngRegistry(config.seed)
    workload = build_workload(config, rngs)
    family = _sharded_views(config, workload)
    primary = family[0]
    runtime = AsyncRuntime(time_scale=time_scale)
    backend = _make_backend(
        config, primary, index, workload.initial_states[primary.name_of(index)]
    )
    node = ShardedSourceNode(
        runtime,
        family,
        index,
        backend,
        shard_addresses,
        query_service_time=config.query_service_time,
        listen_host=listen_host,
        listen_port=listen_port,
        tcp_config=tcp_config,
    )
    await node.start()
    node.tolerate_dead_members()
    print(
        f"source[{node.name}] serving members"
        f" {[_member_label(k) for k in sorted(shard_addresses)]}"
        f" listening on {node.address[0]}:{node.address[1]}",
        flush=True,
    )
    try:
        if probe:
            # Probe with replica-group tolerance: a member that died
            # before this source finished starting up is dropped iff
            # another member of its group is reachable -- losing a
            # shard's last member still fails the process.
            unreachable: list = []
            probe_errors: dict = {}
            reachable_shards: set[int] = set()
            for key, (phost, pport) in sorted(shard_addresses.items()):
                try:
                    await probe_peer(
                        phost,
                        pport,
                        tcp_config,
                        what=f"member {_member_label(key)}",
                    )
                    reachable_shards.add(_as_member(key).shard)
                except TransportRetriesExceeded as exc:
                    unreachable.append(key)
                    probe_errors[key] = exc
            for key in unreachable:
                dead_member = _as_member(key)
                if dead_member.shard not in reachable_shards:
                    raise probe_errors[key]
                print(
                    f"source[{node.name}] member {dead_member.label}"
                    " unreachable at probe time; surviving member(s)"
                    f" carry shard {dead_member.shard}",
                    flush=True,
                )
                await node.drop_member(key)
        updater = None
        if drive and index in workload.schedules:
            updater = ScheduledUpdater(
                runtime,
                node.name,
                node.front.local_update,
                workload.schedules[index],
            )
        if updater is not None and exit_when_done:
            drained_at: list[float] = []

            def _finished() -> bool:
                if not (updater.done and node.quiescent()):
                    drained_at.clear()
                    return False
                now = _time.monotonic()
                if not drained_at:
                    drained_at.append(now)
                last = max(node.listener.last_frame_wall, drained_at[0])
                return now - last >= linger

            await runtime.wait_until(_finished, timeout=timeout)
        else:
            while True:  # serve until cancelled (Ctrl-C)
                runtime.check()
                await asyncio.sleep(0.2)
    finally:
        await node.aclose()
        backend.close()
        await runtime.aclose()


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned TCP port that was free a moment ago.

    Multi-process launches need addresses before the children exist;
    the tiny bind/close race is acceptable for CLI and test use.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


#: exit code host commands use for *deliberate* failures (verification
#: below the claimed level, peer unreachable after the retry budget).
#: Distinct from 1 (unhandled exception = crash) and 2 (argparse usage
#: error) so a restart policy can tell "this member failed cleanly and
#: would fail identically again" from "this member died".
CLEAN_FAILURE_EXIT = 3

#: exit codes the supervisor never restarts: deliberate failures and
#: usage errors reproduce themselves, so relaunching would hot-loop.
_NO_RESTART_CODES = frozenset({2, CLEAN_FAILURE_EXIT})


class ShardSupervisor:
    """Launch and babysit the processes of a sharded deployment.

    The supervisor's base job is **crash detection**: a member exiting
    non-zero while the fleet is still working kills every remaining
    process and raises :class:`ShardCrashed` naming the culprit (with its
    captured stderr tail).  A fleet where every member exits 0 is a
    successful deployment -- shards verify their own views before
    exiting, so supervisor success implies oracle success.

    With ``restart="on-crash"`` a member launched with
    ``restartable=True`` that *crashes* (killed by a signal, or any exit
    code outside :data:`_NO_RESTART_CODES`) is relaunched with its
    original argv -- up to ``max_restarts`` times, after an escalating
    ``backoff`` -- instead of failing the fleet.  Only durable shards are
    restartable: they relaunch over their ``--durable-dir`` and recover;
    sources have no durable state to come back from.  Clean non-zero
    exits (:data:`CLEAN_FAILURE_EXIT`, e.g. a failed consistency check or
    ``TransportRetriesExceeded`` from a probe) are never restarted: they
    are answers, not accidents.

    A member launched with ``standby_for="shard3"`` is shard3's **hot
    standby**: when the primary *crashes* while the standby is alive the
    supervisor promotes instead of failing the fleet (the standby
    already holds the state at the same FIFO position -- promotion is
    pure bookkeeping here, recorded in :attr:`promotions`); a crashed
    standby whose primary is healthy is tolerated the same way.
    Promotion takes precedence over restart, and clean failures
    (:data:`_NO_RESTART_CODES`) never promote -- a verification failure
    would reproduce on the standby too, so it must fail the fleet.
    """

    def __init__(
        self,
        poll_interval: float = 0.2,
        restart: str = "never",
        max_restarts: int = 2,
        backoff: float = 0.5,
    ):
        if restart not in ("never", "on-crash"):
            raise ValueError(f"unknown restart policy {restart!r}")
        self.poll_interval = poll_interval
        self.restart = restart
        self.max_restarts = max_restarts
        self.backoff = backoff
        self.procs: dict[str, subprocess.Popen] = {}
        self._specs: dict[str, tuple[list[str], dict, bool]] = {}
        self.restarts: dict[str, int] = {}
        #: human-readable record of every relaunch decision.
        self.restart_log: list[str] = []
        #: standby name -> the primary process it shadows.
        self.standby_of: dict[str, str] = {}
        #: dead primary name -> the standby promoted in its place.
        self.promoted: dict[str, str] = {}
        #: human-readable record of every promotion/tolerance decision,
        #: stamped with seconds since the supervisor started waiting.
        self.failover_log: list[str] = []
        self._wait_started: float | None = None

    def launch(
        self,
        name: str,
        argv: list[str],
        restartable: bool = False,
        standby_for: str | None = None,
        **popen_kwargs,
    ) -> None:
        if name in self.procs:
            raise ValueError(f"duplicate process name {name!r}")
        if standby_for is not None:
            if standby_for not in self.procs:
                raise ValueError(
                    f"standby {name!r} shadows unknown process {standby_for!r}"
                )
            self.standby_of[name] = standby_for
        self._specs[name] = (list(argv), dict(popen_kwargs), restartable)
        self.restarts[name] = 0
        self.procs[name] = self._spawn(name)

    def _spawn(self, name: str) -> subprocess.Popen:
        argv, popen_kwargs, _ = self._specs[name]
        return subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            **popen_kwargs,
        )

    def _try_restart(self, name: str, code: int) -> bool:
        """Relaunch a crashed member if the policy allows; True on relaunch."""
        _, _, restartable = self._specs[name]
        if (
            self.restart != "on-crash"
            or not restartable
            or code in _NO_RESTART_CODES
        ):
            return False
        if self.restarts[name] >= self.max_restarts:
            self.restart_log.append(
                f"{name}: exit {code}, restart budget"
                f" ({self.max_restarts}) exhausted"
            )
            return False
        # Reap the dead incarnation's pipes before replacing it.
        _, stderr = self.procs[name].communicate()
        self.restarts[name] += 1
        attempt = self.restarts[name]
        tail = "\n".join((stderr or "").strip().splitlines()[-3:])
        self.restart_log.append(
            f"{name}: exit {code}, relaunch {attempt}/{self.max_restarts}"
            + (f" (stderr tail: {tail})" if tail else "")
        )
        _time.sleep(self.backoff * attempt)
        self.procs[name] = self._spawn(name)
        return True

    def _elapsed(self) -> float:
        if self._wait_started is None:
            return 0.0
        return _time.monotonic() - self._wait_started

    def _is_healthy(self, name: str) -> bool:
        """Still running, or finished its work cleanly."""
        proc = self.procs.get(name)
        return proc is not None and proc.poll() in (None, 0)

    def _standbys_for(self, name: str) -> list[str]:
        return [s for s, p in self.standby_of.items() if p == name]

    def _try_failover(self, name: str, code: int) -> bool:
        """Absorb a replica-group member's crash; True when tolerated.

        A crashed primary with a live standby is *promoted over*: the
        standby becomes the group's authority (it verifies its own views
        before exiting, so fleet success still implies oracle success).
        A crashed standby with a healthy primary is simply dropped.
        Clean failures are answers, not accidents -- never absorbed.
        """
        if code in _NO_RESTART_CODES:
            return False
        standbys = [s for s in self._standbys_for(name) if self._is_healthy(s)]
        if standbys:
            promoted = standbys[0]
            _, stderr = self.procs[name].communicate()
            del self.procs[name]
            self.standby_of.pop(promoted, None)
            self.promoted[name] = promoted
            self.failover_log.append(
                f"[t+{self._elapsed():.2f}s] {name}: exit {code},"
                f" promoted standby {promoted}"
            )
            return True
        primary = self.standby_of.get(name)
        if primary is not None and self._is_healthy(primary):
            self.procs[name].communicate()
            del self.procs[name]
            del self.standby_of[name]
            self.failover_log.append(
                f"[t+{self._elapsed():.2f}s] {name}: exit {code}, standby"
                f" death tolerated (primary {primary} healthy)"
            )
            return True
        return False

    def running(self) -> list[str]:
        return [
            name for name, proc in self.procs.items() if proc.poll() is None
        ]

    def terminate_all(self, grace: float = 5.0) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = _time.monotonic() + grace
        for proc in self.procs.values():
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.1, deadline - _time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def wait(self, timeout: float = 300.0) -> dict[str, str]:
        """Block until every member exits 0; return each member's stdout.

        Raises :class:`ShardCrashed` on the first non-zero exit (after
        terminating the remaining members) and :class:`TimeoutError` when
        the fleet outlives ``timeout`` seconds.
        """
        deadline = _time.monotonic() + timeout
        self._wait_started = _time.monotonic()
        try:
            while True:
                all_done = True
                for name, proc in list(self.procs.items()):
                    code = proc.poll()
                    if code is None:
                        all_done = False
                    elif code != 0:
                        if self._try_failover(name, code):
                            continue
                        if self._try_restart(name, code):
                            all_done = False
                            continue
                        _, stderr = proc.communicate()
                        self.terminate_all()
                        tail = "\n".join(
                            (stderr or "").strip().splitlines()[-8:]
                        )
                        raise ShardCrashed(
                            f"process {name!r} exited {code}"
                            + (f"; stderr tail:\n{tail}" if tail else "")
                        )
                if all_done:
                    return {
                        name: proc.communicate()[0] or ""
                        for name, proc in self.procs.items()
                    }
                if _time.monotonic() >= deadline:
                    self.terminate_all()
                    raise TimeoutError(
                        f"sharded deployment still running after {timeout}s:"
                        f" {self.running()}"
                    )
                _time.sleep(self.poll_interval)
        except BaseException:
            self.terminate_all()
            raise


def _config_argv(config: ExperimentConfig, time_scale: float) -> list[str]:
    """CLI flags reproducing the deployment-agreement knobs of a config."""
    argv = [
        "--algorithm", config.algorithm,
        "--sources", str(config.n_sources),
        "--updates", str(config.n_updates),
        "--seed", str(config.seed),
        "--backend", config.backend,
        "--interarrival", str(config.mean_interarrival),
        "--insert-fraction", str(config.insert_fraction),
        "--rows", str(config.rows_per_relation),
        "--time-scale", str(time_scale),
        "--views", str(config.n_views),
        "--batch-max", str(config.batch_max),
        "--locality", config.locality,
        "--locality-budget", str(config.locality_budget_rows),
    ]
    if config.batch_adaptive:
        argv.append("--adaptive-batch")
    return argv


def build_sharded_supervisor(
    config: ExperimentConfig,
    n_shards: int,
    time_scale: float = 0.01,
    strategy: str = "hash",
    host: str = "127.0.0.1",
    timeout: float = 300.0,
    linger: float = 1.0,
    durable_root: str | None = None,
    restart: str = "never",
    max_restarts: int = 2,
    replicas: int = 0,
) -> ShardSupervisor:
    """Launch a full sharded fleet and return its (not yet waited) supervisor.

    One ``repro serve-shard`` per replica-group member, one
    ``repro serve-source`` per source.  With ``durable_root`` each member
    gets ``--durable-dir <durable_root>/<label>`` and primaries are
    launched ``restartable``; combined with ``restart="on-crash"`` a
    SIGKILLed shard is relaunched and recovers from its durable directory
    while the sources retransmit their unacked frames.

    ``replicas`` adds that many hot standbys per shard, each launched
    with ``--standby-of`` and registered with the supervisor via
    ``standby_for`` -- so a SIGKILLed primary is *promoted over* (the
    standby carries the shard and the fleet exits 0) rather than failing
    or restarting the deployment.
    """
    rngs = RngRegistry(config.seed)
    workload = build_workload(config, rngs)
    family = _sharded_views(config, workload)
    plan = partition_views(family, n_shards, strategy=strategy)
    rplan = assign_replicas(plan, replicas)
    primary = family[0]
    n = primary.n_relations
    member_fanout_by_name = rplan.member_fanout()
    member_ports = {member: free_port(host) for member in rplan.members}
    source_ports = {index: free_port(host) for index in range(1, n + 1)}
    base = [sys.executable, "-m", "repro"]
    cfg_argv = _config_argv(config, time_scale)
    supervisor = ShardSupervisor(restart=restart, max_restarts=max_restarts)

    def _proc_name(member: ShardMember) -> str:
        if member.is_primary:
            return f"shard{member.shard}"
        return f"shard{member.shard}r{member.replica}"

    for member in rplan.members:
        argv = base + [
            "serve-shard", *cfg_argv,
            "--shards", str(n_shards),
            "--strategy", strategy,
            "--listen", f"{host}:{member_ports[member]}",
            "--timeout", str(timeout),
        ]
        if member.is_primary:
            argv += ["--shard-id", str(member.shard)]
        elif member.replica == 1:
            argv += ["--standby-of", str(member.shard)]
        else:
            argv += [
                "--shard-id", str(member.shard),
                "--replica", str(member.replica),
            ]
        if durable_root is not None:
            argv += [
                "--durable-dir",
                os.path.join(durable_root, _proc_name(member)),
            ]
        for index in range(1, n + 1):
            argv += ["--source", f"{index}={host}:{source_ports[index]}"]
        supervisor.launch(
            _proc_name(member),
            argv,
            restartable=durable_root is not None and member.is_primary,
            standby_for=(
                None if member.is_primary else f"shard{member.shard}"
            ),
        )
    for index in range(1, n + 1):
        argv = base + [
            "serve-source", *cfg_argv,
            "--index", str(index),
            "--listen", f"{host}:{source_ports[index]}",
            "--linger", str(linger),
            "--timeout", str(timeout),
        ]
        for member in member_fanout_by_name.get(primary.name_of(index), ()):
            key = (
                str(member.shard)
                if member.is_primary
                else f"{member.shard}r{member.replica}"
            )
            argv += ["--shard", f"{key}={host}:{member_ports[member]}"]
        supervisor.launch(f"source{index}", argv)
    return supervisor


def launch_sharded_processes(
    config: ExperimentConfig,
    n_shards: int,
    time_scale: float = 0.01,
    strategy: str = "hash",
    host: str = "127.0.0.1",
    timeout: float = 300.0,
    linger: float = 1.0,
    durable_root: str | None = None,
    restart: str = "never",
    max_restarts: int = 2,
    replicas: int = 0,
) -> dict[str, str]:
    """Run one sharded deployment as real OS processes, supervised.

    Launches the fleet via :func:`build_sharded_supervisor`, waits for it
    to exit cleanly, and returns each member's captured stdout.  Shards
    verify their views before exiting, so a clean fleet exit means every
    view passed its claimed consistency level; any member exiting
    non-zero (and not absorbed by the restart or failover policy) kills
    the rest and raises :class:`ShardCrashed`.
    """
    supervisor = build_sharded_supervisor(
        config,
        n_shards,
        time_scale=time_scale,
        strategy=strategy,
        host=host,
        timeout=timeout,
        linger=linger,
        durable_root=durable_root,
        restart=restart,
        max_restarts=max_restarts,
        replicas=replicas,
    )
    return supervisor.wait(timeout=timeout)


__all__ = [
    "CLAIMED_LEVELS",
    "CLEAN_FAILURE_EXIT",
    "FailoverSpec",
    "ShardCrashed",
    "ShardNode",
    "ShardSupervisor",
    "ShardVerificationError",
    "ShardedRunResult",
    "ShardedSourceFront",
    "ShardedSourceNode",
    "build_shard_warehouse",
    "build_sharded_supervisor",
    "free_port",
    "launch_sharded_processes",
    "run_sharded",
    "run_sharded_async",
    "seed_history_from_workload",
    "serve_shard_async",
    "serve_sharded_source_async",
]
