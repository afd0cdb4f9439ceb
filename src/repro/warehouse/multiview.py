"""Multi-view maintenance: many SPJ views, one update stream, shared sweeps.

A production warehouse rarely materializes a single view.  This module
maintains **any number of views over the same source chain** with SWEEP
semantics, and batches the per-view partial view changes of each sweep
step into one :class:`~repro.sources.messages.MultiQueryRequest` -- so the
message *count* per update stays ``2(n-1)``, independent of how many views
are maintained (payload rows grow with the views, nothing else does).

All views must agree on the relation chain (names and schemas, in order);
they are free to differ in join conditions, selections and projections.
Each view gets its own :class:`~repro.warehouse.view_store.MaterializedView`
and (optionally) its own consistency recorder; every view is maintained
with complete consistency, exactly as if it ran its own SWEEP -- the
batching changes the envelope, not the algebra, because every per-view
join inside one batched step is evaluated against the same atomic source
state and compensated against the same queued updates.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence

from repro.consistency.oracle import RunRecorder
from repro.relational.delta import Delta
from repro.relational.errors import SchemaError
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.sources.messages import MultiQueryRequest, UpdateNotice, next_request_id
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.batched import BatchedSweepWarehouse
from repro.warehouse.view_store import MaterializedView


def validate_same_chain(views: Sequence[ViewDefinition]) -> None:
    """All views must share relation names and schemas, in order."""
    if not views:
        raise SchemaError("need at least one view")
    first = views[0]
    for view in views[1:]:
        if view.relation_names != first.relation_names:
            raise SchemaError(
                f"view {view.name!r} has relations"
                f" {list(view.relation_names)!r}, expected"
                f" {list(first.relation_names)!r}"
            )
        for i in range(1, first.n_relations + 1):
            if view.schema_of(i).attributes != first.schema_of(i).attributes:
                raise SchemaError(
                    f"view {view.name!r} disagrees on schema of relation"
                    f" {first.name_of(i)!r}"
                )


class MultiViewStateMixin:
    """Per-view stores and install plumbing shared by multi-view warehouses.

    Mixed into a :class:`~repro.warehouse.base.QueueDrivenWarehouse`
    subclass *after* its ``__init__`` ran (so ``self.view``/``self.store``
    exist); the host calls :meth:`_init_extra_views` once.
    """

    def _init_extra_views(
        self,
        extra_views: Sequence[ViewDefinition],
        initial_states: dict[str, Relation] | None,
        extra_recorders: dict[str, RunRecorder] | None,
    ) -> None:
        self.views: list[ViewDefinition] = [self.view, *extra_views]
        validate_same_chain(self.views)
        names = [v.name for v in self.views]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate view names: {names!r}")
        self.stores: dict[str, MaterializedView] = {self.view.name: self.store}
        self.extra_recorders = dict(extra_recorders or {})
        for view in self.views[1:]:
            if initial_states is None:
                raise SchemaError(
                    "initial_states is required to initialize extra views"
                )
            self.stores[view.name] = MaterializedView.from_states(
                view, initial_states
            )
            recorder = self.extra_recorders.get(view.name)
            if recorder is not None:
                recorder.set_initial_view(self.stores[view.name].relation)

    def _install_extra(self, view: ViewDefinition, wide_delta, note: str) -> None:
        """Install one extra view's change and snapshot it for its oracle."""
        store = self.stores[view.name]
        store.install_wide(wide_delta)
        recorder = self.extra_recorders.get(view.name)
        if recorder is not None:
            recorder.on_install(
                self.sim.now,
                store.relation,
                claimed_vector=self._claimed_vector_for(view),
                note=note,
            )

    def view_contents(self, name: str) -> Relation:
        """Current contents of the named view."""
        return self.stores[name].snapshot()

    # ------------------------------------------------------------------
    # Per-view participation hooks.
    #
    # Normally every view of the shard participates in every unit of work
    # at the shard's shared position, so the defaults are trivial.  A view
    # mid-migration (see repro.warehouse.migration) lags or leads the
    # shard's position while it catches up from the donor's handoff, and
    # overrides these to steer exactly which updates it applies and which
    # queued updates its compensation may subtract.
    # ------------------------------------------------------------------
    def _partition_batch(
        self, batch: list[UpdateNotice]
    ) -> dict[str, list[UpdateNotice]]:
        """Which of ``batch`` each view applies in this unit of work."""
        return {view.name: list(batch) for view in self.views}

    def _claimed_vector_for(self, view: ViewDefinition) -> dict[int, int]:
        """The per-source position vector ``view``'s next install claims."""
        return dict(self.applied_counts)

    def _pending_floor(
        self,
        view: ViewDefinition,
        index: int,
        *,
        after_batch: bool,
        batch_count: int,
    ) -> int | None:
        """Smallest queued ``seq`` from ``index`` that may be compensated.

        ``None`` means no floor: every queued update interferes (the
        shard-position default -- queued seqs always exceed the applied
        count plus the in-flight batch, by the FIFO prefix property).
        A migrating view whose position differs from the shard's returns
        its own position (plus its ``batch_count`` participating updates
        when the wave targets the post-batch state, ``after_batch``).
        """
        return None

    def _note_applied_for_views(
        self, assignment: dict[str, list[UpdateNotice]]
    ) -> None:
        """Per-view position accounting, after ``mark_applied`` and before
        the installs of a unit of work."""


class MultiViewSweepWarehouse(MultiViewStateMixin, QueueDrivenWarehouse):
    """SWEEP maintaining several views with batched sweep steps.

    Parameters (beyond :class:`QueueDrivenWarehouse`'s):

    extra_views:
        Additional view definitions; the primary ``view`` is maintained
        too, as views[0].
    initial_states:
        Base relation contents used to initialize every extra view's
        store (the primary store is initialized via ``initial_view``).
    extra_recorders:
        Optional ``{view_name: RunRecorder}`` for per-view consistency
        verification of the extra views.
    """

    algorithm_name = "multi-view-sweep"

    def __init__(
        self,
        *args,
        extra_views: Sequence[ViewDefinition] = (),
        initial_states: dict[str, Relation] | None = None,
        extra_recorders: dict[str, RunRecorder] | None = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._init_extra_views(extra_views, initial_states, extra_recorders)

    # ------------------------------------------------------------------
    def view_change(self, notice: UpdateNotice) -> Generator:
        raise NotImplementedError("multi-view overrides process_update")

    def process_update(self, notice: UpdateNotice) -> Generator:
        i = notice.source_index
        n = self.view.n_relations
        assignment = self._partition_batch([notice])
        participants = [view for view in self.views if assignment[view.name]]
        if not participants:
            # Every view skipped this update (migration duplicate); the
            # shard position still advances past it.
            self.mark_applied([notice])
            self._note_applied_for_views(assignment)
            return
        partials = {
            view.name: PartialView.initial(view, i, notice.delta)
            for view in participants
        }
        sweep_order = list(range(i - 1, 0, -1)) + list(range(i + 1, n + 1))
        for j in sweep_order:
            temps = dict(partials)
            locality = self._live_locality()
            if locality is not None and locality.covers(j):
                # Covered source: every view's step is answered from the
                # same local copy, compensation-free (sequential install
                # order makes the copy exactly this update's position).
                for view in participants:
                    partials[view.name] = locality.aux_answer(
                        j, partials[view.name]
                    )
                continue
            ordered = [partials[view.name] for view in participants]
            if locality is not None:
                hits = locality.cache_lookup_many(j, ordered)
                if hits is not None:
                    self._answer_mark = self.update_queue.watermark
                    for view, hit in zip(participants, hits):
                        partials[view.name] = self._compensate_one(
                            j, hit, temps[view.name], view=view
                        )
                    continue
            request = MultiQueryRequest(
                request_id=next_request_id(), partials=ordered, target_index=j
            )
            self.send_query(j, request)
            answer = yield from self._await_answer(request)
            for view, got in zip(participants, answer.partials):
                partials[view.name] = self._compensate_one(
                    j, got, temps[view.name], view=view
                )

        self.mark_applied([notice])
        self._note_applied_for_views(assignment)
        note = f"update src={notice.source_index} seq={notice.seq}"
        for view in participants:
            partial = partials[view.name]
            if view.name == self.view.name:
                self.store.install_wide(partial.delta)
                self._after_install(note)
            else:
                self._install_extra(view, partial.delta, note)
        self.metrics.increment("multiview_installs")

    # ------------------------------------------------------------------
    def _compensate_one(
        self,
        index: int,
        answer: PartialView,
        temp: PartialView,
        view: ViewDefinition | None = None,
    ) -> PartialView:
        pending = self.pending_updates_from(index)
        if view is not None:
            floor = self._pending_floor(
                view, index, after_batch=False, batch_count=0
            )
            if floor is not None:
                pending = [p for p in pending if p.seq > floor]
        if not pending:
            return answer
        self.metrics.increment("compensations")
        merged = self.merged_pending_delta(pending)
        error = temp.extend(index, merged)
        return answer.compensate(error)


class MultiViewBatchedSweepWarehouse(MultiViewStateMixin, BatchedSweepWarehouse):
    """Batched sweep scheduler generalized to a family of same-chain views.

    One drained batch is maintained for *all* views with one pair of
    wavefronts: at each wave step the active terms of every view are
    packed into a single :class:`MultiQueryRequest`, so the message count
    per batch stays ``<= 4(n-1)`` regardless of how many views the shard
    hosts -- the same envelope-sharing trick as
    :class:`MultiViewSweepWarehouse`, applied to
    :class:`~repro.warehouse.batched.BatchedSweepWarehouse`'s composite
    sweep.  Every view receives one install per batch with the identical
    claimed vector, so each view independently satisfies the batched
    (strong) consistency the single-view scheduler guarantees.

    Accepts both sets of knobs: ``max_batch``/``adaptive`` from the
    batched scheduler and ``extra_views``/``initial_states``/
    ``extra_recorders`` from the multi-view warehouse.
    """

    algorithm_name = "multi-view-batched-sweep"

    def __init__(
        self,
        *args,
        extra_views: Sequence[ViewDefinition] = (),
        initial_states: dict[str, Relation] | None = None,
        extra_recorders: dict[str, RunRecorder] | None = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._init_extra_views(extra_views, initial_states, extra_recorders)

    # ------------------------------------------------------------------
    def process_batch(self, batch: list[UpdateNotice]) -> Generator:
        n = self.view.n_relations
        self.batches_processed += 1
        self.metrics.increment("batched_sweeps")
        self.metrics.observe("batch_size", len(batch))

        # Merge same-source deltas per view over that view's participating
        # prefix of the batch (normally the whole batch for every view).
        assignment = self._partition_batch(batch)
        merged_by_view: dict[str, dict[int, Delta]] = {}
        counts: dict[str, dict[int, int]] = {}
        for view in self.views:
            merged: dict[int, Delta] = {}
            count: dict[int, int] = {}
            for notice in assignment[view.name]:
                seen = merged.get(notice.source_index)
                if seen is None:
                    merged[notice.source_index] = notice.delta.copy()
                else:
                    seen.merge_in_place(notice.delta)
                count[notice.source_index] = count.get(notice.source_index, 0) + 1
            merged_by_view[view.name] = merged
            counts[view.name] = count
        # terms[view.name][i]: the term seeded with Delta-R_i, per view.
        terms: dict[str, dict[int, PartialView]] = {
            view.name: {
                index: PartialView.initial(view, index, delta)
                for index, delta in merged_by_view[view.name].items()
            }
            for view in self.views
        }
        union_sources = sorted(
            {i for merged in merged_by_view.values() for i in merged}
        )

        # Leftward wave: every view's term i wants R_j^new for j < i.
        for j in range(n - 1, 0, -1):
            active_by_view = {
                view.name: sorted(
                    i for i in merged_by_view[view.name] if i > j
                )
                for view in self.views
            }
            if not any(active_by_view.values()):
                continue
            locality = self._live_locality()
            if locality is not None and locality.covers(j):
                for view in self.views:
                    batch_delta = merged_by_view[view.name].get(j)
                    for i in active_by_view[view.name]:
                        terms[view.name][i] = self._local_wave_answer(
                            j, terms[view.name][i], batch_delta
                        )
                continue
            answers = yield from self._multi_query_views(
                j, terms, active_by_view
            )
            for view in self.views:
                floor = self._pending_floor(
                    view,
                    j,
                    after_batch=True,
                    batch_count=counts[view.name].get(j, 0),
                )
                for i in active_by_view[view.name]:
                    terms[view.name][i] = self._compensate_queued(
                        j,
                        answers[view.name][i],
                        terms[view.name][i],
                        floor=floor,
                    )

        # Rightward wave: term i wants R_j^old for j > i; subtract the
        # view's own batch delta at j on top of the queued-update
        # compensation.
        for j in range(2, n + 1):
            active_by_view = {
                view.name: sorted(
                    i for i in merged_by_view[view.name] if i < j
                )
                for view in self.views
            }
            if not any(active_by_view.values()):
                continue
            locality = self._live_locality()
            if locality is not None and locality.covers(j):
                # The covered copy is R_j^old for every view alike.
                for view in self.views:
                    for i in active_by_view[view.name]:
                        terms[view.name][i] = locality.aux_answer(
                            j, terms[view.name][i]
                        )
                continue
            temps = {
                view.name: {
                    i: terms[view.name][i] for i in active_by_view[view.name]
                }
                for view in self.views
            }
            answers = yield from self._multi_query_views(
                j, temps, active_by_view
            )
            for view in self.views:
                batch_delta = merged_by_view[view.name].get(j)
                floor = self._pending_floor(
                    view, j, after_batch=False, batch_count=0
                )
                for i in active_by_view[view.name]:
                    temp = temps[view.name][i]
                    answer = self._compensate_queued(
                        j, answers[view.name][i], temp, floor=floor
                    )
                    if batch_delta is not None:
                        answer = answer.compensate(temp.extend(j, batch_delta))
                    terms[view.name][i] = answer

        self.mark_applied(batch)
        self._note_applied_for_views(assignment)
        self.metrics.observe("updates_per_install", len(batch))
        note = f"batch of {len(batch)} update(s), sources {union_sources}"
        for view in self.views:
            if not assignment[view.name]:
                # View skipped the whole batch (migration duplicates).
                continue
            composite: PartialView | None = None
            for index in sorted(terms[view.name]):
                term = terms[view.name][index]
                composite = (
                    term if composite is None else composite.add_in_place(term)
                )
            if view.name == self.view.name:
                self.install_wide(composite.delta, note=note)
            else:
                self._install_extra(view, composite.delta, note)
        self.metrics.increment("multiview_installs")

    # ------------------------------------------------------------------
    def _multi_query_views(
        self,
        index: int,
        terms: dict[str, dict[int, PartialView]],
        active_by_view: dict[str, list[int]],
    ) -> Generator:
        """One wave step for every view at once: a single MultiQueryRequest
        carries each (view, active term) partial, and the answer is split
        back per view.  All joins are evaluated against the same atomic
        source state, which is what keeps every view's batch boundary
        aligned with the same delivery-order prefix."""
        flat = [
            terms[view.name][i]
            for view in self.views
            for i in active_by_view[view.name]
        ]
        answers = yield from self._multi_query(index, flat)
        out: dict[str, dict[int, PartialView]] = {}
        pos = 0
        for view in self.views:
            out[view.name] = {}
            for i in active_by_view[view.name]:
                out[view.name][i] = answers[pos]
                pos += 1
        return out


__all__ = [
    "MultiViewBatchedSweepWarehouse",
    "MultiViewStateMixin",
    "MultiViewSweepWarehouse",
    "validate_same_chain",
]
