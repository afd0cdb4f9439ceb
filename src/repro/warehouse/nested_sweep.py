"""Nested SWEEP (paper Section 6): cumulative updates, strong consistency.

Structure follows Figure 6.  ``ViewChange(Delta-R, Left, UpdateSource,
Right)`` sweeps left then right like SWEEP, but when the answer from source
``j`` reveals an interfering update ``Delta-Rj``, the update is *removed*
from the message queue, its error term is compensated, and its missing
effects are computed by a recursive ``ViewChange`` restricted to the
relations the outer sweep has already passed:

* left sweep at ``j``:  recurse over ``j+1 .. UpdateSource`` (those sources
  already reflect the in-flight update, giving the ``R_i^new`` dovetailing
  of Section 6.1);
* right sweep at ``k``: recurse over ``Left .. k-1``.

The recursion's result is *added* to the running ``Delta-V``, so the outer
sweep's remaining queries carry both updates onward.  One composite install
covers the initial update plus everything absorbed -- message cost is
amortized, complete consistency is given up, strong consistency retained.

Termination: an unbroken sequence of alternating interfering updates makes
the recursion oscillate (Section 6.2).  ``max_depth`` implements the
paper's suggested fix -- beyond that depth the algorithm stops absorbing
and falls back to SWEEP-style compensation, leaving the update queued.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.relational.incremental import PartialView
from repro.sources.messages import UpdateNotice
from repro.warehouse.base import QueueDrivenWarehouse


class NestedSweepWarehouse(QueueDrivenWarehouse):
    """The recursive incremental view construction algorithm of Figure 6."""

    algorithm_name = "nested-sweep"

    def __init__(self, *args, max_depth: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_depth = max_depth
        self.max_depth_hits = 0

    # ------------------------------------------------------------------
    def process_update(self, notice: UpdateNotice) -> Generator:
        """Top-level: ViewChange(Delta-R, 1, i, n), then one composite install."""
        absorbed: list[UpdateNotice] = [notice]
        result = yield from self._view_change(
            notice.delta,
            left=1,
            update_source=notice.source_index,
            right=self.view.n_relations,
            absorbed=absorbed,
            depth=0,
        )
        self.mark_applied(absorbed)
        self.metrics.observe("updates_per_install", len(absorbed))
        self.install_wide(
            result.delta,
            note=(
                f"composite of {len(absorbed)} update(s), first"
                f" src={notice.source_index} seq={notice.seq}"
            ),
        )

    def view_change(self, notice: UpdateNotice) -> Generator:
        raise NotImplementedError(
            "Nested SWEEP overrides process_update directly"
        )

    # ------------------------------------------------------------------
    def _view_change(
        self,
        delta,
        left: int,
        update_source: int,
        right: int,
        absorbed: list[UpdateNotice],
        depth: int,
    ) -> Generator:
        """Figure 6's ViewChange(Delta-R, Left, UpdateSource, Right)."""
        partial = PartialView.initial(self.view, update_source, delta)
        # Left part: j = UpdateSource-1 down to Left
        for j in range(update_source - 1, left - 1, -1):
            temp = partial
            answer = yield from self.query_and_await(j, partial)
            partial = yield from self._absorb_or_compensate(
                answer, temp, j,
                recurse_left=j, recurse_source=j, recurse_right=update_source,
                absorbed=absorbed, depth=depth,
            )
        # Right part: j = UpdateSource+1 up to Right
        for j in range(update_source + 1, right + 1):
            temp = partial
            answer = yield from self.query_and_await(j, partial)
            partial = yield from self._absorb_or_compensate(
                answer, temp, j,
                recurse_left=left, recurse_source=j, recurse_right=j,
                absorbed=absorbed, depth=depth,
            )
        return partial

    # ------------------------------------------------------------------
    def _absorb_or_compensate(
        self,
        answer: PartialView,
        temp: PartialView,
        index: int,
        recurse_left: int,
        recurse_source: int,
        recurse_right: int,
        absorbed: list[UpdateNotice],
        depth: int,
    ) -> Generator:
        """Handle interference at ``index``: compensate, then (maybe) recurse.

        Beyond ``max_depth`` the update stays queued (SWEEP behaviour),
        guaranteeing termination under adversarial interference.
        """
        pending = self.pending_updates_from(index)
        if not pending:
            return answer
        self.metrics.increment("compensations")
        merged = self.merged_pending_delta(pending)
        error = temp.extend(index, merged)
        partial = answer.compensate(error)

        if self.max_depth is not None and depth >= self.max_depth:
            self.max_depth_hits += 1
            self.metrics.increment("nested_depth_limit_hits")
            return partial  # leave the updates queued; SWEEP handles later

        # Remove the absorbed updates from the queue (Figure 6).  They
        # are the head of the source's run, and ``merged`` may be the
        # index's running sum, which the removal changes: keep a copy.
        merged = merged.copy()
        self.update_queue.remove_leading(pending)
        absorbed.extend(pending)
        if self.trace:
            self.trace.record(
                self.sim.now,
                "warehouse",
                "nested-absorb",
                f"src={index} x{len(pending)} depth={depth}",
            )
        missing = yield from self._view_change(
            merged,
            left=recurse_left,
            update_source=recurse_source,
            right=recurse_right,
            absorbed=absorbed,
            depth=depth + 1,
        )
        return partial.add(missing)


__all__ = ["NestedSweepWarehouse"]
