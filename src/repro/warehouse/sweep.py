"""SWEEP (paper Section 5): complete consistency with local compensation.

``ViewChange`` processes one update at a time.  Starting from the update
delta it sweeps left (sources ``i-1 .. 1``) and then right (``i+1 .. n``),
shipping the partial view change to each source and receiving back the
join with that source's current relation.  When the answer from source
``j`` returns, any update from ``j`` still sitting in the update message
queue must -- by the FIFO channel property -- have been applied before the
query was evaluated, so its error term ``Delta-Rj |><| TempView`` is
computed *locally* and subtracted.  No compensation queries are ever sent:
message cost is exactly ``2(n-1)`` (query + answer per other source).

Options reproduce the Section 5.3 optimizations:

* ``parallel`` -- run the left and right sweeps concurrently and merge the
  two half-results at the warehouse (halves the sweep's critical path);
* ``merge_queue_updates`` -- coalesce multiple interfering updates from one
  source into a single compensation term (on by default, as in the paper).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.sources.messages import UpdateNotice
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.errors import ProtocolError


@dataclass(frozen=True)
class SweepOptions:
    """Tunable SWEEP variants (Section 5.3)."""

    parallel: bool = False
    merge_queue_updates: bool = True


def merge_halves(
    left: PartialView, right: PartialView, seed: Delta
) -> PartialView:
    """Combine parallel sweep halves: ``Delta-V = Delta-V_left |><| Delta-V_right``.

    Both halves contain the seed relation's columns (left covers ``1..i``,
    right covers ``i..n``).  Rows are glued on equal seed tuples; since each
    half's count already includes the seed tuple's (possibly negative)
    multiplicity, the product is divided by it once.
    """
    view = left.view
    if left.lo != 1 or right.hi != view.n_relations or left.hi != right.lo:
        raise ProtocolError(
            f"halves cover {left.lo}..{left.hi} and {right.lo}..{right.hi};"
            " expected 1..i and i..n"
        )
    i = left.hi
    width = len(view.schema_of(i))
    out = Delta(view.wide_schema)

    by_seed: dict[tuple, list[tuple[tuple, int]]] = {}
    for rrow, rcount in right.delta.items():
        by_seed.setdefault(rrow[:width], []).append((rrow, rcount))

    for lrow, lcount in left.delta.items():
        seed_row = lrow[len(lrow) - width:]
        seed_count = seed.count(seed_row)
        if seed_count == 0:
            raise ProtocolError(
                f"half-result row {lrow!r} has no seed tuple {seed_row!r}"
            )
        for rrow, rcount in by_seed.get(seed_row, ()):
            numerator = lcount * rcount
            quotient = numerator // seed_count
            if quotient * seed_count != numerator:
                raise ProtocolError(
                    f"count {numerator} of glued row not divisible by seed"
                    f" multiplicity {seed_count}"
                )
            out.add(lrow + rrow[width:], quotient)
    return PartialView(view, 1, view.n_relations, out)


class SweepWarehouse(QueueDrivenWarehouse):
    """The SWEEP algorithm of Figure 4 (optionally with parallel sweeps)."""

    algorithm_name = "sweep"

    def __init__(self, *args, options: SweepOptions | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.options = options if options is not None else SweepOptions()

    # ------------------------------------------------------------------
    def view_change(self, notice: UpdateNotice) -> Generator:
        if self.options.parallel:
            result = yield from self._view_change_parallel(notice)
        else:
            result = yield from self._view_change_sequential(notice)
        return result

    # ------------------------------------------------------------------
    # The paper's sequential ViewChange (Figure 4)
    # ------------------------------------------------------------------
    def _view_change_sequential(self, notice: UpdateNotice) -> Generator:
        i = notice.source_index
        partial = PartialView.initial(self.view, i, notice.delta)
        sweep_order = list(range(i - 1, 0, -1)) + list(
            range(i + 1, self.view.n_relations + 1)
        )
        for j in sweep_order:
            temp = partial  # the paper's TempView
            local = self.local_aux_answer(j, partial)
            if local is not None:
                # Covered source: the copy is exactly at this update's
                # position, so the local join needs no compensation.
                partial = local
                continue
            cached = self.local_cached_answer(j, partial)
            if cached is not None:
                partial = self._compensate(j, cached, temp)
                continue
            answer = yield from self.query_and_await(
                j, partial
            )
            partial = self._compensate(j, answer, temp)
        return partial

    # ------------------------------------------------------------------
    # Section 5.3 optimization: left and right sweeps in parallel
    # ------------------------------------------------------------------
    def _view_change_parallel(self, notice: UpdateNotice) -> Generator:
        i = notice.source_index
        n = self.view.n_relations
        seed = PartialView.initial(self.view, i, notice.delta)
        halves = {
            "left": {"partial": seed, "next": i - 1, "stop": 0, "step": -1},
            "right": {"partial": seed, "next": i + 1, "stop": n + 1, "step": +1},
        }
        outstanding: dict[int, tuple[str, PartialView]] = {}

        def launch(side: str) -> None:
            state = halves[side]
            while True:
                j = state["next"]
                if j == state["stop"]:
                    return
                temp = state["partial"]
                local = self.local_aux_answer(j, temp)
                if local is None:
                    cached = self.local_cached_answer(j, temp)
                    if cached is not None:
                        local = self._compensate(j, cached, temp)
                if local is not None:
                    # Answered locally; keep advancing this half without
                    # yielding -- installs cannot interleave mid-sweep.
                    state["partial"] = local
                    state["next"] = j + state["step"]
                    continue
                request = self.make_sweep_query(j, temp)
                self.send_query(j, request)
                outstanding[request.request_id] = (side, temp, j)
                return

        launch("left")
        launch("right")
        while outstanding:
            answer = yield from self._next_answer()
            if answer.request_id not in outstanding:
                raise ProtocolError(
                    f"unexpected answer for request {answer.request_id}"
                )
            side, temp, j = outstanding.pop(answer.request_id)
            state = halves[side]
            state["partial"] = self._compensate(j, answer.partial, temp)
            state["next"] = j + state["step"]
            launch(side)

        left, right = halves["left"]["partial"], halves["right"]["partial"]
        if left.lo == 1 and left.hi == n:
            return left  # i was an endpoint; one half did all the work
        if right.lo == 1 and right.hi == n:
            return right
        return merge_halves(left, right, seed.delta)

    # ------------------------------------------------------------------
    # On-line local error correction (Section 4)
    # ------------------------------------------------------------------
    def _compensate(
        self, index: int, answer: PartialView, temp: PartialView
    ) -> PartialView:
        """Subtract error terms of interfering updates from source ``index``."""
        pending = self.pending_updates_from(index)
        if not pending:
            return answer
        self.metrics.increment("compensations")
        if self.trace:
            self.trace.record(
                self.sim.now,
                "warehouse",
                "compensate",
                f"src={index} x{len(pending)}",
            )
        if self.options.merge_queue_updates:
            error = temp.extend(index, self.merged_pending_delta(pending))
            return answer.compensate(error)
        result = answer
        for notice in pending:
            error = temp.extend(index, notice.delta)
            result = result.compensate(error)
            self.metrics.increment("compensation_terms")
        return result


__all__ = ["SweepOptions", "SweepWarehouse", "merge_halves"]
