"""The update queue's per-source pending index against brute force.

``QueueDrivenWarehouse.update_queue`` keeps, per source, the FIFO run of
queued update notices and the signed sum of their deltas, so that an
answer's snapshot is one watermark and its merged compensation delta is
read off the running sum.  Hypothesis drives random interleavings of
everything that touches the queue -- updates from three sources,
rebalance fences and handoff frames (control frames, outside the index),
head pops, ``remove``, nested-style absorption, answers with late
arrivals, and ``seal`` -- and after every step the index must equal a
recomputation from ``peek_all()``.  For every answer the index-backed
``pending_updates_from``/``merged_pending_delta`` must equal the filter
of the queue contents at the answer and a fresh ``merge_deltas``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.relational.delta import Delta, merge_deltas
from repro.relational.predicate import AttrEq
from repro.relational.view import ViewDefinition
from repro.simulation.channel import Message
from repro.simulation.kernel import Simulator
from repro.sources.messages import (
    UpdateNotice,
    is_rebalance_fence,
    make_rebalance_fence,
)
from repro.warehouse.migration import GapComplete
from repro.warehouse.sweep import SweepWarehouse

from tests.conftest import R1_SCHEMA, R2_SCHEMA, R3_SCHEMA

SOURCES = (1, 2, 3)
SCHEMAS = {1: R1_SCHEMA, 2: R2_SCHEMA, 3: R3_SCHEMA}
VIEW = ViewDefinition(
    name="V",
    relation_names=("R1", "R2", "R3"),
    schemas=(R1_SCHEMA, R2_SCHEMA, R3_SCHEMA),
    join_conditions=(AttrEq("B", "C"), AttrEq("D", "E")),
    projection=("D", "F"),
)

# A tiny row domain, so that queued deltas cancel inside the running sums.
rows = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from([1, -1])),
    min_size=1,
    max_size=3,
)
source = st.sampled_from(SOURCES)
operation = st.one_of(
    st.tuples(st.just("put"), source, rows),
    st.tuples(st.just("put"), source, rows),
    st.tuples(st.just("fence"), source),
    st.tuples(st.just("handoff")),
    st.tuples(st.just("pop")),
    st.tuples(st.just("remove"), st.integers(0, 64)),
    st.tuples(st.just("absorb"), source),
    st.tuples(st.just("answer"), st.lists(st.tuples(source, rows), max_size=3)),
)


class _Taker:
    """Stands in for the UpdateView process at one head pop."""

    name = "taker"

    def resume(self, message):
        self.message = message


class _Harness:
    """A SWEEP warehouse whose update queue the test drives by hand.

    The simulator never runs, so no warehouse process consumes the queue.
    """

    def __init__(self):
        self.warehouse = SweepWarehouse(Simulator(), VIEW, query_channels={})
        self.queue = self.warehouse.update_queue
        self.seqs = dict.fromkeys(SOURCES, 0)

    def put(self, index, changes):
        self.seqs[index] += 1
        delta = Delta(SCHEMAS[index])
        for a, b, sign in changes:
            delta.add((a, b), sign)
        notice = UpdateNotice(index, self.seqs[index], delta)
        self.queue.put(Message("update", f"R{index}", notice))

    def fence(self, index):
        fence = make_rebalance_fence(
            index, self.seqs[index], Delta(SCHEMAS[index]), epoch=1
        )
        self.queue.put_control(Message("update", f"R{index}", fence))

    def handoff(self):
        self.queue.put_control(Message("rebalance", "coordinator", GapComplete(1)))

    def pop(self):
        """Head pop through the mailbox's own delivery path."""
        if not len(self.queue):
            return
        taker = _Taker()
        self.queue._register_waiter(taker)
        self.queue._deliver()

    def remove(self, position):
        queued = self.queue.peek_all()
        if queued:
            assert self.queue.remove(queued[position % len(queued)])

    def absorb(self, index):
        """Nested SWEEP's absorption of a source's whole queued run."""
        self.warehouse._answer_mark = self.queue.watermark
        self.queue.remove_leading(self.warehouse.pending_updates_from(index))
        assert index not in {n.source_index for n in queued_updates(self.queue)}

    def answer(self, late):
        """Latch an answer's watermark, let updates arrive after it, then
        compare with the snapshot the queue contents gave at the answer."""
        self.warehouse._answer_mark = self.queue.watermark
        snapshot = queued_updates(self.queue)
        for index, changes in late:
            self.put(index, changes)
        for index in SOURCES:
            expected = [n for n in snapshot if n.source_index == index]
            pending = self.warehouse.pending_updates_from(index)
            assert same_notices(pending, expected)
            if not expected:
                continue
            merged = self.warehouse.merged_pending_delta(pending)
            assert merged == merge_deltas(
                SCHEMAS[index], [n.delta for n in expected]
            )
            subset = expected[1:]
            if subset:
                # A filtered subset (a migration floor) is merged afresh.
                assert self.warehouse.merged_pending_delta(subset) == (
                    merge_deltas(SCHEMAS[index], [n.delta for n in subset])
                )


def queued_updates(queue):
    """Brute force: the real update notices queued, in FIFO order."""
    return [
        m.payload
        for m in queue.peek_all()
        if isinstance(m.payload, UpdateNotice)
        and not is_rebalance_fence(m.payload)
    ]


def same_notices(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


def check_index(queue):
    queued = queued_updates(queue)
    for index in SOURCES:
        expected = [n for n in queued if n.source_index == index]
        run = queue._runs.get(index)
        if not expected:
            assert run is None
            continue
        assert same_notices(list(run.notices), expected)
        ordinals = list(run.ordinals)
        assert ordinals == sorted(set(ordinals))
        assert ordinals[-1] <= queue.watermark
        assert run.total == merge_deltas(
            SCHEMAS[index], [n.delta for n in expected]
        )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    operations=st.lists(operation, max_size=40),
    seal_at=st.none() | st.integers(0, 40),
)
def test_index_matches_brute_force(operations, seal_at):
    harness = _Harness()
    for step, (name, *args) in enumerate(operations):
        if step == seal_at:
            harness.queue.seal()
            assert not harness.queue._runs
        getattr(harness, name)(*args)
        check_index(harness.queue)


def test_empty_before_any_answer():
    harness = _Harness()
    harness.put(1, [(0, 0, 1)])
    assert harness.warehouse.pending_updates_from(1) == []


def test_running_sum_is_returned_without_merging():
    harness = _Harness()
    harness.put(2, [(1, 1, 1)])
    harness.put(2, [(1, 2, -1)])
    harness.warehouse._answer_mark = harness.queue.watermark
    pending = harness.warehouse.pending_updates_from(2)
    assert harness.warehouse.merged_pending_delta(pending) is (
        harness.queue._runs[2].total
    )


def test_fences_and_handoffs_stay_out_of_compensation():
    harness = _Harness()
    harness.put(1, [(0, 1, 1)])
    harness.fence(1)
    harness.handoff()
    harness.put(1, [(0, 2, 1)])
    harness.warehouse._answer_mark = harness.queue.watermark
    pending = harness.warehouse.pending_updates_from(1)
    assert [n.seq for n in pending] == [1, 2]
    assert len(harness.queue) == 4
