"""Per-update warehouse work must not grow with the backlog.

SWEEP compensates an answer from source ``j`` with exactly the updates
from ``j`` still queued when the answer arrives (Section 4), merged into
one term (Section 5.3).  Rescanning the whole queue and re-merging those
deltas on every answer makes the per-update cost O(backlog), so the cost
of draining a burst is quadratic in its size.  Counting the queued
notices the warehouse touches -- entries it copies out of the update
queue, deltas it hands to ``merge_deltas``, and deltas it folds into or
out of a running sum -- measures that growth without a clock: doubling
an all-at-once burst must leave the count per update (nearly) flat.
"""

import dataclasses
import random
from collections import Counter

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.relational.delta import Delta
from repro.simulation.mailbox import Mailbox
from repro.warehouse import base
from repro.workloads.scenarios import make_workload
from repro.workloads.stream import UpdateStreamConfig

BURST_AT = 1.0


def burst(n_updates: int, seed: int = 3):
    """A 3-source chain workload whose updates all commit at one instant."""
    stream = UpdateStreamConfig(n_updates=n_updates, start_time=BURST_AT)
    workload = make_workload(3, random.Random(seed), stream=stream)
    workload.schedules = {
        index: [dataclasses.replace(u, time=BURST_AT) for u in schedule]
        for index, schedule in workload.schedules.items()
    }
    return workload


def count_visits(monkeypatch, n_updates: int) -> float:
    """Queued notices the SWEEP warehouse touches per update of a burst."""
    visits: Counter = Counter()
    peek_all = Mailbox.peek_all
    merge_deltas = base.merge_deltas
    merge_in_place = Delta.merge_in_place
    difference_in_place = base.difference_in_place

    def counted_peek_all(self):
        queued = peek_all(self)
        if self.name == "UpdateMessageQueue":
            visits["snapshot"] += len(queued)
        return queued

    def counted_merge_deltas(schema, deltas):
        deltas = list(deltas)
        visits["merge_deltas"] += len(deltas)
        return merge_deltas(schema, deltas)

    def counted_merge_in_place(self, other):
        visits["fold"] += 1
        return merge_in_place(self, other)

    def counted_difference_in_place(target, other):
        visits["fold"] += 1
        return difference_in_place(target, other)

    monkeypatch.setattr(Mailbox, "peek_all", counted_peek_all)
    monkeypatch.setattr(base, "merge_deltas", counted_merge_deltas)
    monkeypatch.setattr(Delta, "merge_in_place", counted_merge_in_place)
    monkeypatch.setattr(base, "difference_in_place", counted_difference_in_place)
    result = run_experiment(
        ExperimentConfig(
            algorithm="sweep",
            workload=burst(n_updates),
            latency=2.0,
            latency_model="constant",
        )
    )
    monkeypatch.undo()
    assert result.consistency[ConsistencyLevel.COMPLETE].ok
    assert result.installs == n_updates
    # The burst really backs up: answers keep finding queued updates.
    assert result.metrics.counters["compensations"] > n_updates // 2
    return sum(visits.values()) / n_updates


def test_doubling_the_backlog_keeps_per_update_work_flat(monkeypatch):
    small = count_visits(monkeypatch, 120)
    large = count_visits(monkeypatch, 240)
    assert large <= 1.1 * small, (small, large)
