"""The benchmark's workloads and one repetition of each.

A repetition builds nothing itself: the :class:`Workload` is made once
per run from the seed, then replayed through the program's public entry
point (``run_distributed`` or ``run_sharded``) with the oracle switched
off inside the call.  Everything measured comes from the call's wall and
CPU clocks, from the result's counters, and from the recorder's
deliveries and installs matched against the benchmark's own schedule.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass

from repro.harness.config import ExperimentConfig
from repro.runtime import run_distributed, run_sharded
from repro.workloads.scenarios import Workload, make_workload
from repro.workloads.stream import UpdateStreamConfig

#: Wall seconds per virtual time unit: one unit is one millisecond.
TIME_SCALE = 0.001
#: Wall-clock limit of one run call (a hang fails the repetition).
CALL_TIMEOUT_S = 60.0
N_SOURCES = 3
ROWS_PER_RELATION = 20


@dataclass(frozen=True)
class Spec:
    """One named workload: what runs and how updates arrive."""

    name: str
    why: str
    algorithm: str
    transport: str
    n_updates: int
    #: Poisson arrival rate in updates per wall second; None = one burst.
    rate: float | None
    #: Wall milliseconds before the first commit, so that wiring the
    #: sites never delays a scheduled commit.
    lead_ms: float
    n_views: int = 1
    n_shards: int = 0  # 0 = run_distributed, else run_sharded
    durable: bool = False


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="burst-sweep",
            why=(
                "SWEEP drains a 400-update burst over local queues: the"
                " warehouse protocol and its pending-queue scans dominate"
            ),
            algorithm="sweep",
            transport="local",
            n_updates=400,
            rate=None,
            lead_ms=20.0,
        ),
        Spec(
            name="steady-tcp",
            why=(
                "SWEEP over loopback TCP at 200 upd/s, well below capacity:"
                " codec, transport and asyncio dominate, the backlog stays shallow"
            ),
            algorithm="sweep",
            transport="tcp",
            n_updates=800,
            rate=200.0,
            lead_ms=100.0,
        ),
        Spec(
            name="multiview-durable",
            why=(
                "batched-sweep of 8 views on 2 durable shards at 250 upd/s:"
                " joins, composite installs, WAL and checkpoints dominate"
            ),
            algorithm="batched-sweep",
            transport="local",
            n_updates=600,
            rate=250.0,
            lead_ms=20.0,
            n_views=8,
            n_shards=2,
            durable=True,
        ),
    )
}


def build_workload(spec: Spec, seed: int) -> Workload:
    """The seed's workload: chain view, initial data, update schedule.

    The generator draws Poisson arrivals; they are then moved so that
    every seed offers the same load.  A burst puts every update at the
    first instant; an open loop stretches the arrivals so that the last
    is due exactly ``(n - 1) / rate`` after the first.
    """
    start = spec.lead_ms  # one virtual unit is one wall millisecond
    stream = UpdateStreamConfig(
        n_updates=spec.n_updates, mean_interarrival=1.0, start_time=start
    )
    workload = make_workload(
        N_SOURCES,
        random.Random(seed),
        rows_per_relation=ROWS_PER_RELATION,
        stream=stream,
    )
    if spec.rate is None:
        stretch = 0.0
    else:
        span = (spec.n_updates - 1) / (spec.rate * TIME_SCALE)
        stretch = span / (workload.last_commit_time() - start)
    workload.schedules = {
        index: [
            dataclasses.replace(u, time=start + (u.time - start) * stretch)
            for u in schedule
        ]
        for index, schedule in workload.schedules.items()
    }
    return workload


@dataclass
class Rep:
    """One repetition: the result plus the clocks around the call."""

    result: object
    call_s: float
    cpu_s: float
    peak_rss_mb: float
    durable_dir: str | None = None

    @property
    def sharded(self) -> bool:
        return hasattr(self.result, "recorders")

    def recorders(self) -> dict:
        """View name -> RunRecorder of every maintained view."""
        if self.sharded:
            return {
                name: self.result.recorders[name]
                for name in self.result.final_views
            }
        return {self.result.recorder.view.name: self.result.recorder}

    def final_views(self) -> dict:
        if self.sharded:
            return dict(self.result.final_views)
        return {self.result.recorder.view.name: self.result.final_view}

    def cleanup(self) -> None:
        if self.durable_dir is not None:
            shutil.rmtree(self.durable_dir, ignore_errors=True)


def run_rep(spec: Spec, workload: Workload, seed: int, work_dir: str, tag: str) -> Rep:
    """Replay ``workload`` once through the program's public entry point."""
    config = ExperimentConfig(
        algorithm=spec.algorithm,
        n_sources=N_SOURCES,
        seed=seed,
        workload=workload,
        n_views=spec.n_views,
        check_consistency=False,
    )
    durable_dir = None
    if spec.durable:
        durable_dir = os.path.join(work_dir, f"durable-{os.getpid()}-{tag}")
        shutil.rmtree(durable_dir, ignore_errors=True)
        os.makedirs(durable_dir)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if spec.n_shards:
        result = run_sharded(
            config,
            n_shards=spec.n_shards,
            transport=spec.transport,
            time_scale=TIME_SCALE,
            timeout=CALL_TIMEOUT_S,
            strategy="round-robin",
            durable_dir=durable_dir,
        )
    else:
        result = run_distributed(
            config,
            transport=spec.transport,
            time_scale=TIME_SCALE,
            timeout=CALL_TIMEOUT_S,
        )
    cpu_s = time.process_time() - cpu0
    call_s = time.perf_counter() - wall0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Rep(result, call_s, cpu_s, peak_kb / 1024.0, durable_dir)


def schedule_times(workload: Workload) -> dict[tuple[int, int], float]:
    """(source, seq) -> scheduled commit time, in virtual units.

    Each source commits its schedule in time order, numbering commits
    from 1, so the ``k``-th entry is the update with ``seq == k``.
    """
    out = {}
    for index, schedule in workload.schedules.items():
        for seq, update in enumerate(sorted(schedule, key=lambda u: u.time), 1):
            out[(index, seq)] = update.time
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1])."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(len(sorted_values) * q))
    return sorted_values[rank - 1]


def measure(spec: Spec, workload: Workload, rep: Rep) -> dict:
    """End-to-end figures of one repetition (no oracle involved)."""
    result = rep.result
    due = schedule_times(workload)
    n = workload.total_updates
    freshness_ms: list[float] = []
    last_install = 0.0
    for recorder in rep.recorders().values():
        for install in recorder.attribute_installs():
            for notice in install.members:
                scheduled = due[(notice.source_index, notice.seq)]
                freshness_ms.append(
                    (install.snapshot.time - scheduled) * TIME_SCALE * 1e3
                )
        if len(recorder.snapshots):
            last_install = max(last_install, list(recorder.snapshots)[-1].time)
    first_due = min(due.values())
    any_recorder = next(iter(rep.recorders().values()))
    late_ms = [
        (notice.applied_at - due[(notice.source_index, notice.seq)])
        * TIME_SCALE
        * 1e3
        for notice in any_recorder.deliveries
    ]
    counters = result.metrics.counters
    protocol_messages = sum(
        result.metrics.messages_of_kind(kind) for kind in ("query", "answer")
    )
    return {
        "setup_s": rep.call_s - result.wall_seconds,
        "drain_s": (last_install - first_due) * TIME_SCALE,
        "cpu_s": rep.cpu_s,
        "protocol_messages": protocol_messages,
        "freshness_ms": freshness_ms,
        "late_ms": late_ms,
        "counters": dict(counters),
    }


__all__ = [
    "Rep",
    "SPECS",
    "Spec",
    "TIME_SCALE",
    "build_workload",
    "measure",
    "percentile",
    "run_rep",
    "schedule_times",
]
