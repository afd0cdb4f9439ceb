"""Equivalence harness: perturb a sharded run mid-protocol, compare.

SWEEP's guarantee is that the view stays consistent however source
updates interleave with the warehouse's queries, so crash-restart
recovery, hot-standby promotion and live view migration must each leave
every view observably identical to a run that was never perturbed.
Every case tests exactly that claim over the sharded runtime (4-view
family, 2 shards, round-robin so both shards host work):

1. **baseline** -- the unperturbed run: the reference final views and
   the consistency level an undisturbed run classifies at.
2. **perturbed** -- the same workload with one deterministic
   :class:`Perturbation` fired inside a shard's own protocol frame:

   * ``crash-restart`` kills a durable shard after its N-th delivery
     (mid-compensation) or N-th install (mid-batch) with a
     :class:`~repro.durability.manager.CrashPlan`, then re-enters the
     identical run over the same durable directory: checkpoint + WAL
     replay, re-issued in-flight sweeps, run to quiescence.  Every third
     seed runs with warehouse-local auxiliary copies (``locality="aux"``)
     so their checkpoint and re-seed path stays under test.
   * ``kill-primary`` kills a shard's primary (``replicas=1``) with a
     :class:`~repro.runtime.shard.FailoverSpec` -- mid-batch,
     mid-compensation, or mid-query (the answer then arrives addressed
     to a dead member and is dropped, the observable equivalent of epoch
     fencing) -- and promotes its hot standby.
   * ``migrate`` moves a non-primary view to another shard with a
     :class:`~repro.runtime.shard.RebalanceSpec`: mid-batch,
     mid-compensation, or late in the drain; the donor seals, drains,
     hands off and forwards its straggler window behind a fencing epoch.

A case passes only if the perturbed run reaches at least the
scheduler's claimed consistency level on *every* view -- the oracle's
bag-semantics check doubles as the no-lost/no-double-installed-update
check -- every final view is **byte-equal**
(:func:`~repro.warehouse.sharding.canonical_view_bytes`) to the
baseline's, and the perturbation's own conditions hold: the crash fired
and durable state was recovered; the standby was promoted and the
delivery count equals the baseline's; catch-up completed, the migrated
view has no delivery holes
(:meth:`~repro.consistency.oracle.RunRecorder.missing_deliveries`) and
the delivery count equals the baseline's.  A perturbation that never
fires is a configuration error, not a pass.

**Mutation** rows prove the harness can still see the bug it guards
against; one per scheduler runs at the end of every sweep.
``kill-primary`` sets ``unfenced_replay`` (the dead primary's last frame
is replayed into the standby): the row must deliver a duplicate
``(source, seq)`` and fall below its claimed level.  ``migrate`` sets
``skip_straggler_forwarding`` (the donor drops its straggler window):
the row must skip a straggler and leave delivery holes.  Whether a
mutation bites depends on the queue at fire time, so each probes
:data:`MUTATION_SEEDS` until it is non-vacuous.  ``crash-restart`` has
no mutation hook: a crash has no "unfenced" variant to inject.

``crash-restart`` and ``kill-primary`` also carry a multiprocess smoke:
:func:`kill_and_recover_smoke` SIGKILLs a durable ``serve-shard`` under
a supervisor with ``restart="on-crash"``; :func:`promotion_smoke`
SIGKILLs a replicated primary and expects promotion within
:data:`DETECTION_BUDGET` seconds.
"""

from __future__ import annotations

import collections
import copy
import os
import signal
import tempfile
import time as _time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.durability.errors import SimulatedCrash
from repro.durability.manager import CheckpointPolicy, CrashPlan
from repro.harness.config import ExperimentConfig
from repro.harness.report import format_table
from repro.warehouse.sharding import canonical_view_bytes

#: Workload shared by every case (kept small: each case runs it 2-3x).
CASE_DEFAULTS = dict(
    n_sources=3,
    n_updates=12,
    mean_interarrival=6.0,
)
N_VIEWS = 4
N_SHARDS = 2

#: Schedulers under test (the sharded runtime's two claimants).
ALGORITHMS = ("sweep", "batched-sweep")

#: Aggressive roll rate so every crash-restart case exercises checkpoint
#: + WAL replay.
CHECKPOINT_POLICY = CheckpointPolicy(every_installs=3)

#: Mid-compensation seeds (seed % 3 == 1) a mutation row probes for a
#: fire point where the mutation actually bites.
MUTATION_SEEDS = (1, 4, 7, 10, 13)

#: Wall seconds the supervisor gets to notice a SIGKILLed primary and
#: promote its standby (the poll interval is 0.2s; the budget leaves
#: slack for a loaded CI host).
DETECTION_BUDGET = 5.0


class _CaseFailure(Exception):
    """The perturbed run could not be produced; the message is the row's
    error."""


# ---------------------------------------------------------------------------
# Per-seed specs
# ---------------------------------------------------------------------------

def crash_spec(seed: int) -> dict:
    """The deterministic crash point for a seed.

    Even seeds crash on a delivery count (deliveries tick inside the
    dispatcher, which interleaves with sweep steps -- mid-compensation),
    odd seeds on an install count (mid-batch for the batched scheduler).
    """
    if seed % 2 == 0:
        return {"after_deliveries": 4 + (seed // 2) % 7}
    return {"after_installs": 2 + (seed // 2) % 6}


def kill_spec(seed: int) -> dict:
    """The deterministic primary kill for a seed.

    Thresholds are kept small enough that every kill point fires before
    the 12-update workload drains on either scheduler (batched-sweep
    compresses installs and queries, so those counts stay low).
    """
    point = seed % 3
    if point == 0:
        return {"after_installs": 1 + (seed // 3) % 3}
    if point == 1:
        return {"after_deliveries": 2 + (seed // 3) % 5}
    return {"after_queries": 1 + (seed // 3) % 3}


def migration_spec(seed: int) -> dict:
    """The deterministic migration trigger for a seed.

    Thresholds stay below the 12-delivery drain of the shared workload
    on either scheduler, so the trigger always fires; the ``late-drain``
    band sits in the last third of the stream, where the straggler
    window closes against nearly exhausted channels.
    """
    point = seed % 3
    if point == 0:
        return {"after_installs": 1 + (seed // 3) % 3}
    if point == 1:
        return {"after_deliveries": 2 + (seed // 3) % 5}
    return {"after_deliveries": 8 + (seed // 3) % 3}


def pick_migration(plan) -> tuple[str, int]:
    """The migrating view and its destination, derived from the plan.

    Deterministic per plan: the first active shard hosting more than its
    primary donates its first extra view to the next active shard.
    """
    for shard in plan.active_shards:
        views = plan.views_for(shard)
        if len(views) > 1:
            recipients = [s for s in plan.active_shards if s != shard]
            return views[1].name, recipients[0]
    raise ValueError(f"no migratable view under [{plan.describe()}]")


def _crash_target(seed: int, plan) -> dict:
    return {"shard": seed % N_SHARDS}


def _kill_target(seed: int, plan) -> dict:
    active = plan.active_shards
    return {"shard": active[seed % len(active)]}


def _migration_target(seed: int, plan) -> dict:
    view, to_shard = pick_migration(plan)
    return {"shard": plan.shard_of(view), "view": view, "to_shard": to_shard}


# ---------------------------------------------------------------------------
# Perturbed runs and their own pass conditions
# ---------------------------------------------------------------------------

def _crash_then_recover(run, config, row: dict, mutated: bool):
    with tempfile.TemporaryDirectory(
        prefix="repro-recovery-", ignore_cleanup_errors=True
    ) as root:
        durable = dict(durable_dir=root, checkpoint_policy=CHECKPOINT_POLICY)
        try:
            run(
                config,
                crash_plans={row["shard"]: CrashPlan(**row["spec"])},
                **durable,
            )
        except SimulatedCrash:
            row["crash_fired"] = True
        if not row["crash_fired"]:
            raise _CaseFailure(f"crash plan {row['spec']} never fired")
        return run(config, **durable)


def _kill_primary(run, config, row: dict, mutated: bool):
    from repro.runtime.shard import FailoverSpec

    spec = FailoverSpec(
        shard=row["shard"], unfenced_replay=mutated, **row["spec"]
    )
    return run(config, replicas=1, failover=spec)


def _migrate(run, config, row: dict, mutated: bool):
    from repro.runtime.shard import RebalanceSpec

    spec = RebalanceSpec(
        view=row["view"],
        to_shard=row["to_shard"],
        skip_straggler_forwarding=mutated,
        **row["spec"],
    )
    return run(config, rebalance=spec)


def _deliveries_error(row: dict, result, baseline) -> list[str]:
    row["deliveries_equal"] = (
        result.deliveries_total == baseline.deliveries_total
    )
    if row["deliveries_equal"]:
        return []
    return [
        f"perturbed run delivered {result.deliveries_total}"
        f" updates, baseline {baseline.deliveries_total}"
    ]


def _observe_recovery(row: dict, result, baseline) -> list[str]:
    row["recovered_pending"] = sum((result.recovered_pending or {}).values())
    if result.recovered_pending is None:
        return ["second run did not recover durable state"]
    return []


def _observe_promotion(row: dict, result, baseline) -> list[str]:
    row["promoted"] = (result.promotions or {}).get(row["shard"], "")
    duplicates = set()
    for view in result.plan.views_for(row["shard"]):
        counts = collections.Counter(
            (notice.source_index, notice.seq)
            for notice in result.recorders[view.name].deliveries
        )
        duplicates.update(key for key, n in counts.items() if n > 1)
    row["duplicates"] = sorted([*key] for key in duplicates)
    errors = []
    if not row["promoted"]:
        errors.append("primary died but no standby was promoted")
    return errors + _deliveries_error(row, result, baseline)


def _observe_migration(row: dict, result, baseline) -> list[str]:
    stats = result.rebalance_stats or {}
    row["completed"] = bool(stats.get("completed"))
    for counter in ("gap_forwarded", "gap_skipped", "pen_retained"):
        row[counter] = stats.get(counter, 0)
    row["missing"] = {
        str(idx): seqs
        for idx, seqs in result.recorders[row["view"]]
        .missing_deliveries()
        .items()
    }
    errors = []
    if not row["completed"]:
        errors.append("migration did not complete catch-up")
    if row["missing"]:
        errors.append(f"migrated view has delivery holes: {row['missing']}")
    return errors + _deliveries_error(row, result, baseline)




# ---------------------------------------------------------------------------
# Multiprocess smokes
# ---------------------------------------------------------------------------

def kill_and_recover_smoke(
    timeout: float = 240.0,
    time_scale: float = 0.05,
    host: str = "127.0.0.1",
    locality: str = "aux",
) -> dict:
    """SIGKILL a durable ``serve-shard`` process; the supervisor restarts
    it and the fleet still finishes with every view verified.

    The schedule is paced slowly enough (relative to ``time_scale``) that
    the kill lands while the shard is mid-protocol: the harness waits for
    the shard's durable directory to hold a checkpoint before pulling the
    trigger, so the restarted incarnation always has state to recover.
    """
    from repro.runtime.shard import build_sharded_supervisor

    # Locality on by default: the kill then also exercises checkpointed
    # auxiliary copies riding through a real process restart (the
    # ``--locality`` flag reaches the serve-shard processes via
    # ``_config_argv``).
    config = ExperimentConfig(
        algorithm="sweep",
        seed=11,
        n_sources=3,
        n_updates=16,
        mean_interarrival=4.0,
        n_views=N_VIEWS,
        locality=locality,
    )
    report = {
        "ok": False,
        "restarts": 0,
        "restart_log": [],
        "killed": "shard0",
        "error": "",
    }
    with tempfile.TemporaryDirectory(prefix="repro-kill-recover-") as root:
        supervisor = build_sharded_supervisor(
            config,
            N_SHARDS,
            time_scale=time_scale,
            strategy="round-robin",
            host=host,
            timeout=timeout,
            durable_root=root,
            restart="on-crash",
            max_restarts=2,
        )
        try:
            target = supervisor.procs["shard0"]
            # Arm the kill only once the victim has durable state: the
            # attach-time checkpoint plus at least one WAL-logged update.
            wal_dir = os.path.join(root, "shard0")
            deadline = _time.monotonic() + timeout / 2
            while _time.monotonic() < deadline:
                if target.poll() is not None:
                    break  # finished early; report below
                wals = [
                    os.path.join(wal_dir, name)
                    for name in (
                        os.listdir(wal_dir) if os.path.isdir(wal_dir) else ()
                    )
                    if name.endswith(".wal")
                ]
                if any(os.path.getsize(path) > 64 for path in wals):
                    break
                _time.sleep(0.05)
            if target.poll() is None:
                target.send_signal(signal.SIGKILL)
            else:
                report["error"] = "shard0 exited before the kill was armed"
                supervisor.wait(timeout=timeout)
                return report
            supervisor.wait(timeout=timeout)
            report["restarts"] = supervisor.restarts.get("shard0", 0)
            report["restart_log"] = list(supervisor.restart_log)
            # Only the injected SIGKILL (exit -9) may have triggered a
            # relaunch.  A recovered incarnation crashing on its own and
            # being saved by the restart budget is a recovery bug this
            # smoke exists to catch, not a pass.
            unexpected = [
                line
                for line in report["restart_log"]
                if "exit -9," not in line
            ]
            if report["restarts"] < 1:
                report["error"] = "supervisor never restarted shard0"
            elif unexpected:
                report["error"] = (
                    "recovered incarnation crashed: " + "; ".join(unexpected)
                )
            else:
                # wait() returning means every member exited 0 -- each
                # shard verified its views against the claimed level.
                report["ok"] = True
            return report
        except Exception as exc:  # noqa: BLE001 - smoke reports, not raises
            report["restart_log"] = list(supervisor.restart_log)
            report["error"] = f"{type(exc).__name__}: {exc}"
            return report


def promotion_smoke(
    timeout: float = 240.0,
    time_scale: float = 0.02,
    host: str = "127.0.0.1",
) -> dict:
    """SIGKILL the primary ``serve-shard`` process of a replicated fleet.

    The supervisor must notice within :data:`DETECTION_BUDGET` wall
    seconds and promote the hot standby -- the fleet then finishes and
    every surviving member exits 0 with its views verified (shards
    verify their own consistency before exiting, so a clean fleet exit
    means the promoted standby's views passed the oracle).  No restart
    may fire: promotion takes precedence, and the dead primary stays
    dead.
    """
    from repro.runtime.shard import build_sharded_supervisor

    config = ExperimentConfig(
        algorithm="sweep",
        seed=11,
        n_sources=3,
        n_updates=16,
        mean_interarrival=5.0,
        n_views=N_VIEWS,
    )
    report = {
        "ok": False,
        "killed": "shard0",
        "promoted": "",
        "detection_seconds": None,
        "failover_log": [],
        "error": "",
    }
    supervisor = build_sharded_supervisor(
        config,
        N_SHARDS,
        time_scale=time_scale,
        strategy="round-robin",
        host=host,
        timeout=timeout,
        replicas=1,
    )
    try:
        target = supervisor.procs["shard0"]
        # Let the fleet wire up and start delivering before the kill
        # (probes + first updates); the schedule is paced slowly
        # enough that the SIGKILL lands mid-protocol.
        warmup_until = _time.monotonic() + 2.5
        while _time.monotonic() < warmup_until and target.poll() is None:
            _time.sleep(0.05)
        if target.poll() is not None:
            report["error"] = "shard0 exited before the kill was armed"
            supervisor.wait(timeout=timeout)
            return report
        target.send_signal(signal.SIGKILL)
        # wait() starts its failover-log clock now, so the logged
        # ``t+`` stamp of the promotion IS the detection latency.
        supervisor.wait(timeout=timeout)
        report["promoted"] = supervisor.promoted.get("shard0", "")
        report["failover_log"] = list(supervisor.failover_log)
        for entry in supervisor.failover_log:
            if "promoted standby" in entry:
                report["detection_seconds"] = float(
                    entry.split("]", 1)[0].lstrip("[t+").rstrip("s")
                )
                break
        if report["promoted"] != "shard0r1":
            report["error"] = (
                "supervisor did not promote shard0r1:"
                f" {supervisor.failover_log}"
            )
        elif supervisor.restarts.get("shard0", 0) > 0:
            report["error"] = "dead primary was restarted, not promoted"
        elif (
            report["detection_seconds"] is None
            or report["detection_seconds"] > DETECTION_BUDGET
        ):
            report["error"] = (
                f"promotion took {report['detection_seconds']}s,"
                f" budget is {DETECTION_BUDGET}s"
            )
        else:
            report["ok"] = True
        return report
    except Exception as exc:  # noqa: BLE001 - smoke reports, not raises
        report["failover_log"] = list(supervisor.failover_log)
        report["error"] = f"{type(exc).__name__}: {exc}"
        return report


# ---------------------------------------------------------------------------
# The perturbation table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mutation:
    """A deliberately broken variant the oracle must catch.

    ``bites`` says the row is non-vacuous (the bug actually happened);
    ``caught`` says the harness saw it, given the row and whether the run
    fell below its claimed level.
    """

    bites: Callable[[dict], bool]
    caught: Callable[[dict, bool], bool]
    vacuous: str
    blind: str


@dataclass(frozen=True)
class Perturbation:
    """What one kind of equivalence case does differently.

    ``spec`` and ``target`` give the seed's thresholds and the perturbed
    shard (plus any extra row fields) from the baseline's plan;
    ``perturb`` produces the perturbed result through ``run`` (a bound
    ``run_sharded``) and may raise :class:`_CaseFailure`; ``observe``
    fills the perturbation's own row fields and returns its failed pass
    conditions.
    """

    name: str
    command: str
    title: str
    points: tuple[str, ...]
    spec: Callable[[int], dict]
    target: Callable[[int, object], dict]
    perturb: Callable
    observe: Callable[[dict, object, object], list[str]]
    #: Default values of the perturbation's own row fields.
    fields: dict
    #: Report column rendering those fields.
    detail: tuple[str, Callable[[dict], str]]
    report_path: str
    help: str
    #: Every ``aux_every``-th seed runs with ``locality="aux"`` (0: never).
    aux_every: int = 0
    mutation: Mutation | None = None
    smoke: Callable[[], dict] | None = None
    smoke_help: str = ""


PERTURBATIONS: dict[str, Perturbation] = {
    p.name: p
    for p in (
        Perturbation(
            name="crash-restart",
            command="recovery-sweep",
            title="Crash-restart recovery: recovered runs vs uncrashed"
                  " baselines",
            points=("mid-compensation", "mid-batch"),
            spec=crash_spec,
            target=_crash_target,
            perturb=_crash_then_recover,
            observe=_observe_recovery,
            fields={"crash_fired": False, "recovered_pending": 0},
            detail=("replayed", lambda row: str(row["recovered_pending"])),
            report_path="recovery_report.json",
            help="crash one shard per seeded case, recover from checkpoint"
                 " + WAL, and compare against the uncrashed baseline",
            aux_every=3,
            smoke=kill_and_recover_smoke,
            smoke_help="also run the multiprocess kill-and-recover smoke"
                       " (SIGKILL a serve-shard process under the"
                       " supervisor's on-crash restart policy)",
        ),
        Perturbation(
            name="kill-primary",
            command="failover-sweep",
            title="Failover equivalence: promoted runs vs uncrashed"
                  " baselines",
            points=("mid-batch", "mid-compensation", "mid-query"),
            spec=kill_spec,
            target=_kill_target,
            perturb=_kill_primary,
            observe=_observe_promotion,
            fields={"promoted": "", "deliveries_equal": False,
                    "duplicates": []},
            detail=(
                "promoted",
                lambda row: (row["promoted"] or "-")
                + (f" dup={len(row['duplicates'])}" if row["mutated"] else ""),
            ),
            report_path="failover_report.json",
            help="kill a shard's primary at deterministic protocol points,"
                 " promote its hot standby, and compare against the"
                 " uncrashed baseline",
            mutation=Mutation(
                bites=lambda row: bool(row["duplicates"]),
                caught=lambda row, below_claimed: below_claimed,
                vacuous="no duplicate (source, seq) was delivered",
                blind="duplicate delivered but the run kept its claimed"
                      " level",
            ),
            smoke=promotion_smoke,
            smoke_help="also run the multiprocess promotion smoke (SIGKILL"
                       " the primary serve-shard process; the supervisor"
                       " must promote the standby)",
        ),
        Perturbation(
            name="migrate",
            command="rebalance-sweep",
            title="Rebalance equivalence: migrated runs vs static baselines",
            points=("mid-batch", "mid-compensation", "late-drain"),
            spec=migration_spec,
            target=_migration_target,
            perturb=_migrate,
            observe=_observe_migration,
            fields={"view": "", "to_shard": None, "completed": False,
                    "deliveries_equal": False, "missing": {},
                    "gap_forwarded": 0, "gap_skipped": 0, "pen_retained": 0},
            detail=(
                "move / gap",
                lambda row: f"{row['view'] or '?'}->s{row['to_shard']}"
                f" {row['gap_forwarded']}+{row['pen_retained']}p"
                + (f" skip={row['gap_skipped']}" if row["mutated"] else ""),
            ),
            report_path="rebalance_report.json",
            help="migrate one view between shards at deterministic protocol"
                 " points and compare against a never-migrated baseline",
            mutation=Mutation(
                bites=lambda row: row["gap_skipped"] >= 1,
                caught=lambda row, below_claimed: bool(row["missing"]),
                vacuous="no straggler was actually skipped",
                blind="stragglers skipped but no delivery holes reported",
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# Cases and sweeps
# ---------------------------------------------------------------------------

def run_case(
    perturbation: str,
    algorithm: str,
    seed: int,
    transport: str = "local",
    time_scale: float = 0.002,
    timeout: float = 120.0,
    locality: str = "off",
    mutated: bool = False,
) -> dict:
    """One baseline/perturbed pair; returns a flat report row.

    The baseline always runs over local queues without durability,
    replicas or migration; the perturbed run uses ``transport``.  With
    ``locality="aux"`` both runs carry warehouse-local source copies.
    """
    from repro.runtime import run_sharded
    from repro.runtime.shard import CLAIMED_LEVELS

    p = PERTURBATIONS[perturbation]
    if mutated and p.mutation is None:
        raise ValueError(f"{p.name} has no mutation hook")
    config = ExperimentConfig(
        algorithm=algorithm,
        seed=seed,
        n_views=N_VIEWS,
        locality=locality,
        **CASE_DEFAULTS,
    )
    claimed = CLAIMED_LEVELS[algorithm]
    row = {
        "perturbation": p.name,
        "algorithm": algorithm,
        "transport": transport,
        "seed": seed,
        "point": p.points[seed % len(p.points)],
        "spec": p.spec(seed),
        "shard": None,
        "locality": locality,
        "mutated": mutated,
        "claimed": claimed.name.lower(),
        "ok": False,
        "achieved": "none",
        "views_equal": False,
        **copy.deepcopy(p.fields),
        "wall_seconds": 0.0,
        "error": "",
    }
    common = dict(
        n_shards=N_SHARDS,
        time_scale=time_scale,
        timeout=timeout,
        strategy="round-robin",
    )

    def run(config, **kwargs):
        return run_sharded(config, transport=transport, **common, **kwargs)

    started = _time.perf_counter()
    try:
        baseline = run_sharded(config, transport="local", **common)
        expected = {
            name: canonical_view_bytes(view)
            for name, view in baseline.final_views.items()
        }
        row.update(p.target(seed, baseline.plan))
        result = p.perturb(run, config, row, mutated)
        errors = p.observe(row, result, baseline)
        achieved = result.min_level()
        row["achieved"] = achieved.name.lower()
        mismatched = sorted(
            name
            for name, view in result.final_views.items()
            if canonical_view_bytes(view) != expected.get(name)
        )
        row["views_equal"] = not mismatched
        if mutated:
            # The mutation must be non-vacuous AND caught: a harness that
            # cannot see the bug it guards against proves nothing.
            if not p.mutation.bites(row):
                errors = [f"mutation vacuous: {p.mutation.vacuous}"]
            elif not p.mutation.caught(row, achieved < claimed):
                errors = [f"oracle blind: {p.mutation.blind}"]
            else:
                errors = []
        else:
            if achieved < claimed:
                errors.append(f"achieved {achieved.name.lower()} < claimed")
            if mismatched:
                errors.append(
                    f"view(s) {', '.join(mismatched)} differ from the"
                    " unperturbed baseline"
                )
        row["error"] = errors[0] if errors else ""
        row["ok"] = not errors
        return row
    except Exception as exc:  # noqa: BLE001 - report rows, don't abort sweeps
        row["error"] = (
            str(exc) if isinstance(exc, _CaseFailure)
            else f"{type(exc).__name__}: {exc}"
        )
        return row
    finally:
        row["wall_seconds"] = round(_time.perf_counter() - started, 3)


def run_sweep(
    perturbation: str,
    seeds: Sequence[int] = range(30),
    tcp_every: int = 5,
    time_scale: float = 0.002,
    timeout: float = 120.0,
    progress=None,
) -> list[dict]:
    """The seed sweep: schedulers alternate (seed mod 2), the
    perturbation's points rotate with the seed, and every
    ``tcp_every``-th seed runs over loopback TCP (0 disables TCP cases).
    Mutation rows -- one per scheduler -- ride at the end, so every sweep
    proves it can still see the bug it guards against."""
    p = PERTURBATIONS[perturbation]
    rows = []

    def emit(row: dict) -> None:
        rows.append(row)
        if progress is not None:
            progress(row)

    for seed in seeds:
        emit(run_case(
            perturbation,
            ALGORITHMS[seed % len(ALGORITHMS)],
            seed,
            transport=(
                "tcp" if tcp_every and seed % tcp_every == tcp_every - 1
                else "local"
            ),
            time_scale=time_scale,
            timeout=timeout,
            locality=(
                "aux" if p.aux_every and seed % p.aux_every == p.aux_every - 1
                else "off"
            ),
        ))
    if p.mutation is not None:
        for algorithm in ALGORITHMS:
            # Probe the mid-compensation band until the mutation bites; a
            # caught (or blind) mutation ends the probe, and a fully
            # vacuous band is itself a failure.
            for candidate in MUTATION_SEEDS:
                row = run_case(
                    perturbation,
                    algorithm,
                    candidate,
                    time_scale=time_scale,
                    timeout=timeout,
                    mutated=True,
                )
                if p.mutation.bites(row):
                    break
            emit(row)
    return rows


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def build_report(
    perturbation: str, rows: list[dict], smoke: dict | None = None
) -> dict:
    return {
        "suite": perturbation,
        "cases": len(rows),
        "failed": sum(1 for row in rows if not row["ok"]),
        "mutation_cases": sum(1 for row in rows if row["mutated"]),
        "ok": all(row["ok"] for row in rows)
        and (smoke is None or smoke["ok"]),
        "rows": rows,
        "smoke": smoke,
    }


def format_report(report: dict) -> str:
    p = PERTURBATIONS[report["suite"]]
    detail_header, detail = p.detail
    table = format_table(
        ["algorithm", "transport", "seed", "locality", "point", "spec",
         "claimed", "achieved", detail_header, "views", "wall s", "verdict"],
        [
            [
                row["algorithm"],
                row["transport"],
                row["seed"],
                row["locality"],
                row["point"],
                ",".join(
                    f"{k.split('_')[1]}={v}" for k, v in row["spec"].items()
                ) + f"@s{row['shard']}" + (" MUT" if row["mutated"] else ""),
                row["claimed"],
                row["achieved"],
                detail(row),
                "equal" if row["views_equal"] else "DIFFER",
                row["wall_seconds"],
                "PASS" if row["ok"] else f"FAIL ({row['error']})",
            ]
            for row in report["rows"]
        ],
        title=p.title,
    )
    lines = [table]
    smoke = report.get("smoke")
    if smoke is not None:
        verdict = "PASS" if smoke["ok"] else f"FAIL ({smoke['error']})"
        facts = ", ".join(
            f"{key}={value}"
            for key, value in smoke.items()
            if key not in ("ok", "error") and not isinstance(value, list)
        )
        lines.append(f"\n{p.name} smoke: {verdict} ({facts})")
        for key, value in smoke.items():
            if isinstance(value, list):
                lines.extend(f"  {entry}" for entry in value)
    mutations = (
        f" ({report['mutation_cases']} mutation(s) caught)"
        if report["mutation_cases"] else ""
    )
    if report["ok"]:
        lines.append(f"\nall {report['cases']} case(s) equivalent{mutations}")
    elif report["failed"]:
        lines.append(f"\n{report['failed']} of {report['cases']} case(s) FAILED")
    else:
        lines.append(f"\n{p.name} smoke FAILED")
    return "\n".join(lines)


__all__ = [
    "ALGORITHMS",
    "CASE_DEFAULTS",
    "CHECKPOINT_POLICY",
    "DETECTION_BUDGET",
    "MUTATION_SEEDS",
    "N_SHARDS",
    "N_VIEWS",
    "PERTURBATIONS",
    "Mutation",
    "Perturbation",
    "build_report",
    "crash_spec",
    "format_report",
    "kill_and_recover_smoke",
    "kill_spec",
    "migration_spec",
    "pick_migration",
    "promotion_smoke",
    "run_case",
    "run_sweep",
]
