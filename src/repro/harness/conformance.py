"""Protocol conformance under fault injection (``repro conformance``).

The paper's claims are per-algorithm consistency guarantees *given
reliable FIFO channels* (Section 2).  The chaos layer
(:mod:`repro.runtime.chaos`) supplies FIFO channels whose implementation
is under attack -- delayed, duplicated, dropped-and-retransmitted,
blacked out -- so a conformance run asks the only question that matters:
does every registered algorithm still achieve **at least its claimed
consistency level** when the transport misbehaves in every way the
contract permits?

One *case* is (algorithm, fault profile, seed): a seeded randomized
update stream driven through a distributed run with that profile's
faults, then judged by the independent consistency oracle.  A case
passes when

* the achieved (oracle-classified) level is >= the registry's claimed
  level for the algorithm, and
* for batching schedulers, the batch-aware completeness check holds --
  every composite install is a contiguous delivery-order prefix and
  every delivered update is attributed to exactly one install.

:func:`run_matrix` sweeps the full cross product and builds a JSON-able
report (uploaded as a CI artifact by the ``conformance-smoke`` job);
``python -m repro conformance`` is the command-line front end.
"""

from __future__ import annotations

import platform
from typing import Sequence

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.report import format_table, load_report, write_report
from repro.runtime.chaos import PROFILES
from repro.warehouse.locality import SUPPORTED_ALGORITHMS as LOCALITY_ALGORITHMS
from repro.warehouse.registry import ALGORITHMS, algorithm_info

#: Every registered algorithm, in registry order.
DEFAULT_ALGORITHMS: tuple[str, ...] = tuple(ALGORITHMS)

#: The stock sweep: healthy control plus one profile per fault family --
#: transport faults first, then the source-side profiles (stalled and
#: bursty schedules, reorder attempts absorbed by the FIFO session).
DEFAULT_PROFILES: tuple[str, ...] = (
    "healthy", "delay", "dup", "crash", "source-stall", "source-reorder",
)

#: Algorithms whose installs are composite by design: the batch-aware
#: completeness check is a hard gate for them, informational otherwise.
BATCHING_ALGORITHMS: tuple[str, ...] = ("batched-sweep",)

#: Sharded-runtime conformance cases (opt-in via ``--algorithms``): the
#: named scheduler runs over a 4-view family partitioned across 2 shards
#: and every view of every shard must reach the claimed level -- the
#: oracle's verdict is the *minimum* across the whole family.
SHARDED_ALGORITHMS: dict[str, dict] = {
    "sharded-sweep": {
        "algorithm": "sweep",
        "claimed": ConsistencyLevel.COMPLETE,
    },
    "sharded-batched-sweep": {
        "algorithm": "batched-sweep",
        "claimed": ConsistencyLevel.STRONG,
    },
    # Hot-standby deployment: every shard paired with one replica that
    # installs in lockstep.  Standbys are mute on the answer path, so the
    # claimed level is unchanged -- that invariance is what this case pins.
    "sharded-sweep-r1": {
        "algorithm": "sweep",
        "claimed": ConsistencyLevel.COMPLETE,
        "replicas": 1,
    },
}

#: Workload shape for one case.  Small enough that the independent
#: (vector-space) checker runs in exact mode, long enough that the crash
#: profile's blackout windows land inside the run.
CASE_DEFAULTS: dict = {
    "n_sources": 3,
    "n_updates": 12,
    "mean_interarrival": 6.0,
    "time_scale": 0.002,
    "timeout": 120.0,
}

#: Codec pins a conformance case accepts: a single version for the whole
#: fleet, ``auto`` (negotiate freely), or ``mixed`` -- a v3 warehouse
#: against v1-only sources, the handshake-downgrade case.
CODEC_CHOICES: tuple[str, ...] = ("auto", "1", "2", "3", "mixed")


def _codec_configs(codec: str):
    """(warehouse tcp_config, source tcp_config) for one codec pin."""
    from repro.runtime.tcp import TcpChannelConfig

    if codec == "auto":
        return None, None
    if codec == "mixed":
        return (
            TcpChannelConfig(codec_version=3),
            TcpChannelConfig(codec_version=1),
        )
    config = TcpChannelConfig(codec_version=int(codec))
    return config, config


def run_case(
    algorithm: str,
    profile: str,
    seed: int = 0,
    transport: str = "local",
    n_sources: int = CASE_DEFAULTS["n_sources"],
    n_updates: int = CASE_DEFAULTS["n_updates"],
    mean_interarrival: float = CASE_DEFAULTS["mean_interarrival"],
    time_scale: float = CASE_DEFAULTS["time_scale"],
    timeout: float = CASE_DEFAULTS["timeout"],
    locality: str = "off",
    codec: str = "auto",
) -> dict:
    """One (algorithm, profile, seed) conformance case as a flat row dict."""
    from repro.runtime import run_distributed

    if profile not in PROFILES:
        raise KeyError(
            f"unknown chaos profile {profile!r}; available: {sorted(PROFILES)}"
        )
    if codec not in CODEC_CHOICES:
        raise ValueError(
            f"unknown codec pin {codec!r}; available: {CODEC_CHOICES}"
        )
    if codec == "mixed" and algorithm in SHARDED_ALGORITHMS:
        raise ValueError(
            "mixed-version fleets are a distributed (non-sharded) case;"
            f" {algorithm!r} cannot pin per-side codecs"
        )
    if algorithm in SHARDED_ALGORITHMS:
        claimed = SHARDED_ALGORITHMS[algorithm]["claimed"]
    else:
        claimed = algorithm_info(algorithm).claimed_consistency
    row = {
        "algorithm": algorithm,
        "profile": profile,
        "seed": seed,
        "transport": transport,
        "locality": locality,
        "codec": codec,
        "claimed": claimed.name.lower(),
        "achieved": None,
        "ok": False,
        "installs": 0,
        "updates": 0,
        "faults": 0,
        "batched_ok": None,
        "mean_staleness": None,
        "wall_seconds": 0.0,
        "error": "",
    }
    if algorithm in SHARDED_ALGORITHMS:
        return _run_sharded_case(
            row,
            SHARDED_ALGORITHMS[algorithm],
            claimed,
            profile=profile,
            seed=seed,
            transport=transport,
            n_sources=n_sources,
            n_updates=n_updates,
            mean_interarrival=mean_interarrival,
            time_scale=time_scale,
            timeout=timeout,
            locality=locality,
            codec=codec,
        )
    config = ExperimentConfig(
        algorithm=algorithm,
        n_sources=n_sources,
        n_updates=n_updates,
        seed=seed,
        mean_interarrival=mean_interarrival,
        check_consistency=True,
        locality=locality,
    )
    tcp_config, source_tcp_config = _codec_configs(codec)
    try:
        result = run_distributed(
            config,
            transport=transport,
            time_scale=time_scale,
            timeout=timeout,
            chaos=profile,
            tcp_config=tcp_config,
            source_tcp_config=source_tcp_config,
        )
    except Exception as exc:  # noqa: BLE001 -- a crash is a conformance verdict
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    achieved = result.classified_level or ConsistencyLevel.NONE
    batched = result.recorder.check_batched()
    row.update(
        achieved=achieved.name.lower(),
        installs=result.installs,
        updates=result.updates_delivered,
        faults=(
            result.chaos_stats.faults_injected
            if result.chaos_stats is not None
            else 0
        ),
        batched_ok=batched.ok,
        mean_staleness=(
            round(result.mean_per_update_staleness, 3)
            if result.mean_per_update_staleness is not None
            else None
        ),
        wall_seconds=round(result.wall_seconds, 3),
    )
    ok = achieved >= claimed
    if algorithm in BATCHING_ALGORITHMS and not batched.ok:
        ok = False
        row["error"] = f"batched check: {batched.detail}"
    elif not ok:
        row["error"] = f"achieved {achieved.name.lower()} < claimed"
    row["ok"] = ok
    return row


def _run_sharded_case(
    row: dict,
    spec: dict,
    claimed: ConsistencyLevel,
    profile: str,
    seed: int,
    transport: str,
    n_sources: int,
    n_updates: int,
    mean_interarrival: float,
    time_scale: float,
    timeout: float,
    locality: str = "off",
    codec: str = "auto",
) -> dict:
    """Fill ``row`` from one sharded-runtime conformance run.

    A 4-view family over 2 shards (round-robin so both shards are
    exercised regardless of the hash layout); ``achieved`` is the weakest
    per-view oracle verdict, so one stale view on one shard fails the
    whole case.
    """
    from repro.runtime import run_sharded

    config = ExperimentConfig(
        algorithm=spec["algorithm"],
        n_sources=n_sources,
        n_updates=n_updates,
        seed=seed,
        mean_interarrival=mean_interarrival,
        n_views=4,
        check_consistency=True,
        locality=locality,
    )
    tcp_config, _ = _codec_configs(codec)
    try:
        result = run_sharded(
            config,
            n_shards=2,
            transport=transport,
            time_scale=time_scale,
            timeout=timeout,
            chaos=profile,
            tcp_config=tcp_config,
            strategy="round-robin",
            replicas=spec.get("replicas", 0),
        )
    except Exception as exc:  # noqa: BLE001 -- a crash is a conformance verdict
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    achieved = result.min_level()
    batched_checks = None
    if spec["algorithm"] in BATCHING_ALGORITHMS:
        batched_checks = [
            recorder.check_batched() for recorder in result.recorders.values()
        ]
    row.update(
        achieved=achieved.name.lower(),
        installs=result.installs,
        updates=result.updates_total,
        faults=(
            result.chaos_stats.faults_injected
            if result.chaos_stats is not None
            else 0
        ),
        batched_ok=(
            all(check.ok for check in batched_checks)
            if batched_checks is not None
            else None
        ),
        wall_seconds=round(result.wall_seconds, 3),
    )
    ok = achieved >= claimed
    if batched_checks is not None and not all(c.ok for c in batched_checks):
        ok = False
        bad = next(check for check in batched_checks if not check.ok)
        row["error"] = f"batched check: {bad.detail}"
    elif not ok:
        row["error"] = f"achieved {achieved.name.lower()} < claimed"
    row["ok"] = ok
    return row


def run_matrix(
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    profiles: Sequence[str] = DEFAULT_PROFILES,
    seeds: Sequence[int] = (0,),
    transport: str = "local",
    localities: Sequence[str] = ("off",),
    codec: str = "auto",
    progress=None,
    **case_kwargs,
) -> dict:
    """The full cross product; ``progress`` (if given) is called per row.

    Locality modes beyond ``off`` only apply to the sweep-family
    schedulers (see :data:`repro.warehouse.locality.SUPPORTED_ALGORITHMS`);
    unsupported (algorithm, locality) combinations are skipped, not
    failed.  The same applies to ``codec="mixed"`` and the sharded
    cases, which cannot pin per-side codec versions.
    """
    rows = []
    for algorithm in algorithms:
        base = SHARDED_ALGORITHMS.get(algorithm, {}).get("algorithm", algorithm)
        if codec == "mixed" and algorithm in SHARDED_ALGORITHMS:
            continue
        for locality in localities:
            if locality != "off" and base not in LOCALITY_ALGORITHMS:
                continue
            for profile in profiles:
                for seed in seeds:
                    row = run_case(
                        algorithm,
                        profile,
                        seed,
                        transport=transport,
                        locality=locality,
                        codec=codec,
                        **case_kwargs,
                    )
                    rows.append(row)
                    if progress is not None:
                        progress(row)
    return build_report(rows, transport=transport)


def build_report(rows: list[dict], transport: str = "local") -> dict:
    """The JSON document shape written to ``conformance_report.json``."""
    failed = [r for r in rows if not r["ok"]]
    return {
        "suite": "conformance",
        "python": platform.python_version(),
        "transport": transport,
        "cases": len(rows),
        "failed": len(failed),
        "ok": not failed,
        "rows": rows,
    }


def format_report(report: dict) -> str:
    """Human-readable verdict table for one conformance report."""
    rows = report["rows"]
    table = format_table(
        ["algorithm", "profile", "seed", "locality", "codec", "claimed",
         "achieved", "faults", "installs", "stale", "batched", "verdict"],
        [
            [
                row["algorithm"],
                row["profile"],
                row["seed"],
                row.get("locality", "off"),
                row.get("codec", "auto"),
                row["claimed"],
                row["achieved"] or "-",
                row["faults"],
                row["installs"],
                row["mean_staleness"] if row["mean_staleness"] is not None else "-",
                {True: "ok", False: "FAIL", None: "-"}[row["batched_ok"]],
                "PASS" if row["ok"] else f"FAIL ({row['error']})",
            ]
            for row in rows
        ],
        title=f"Protocol conformance under fault injection"
        f" ({report['transport']} transport)",
    )
    verdict = (
        "all cases conform"
        if report["ok"]
        else f"{report['failed']}/{report['cases']} cases FAILED"
    )
    return f"{table}\n\n{verdict}"


__all__ = [
    "BATCHING_ALGORITHMS",
    "CASE_DEFAULTS",
    "CODEC_CHOICES",
    "DEFAULT_ALGORITHMS",
    "DEFAULT_PROFILES",
    "SHARDED_ALGORITHMS",
    "build_report",
    "format_report",
    "load_report",
    "run_case",
    "run_matrix",
    "write_report",
]
