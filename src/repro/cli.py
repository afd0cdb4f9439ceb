"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``              one maintenance experiment (all ExperimentConfig knobs)
``run-distributed``  the same experiment on the asyncio runtime (TCP/local)
``run-sharded``      a view family partitioned across warehouse shards
``serve-warehouse``  host the warehouse site of a multi-process deployment
``serve-source``     host one data-source site of a multi-process deployment
``serve-shard``      host one warehouse shard of a sharded deployment
``algorithms``       list registered algorithms with their Table 1 properties
``table1``           regenerate the measured Table 1
``fig5``             replay the paper's Figure 5 example
``experiments``      run every experiment module and print its table
``bench-throughput`` run the throughput regression suite (BENCH_throughput.json)
``conformance``      sweep algorithms x chaos fault profiles against the oracle
``recovery-sweep``   crash + recover each seeded case against its baseline
``failover-sweep``   kill primaries, promote standbys, compare baselines
``rebalance``        host a sharded fleet and migrate one view mid-run
``rebalance-sweep``  migrate views at protocol points, compare baselines
"""

from __future__ import annotations

import argparse
import sys


def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run one maintenance experiment")
    p.add_argument("--algorithm", "-a", default="sweep")
    p.add_argument("--sources", "-n", type=int, default=3)
    p.add_argument("--updates", "-u", type=int, default=20)
    p.add_argument("--seed", "-s", type=int, default=0)
    p.add_argument("--backend", choices=("memory", "sqlite"), default="memory")
    p.add_argument("--latency", type=float, default=5.0)
    p.add_argument(
        "--latency-model", choices=("constant", "uniform", "exponential"),
        default="uniform",
    )
    p.add_argument("--interarrival", type=float, default=10.0)
    p.add_argument("--insert-fraction", type=float, default=0.6)
    p.add_argument("--rows", type=int, default=20)
    p.add_argument("--global-txn-fraction", type=float, default=0.0)
    p.add_argument("--no-keys", action="store_true",
                   help="project out key attributes (rejected by Strobe family)")
    p.add_argument("--locality", choices=("off", "aux", "cache", "auto"),
                   default="off",
                   help="query-locality layer: auxiliary source copies"
                        " and/or delta-patched answer caching")
    p.add_argument("--locality-budget", type=int, default=0,
                   help="row budget for the locality layer (0 = unlimited)")
    p.add_argument("--trace", action="store_true", help="print the event trace")
    p.add_argument("--no-check", action="store_true",
                   help="skip consistency verification")
    p.add_argument("--show-view", action="store_true",
                   help="print the final materialized view")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import run_experiment

    config = ExperimentConfig(
        algorithm=args.algorithm,
        n_sources=args.sources,
        n_updates=args.updates,
        seed=args.seed,
        backend=args.backend,
        latency=args.latency,
        latency_model=args.latency_model,
        mean_interarrival=args.interarrival,
        insert_fraction=args.insert_fraction,
        rows_per_relation=args.rows,
        global_txn_fraction=args.global_txn_fraction,
        project_keys=not args.no_keys,
        locality=args.locality,
        locality_budget_rows=args.locality_budget,
        trace=args.trace,
        check_consistency=not args.no_check,
    )
    result = run_experiment(config)
    if args.trace and result.trace is not None:
        print(result.trace.format())
        print()
    print(result.report())
    if args.show_view:
        print()
        print(result.final_view.pretty())
    return 0


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    """Config knobs every site of one deployment must agree on."""
    p.add_argument("--algorithm", "-a", default="sweep")
    p.add_argument("--sources", "-n", type=int, default=3)
    p.add_argument("--updates", "-u", type=int, default=20)
    p.add_argument("--seed", "-s", type=int, default=0)
    p.add_argument("--backend", choices=("memory", "sqlite"), default="memory")
    p.add_argument("--interarrival", type=float, default=10.0)
    p.add_argument("--insert-fraction", type=float, default=0.6)
    p.add_argument("--rows", type=int, default=20)
    p.add_argument("--time-scale", type=float, default=0.01,
                   help="wall seconds per virtual time unit")
    p.add_argument("--views", type=int, default=1,
                   help="size of the maintained view family (sharded runs)")
    p.add_argument("--batch-max", type=int, default=0,
                   help="batched-sweep drain cap (0 drains the whole queue)")
    p.add_argument("--adaptive-batch", action="store_true",
                   help="derive the batched-sweep drain cap from observed"
                        " queue depth and install lag")
    p.add_argument("--locality", choices=("off", "aux", "cache", "auto"),
                   default="off",
                   help="query-locality layer: auxiliary source copies"
                        " and/or delta-patched answer caching")
    p.add_argument("--locality-budget", type=int, default=0,
                   help="row budget for the locality layer (0 = unlimited)")


def _workload_config(args: argparse.Namespace, **extra):
    from repro.harness.config import ExperimentConfig

    return ExperimentConfig(
        algorithm=args.algorithm,
        n_sources=args.sources,
        n_updates=args.updates,
        seed=args.seed,
        backend=args.backend,
        mean_interarrival=args.interarrival,
        insert_fraction=args.insert_fraction,
        rows_per_relation=args.rows,
        n_views=args.views,
        batch_max=args.batch_max,
        batch_adaptive=args.adaptive_batch,
        locality=args.locality,
        locality_budget_rows=args.locality_budget,
        **extra,
    )


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _add_tcp_args(p: argparse.ArgumentParser) -> None:
    """Transport fast-path knobs shared by every TCP-speaking command."""
    p.add_argument(
        "--codec-version", type=int, default=None, metavar="N",
        choices=(1, 2, 3),
        help="pin the advertised wire codec: 1 disables mb frames and"
             " flat-row encoding, 2 is JSON flat rows, 3 serializes frames"
             " through the binary kernel (binwire); peers negotiate the"
             " pairwise minimum and decode accepts every version"
             " (default: 2; 3 is opt-in)",
    )
    p.add_argument(
        "--compress-min", type=int, default=None, metavar="BYTES",
        help="zlib-compress frames whose body is at least BYTES long"
             " (0 disables compression; default: 16384)",
    )
    p.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="connection attempts before a peer is declared dead (default: 8)",
    )
    p.add_argument(
        "--connect-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt TCP connect timeout (default: 5.0)",
    )


def _tcp_config(args: argparse.Namespace):
    """A TcpChannelConfig from CLI knobs, or None for pure defaults."""
    kwargs = {}
    if args.codec_version is not None:
        kwargs["codec_version"] = args.codec_version
    if args.compress_min is not None:
        kwargs["compress_min_bytes"] = args.compress_min or None
    if args.max_retries is not None:
        kwargs["max_retries"] = args.max_retries
    if args.connect_timeout is not None:
        kwargs["connect_timeout"] = args.connect_timeout
    if not kwargs:
        return None
    from repro.runtime import TcpChannelConfig

    return TcpChannelConfig(**kwargs)


def _add_run_distributed_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "run-distributed",
        help="run one experiment on the asyncio runtime (all sites in-process)",
    )
    _add_workload_args(p)
    _add_tcp_args(p)
    p.add_argument("--transport", choices=("tcp", "local"), default="tcp")
    p.add_argument("--host", default="127.0.0.1",
                   help="interface the TCP listeners bind")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="wall-clock quiescence timeout in seconds")
    p.add_argument("--chaos", default=None, metavar="PROFILE",
                   help="inject transport faults from a named chaos profile"
                        " (healthy/delay/dup/drop/crash/hostile/source-stall/"
                        "source-burst/source-reorder/crash-restart)")
    p.add_argument("--no-check", action="store_true",
                   help="skip consistency verification")
    p.add_argument("--show-view", action="store_true",
                   help="print the final materialized view")


def _cmd_run_distributed(args: argparse.Namespace) -> int:
    from repro.runtime import run_distributed

    config = _workload_config(args, check_consistency=not args.no_check)
    result = run_distributed(
        config,
        transport=args.transport,
        time_scale=args.time_scale,
        host=args.host,
        timeout=args.timeout,
        tcp_config=_tcp_config(args),
        chaos=args.chaos,
    )
    print(result.report())
    if args.show_view:
        print()
        print(result.final_view.pretty())
    return 0


def _add_run_sharded_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "run-sharded",
        help="partition a view family across warehouse shards and run to"
             " quiescence",
    )
    _add_workload_args(p)
    _add_tcp_args(p)
    p.add_argument("--shards", type=int, default=2,
                   help="number of warehouse shards")
    p.add_argument("--replicas", type=int, default=0,
                   help="hot standbys per shard (0 = no replication)")
    p.add_argument("--strategy", choices=("hash", "round-robin"),
                   default="hash", help="view-to-shard assignment rule")
    p.add_argument("--transport", choices=("tcp", "local"), default="local")
    p.add_argument("--host", default="127.0.0.1",
                   help="interface the TCP listeners bind")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="wall-clock quiescence timeout in seconds")
    p.add_argument("--chaos", default=None, metavar="PROFILE",
                   help="inject transport faults from a named chaos profile")
    p.add_argument("--processes", action="store_true",
                   help="launch every shard and source as its own OS process"
                        " under the shard supervisor (implies TCP)")
    p.add_argument("--durable-dir", default=None, metavar="DIR",
                   help="checkpoint + WAL root; each shard persists to"
                        " DIR/shard<id> and a re-run recovers from it")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N", help="checkpoint every N installed updates")
    p.add_argument("--fsync-batch", type=int, default=8, metavar="N",
                   help="fsync the WAL once per N appended updates"
                        " (group commit; default: 8)")
    p.add_argument("--restart", choices=("never", "on-crash"),
                   default="never",
                   help="supervisor restart policy for crashed shard"
                        " processes (--processes with --durable-dir only)")
    p.add_argument("--max-restarts", type=int, default=2,
                   help="restart budget per shard process")
    p.add_argument("--rebalance", default=None, metavar="VIEW@STEP",
                   help="migrate VIEW to --rebalance-to mid-run; STEP is"
                        " deliveries:N or installs:N (bare N counts"
                        " deliveries) on the donor primary")
    p.add_argument("--rebalance-to", type=int, default=None, metavar="SHARD",
                   help="recipient shard of the --rebalance migration")
    p.add_argument("--no-check", action="store_true",
                   help="skip consistency verification")


def _checkpoint_policy(args: argparse.Namespace):
    if getattr(args, "checkpoint_every", None) is None and (
        getattr(args, "checkpoint_interval", None) is None
    ):
        return None
    from repro.durability import CheckpointPolicy

    kwargs = {}
    if getattr(args, "checkpoint_every", None) is not None:
        kwargs["every_installs"] = args.checkpoint_every
    if getattr(args, "checkpoint_interval", None) is not None:
        kwargs["every_time"] = args.checkpoint_interval
    return CheckpointPolicy(**kwargs)


def _parse_rebalance(args: argparse.Namespace):
    """``--rebalance VIEW@STEP`` + ``--rebalance-to`` -> RebalanceSpec."""
    if args.rebalance is None:
        if args.rebalance_to is not None:
            raise SystemExit("--rebalance-to needs --rebalance VIEW@STEP")
        return None
    if args.rebalance_to is None:
        raise SystemExit("--rebalance needs --rebalance-to SHARD")
    from repro.runtime import RebalanceSpec

    view, sep, step = args.rebalance.partition("@")
    if not sep or not view or not step:
        raise SystemExit(
            f"--rebalance wants VIEW@STEP, got {args.rebalance!r}"
        )
    counter, sep, count = step.partition(":")
    if not sep:
        counter, count = "deliveries", step
    if counter not in ("deliveries", "installs") or not count.isdigit():
        raise SystemExit(
            f"--rebalance STEP wants deliveries:N or installs:N, got {step!r}"
        )
    kwargs = {f"after_{counter}": int(count)}
    return RebalanceSpec(view=view, to_shard=args.rebalance_to, **kwargs)


def _cmd_run_sharded(args: argparse.Namespace) -> int:
    from repro.runtime import launch_sharded_processes, run_sharded

    config = _workload_config(args, check_consistency=not args.no_check)
    rebalance = _parse_rebalance(args)
    if args.processes and rebalance is not None:
        raise SystemExit(
            "--rebalance drives the single-loop fleet; it cannot be"
            " combined with --processes"
        )
    if args.processes:
        outputs = launch_sharded_processes(
            config,
            args.shards,
            time_scale=args.time_scale,
            strategy=args.strategy,
            host=args.host,
            timeout=args.timeout,
            durable_root=args.durable_dir,
            restart=args.restart,
            max_restarts=args.max_restarts,
            replicas=args.replicas,
        )
        for name in sorted(outputs):
            text = outputs[name].strip()
            if text:
                print(f"--- {name} ---")
                print(text)
        print(f"\nsharded deployment of {len(outputs)} process(es) exited"
              " cleanly (every shard verified its views)")
        return 0
    try:
        result = run_sharded(
            config,
            n_shards=args.shards,
            transport=args.transport,
            time_scale=args.time_scale,
            host=args.host,
            timeout=args.timeout,
            tcp_config=_tcp_config(args),
            chaos=args.chaos,
            strategy=args.strategy,
            durable_dir=args.durable_dir,
            checkpoint_policy=_checkpoint_policy(args),
            fsync_batch=args.fsync_batch,
            replicas=args.replicas,
            rebalance=rebalance,
        )
    except ValueError as exc:
        if rebalance is None:
            raise
        # A misconfigured --rebalance (primary view, unknown view,
        # inactive recipient, durability combo) is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.report())
    return 0


def _add_rebalance_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "rebalance",
        help="host a live sharded fleet and migrate one view between"
             " shards mid-run (drain, handoff, fenced re-route)",
    )
    _add_workload_args(p)
    _add_tcp_args(p)
    # A one-view family has nothing migratable (the primary is pinned);
    # default to a family worth redistributing.
    p.set_defaults(views=4)
    p.add_argument("--shards", type=int, default=2,
                   help="number of warehouse shards")
    p.add_argument("--replicas", type=int, default=0,
                   help="hot standbys per shard (standbys migrate in"
                        " lockstep with their primaries)")
    p.add_argument("--strategy", choices=("hash", "round-robin"),
                   default="round-robin",
                   help="launch-time view-to-shard assignment rule")
    p.add_argument("--transport", choices=("tcp", "local"), default="local")
    p.add_argument("--host", default="127.0.0.1",
                   help="interface the TCP listeners bind")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="wall-clock quiescence timeout in seconds")
    p.add_argument("--view", default=None, metavar="NAME",
                   help="view to migrate (default: the first non-primary"
                        " view of the first multi-view shard)")
    p.add_argument("--to-shard", type=int, default=None, metavar="SHARD",
                   help="recipient shard (default: the next active shard)")
    p.add_argument("--after-deliveries", type=int, default=None, metavar="N",
                   help="fire after the donor primary's N-th delivery")
    p.add_argument("--after-installs", type=int, default=None, metavar="N",
                   help="fire after the donor primary's N-th install")
    p.add_argument("--no-check", action="store_true",
                   help="skip consistency verification")


def _cmd_rebalance(args: argparse.Namespace) -> int:
    from repro.harness.equivalence import pick_migration
    from repro.runtime import RebalanceSpec, run_sharded
    from repro.warehouse.sharding import partition_views, view_family

    config = _workload_config(args, check_consistency=not args.no_check)
    if args.view is None or args.to_shard is None:
        from repro.harness.runner import build_workload
        from repro.simulation.rng import RngRegistry

        workload = build_workload(config, RngRegistry(config.seed))
        family = view_family(workload.view, max(1, config.n_views))
        plan = partition_views(family, args.shards, strategy=args.strategy)
        view, to_shard = pick_migration(plan)
        view = args.view if args.view is not None else view
        to_shard = args.to_shard if args.to_shard is not None else to_shard
    else:
        view, to_shard = args.view, args.to_shard
    kwargs = {}
    if args.after_installs is not None:
        kwargs["after_installs"] = args.after_installs
    else:
        kwargs["after_deliveries"] = (
            args.after_deliveries if args.after_deliveries is not None else 3
        )
    try:
        spec = RebalanceSpec(view=view, to_shard=to_shard, **kwargs)
        result = run_sharded(
            config,
            n_shards=args.shards,
            transport=args.transport,
            time_scale=args.time_scale,
            host=args.host,
            timeout=args.timeout,
            tcp_config=_tcp_config(args),
            strategy=args.strategy,
            replicas=args.replicas,
            rebalance=spec,
        )
    except ValueError as exc:
        # Plan/spec validation (primary view, unknown view, inactive
        # recipient, bad trigger) is operator misconfiguration: a usage
        # error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.report())
    return 0


def _add_serve_shard_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-shard",
        help="host one warehouse shard; sources run in other processes",
    )
    _add_workload_args(p)
    _add_tcp_args(p)
    p.add_argument("--shard-id", type=int, default=None,
                   help="which shard of the plan this process hosts")
    p.add_argument("--standby-of", type=int, default=None, metavar="SHARD",
                   help="host this process as SHARD's first hot standby"
                        " (shorthand for --shard-id SHARD --replica 1)")
    p.add_argument("--replica", type=int, default=0,
                   help="replica number within the shard's group"
                        " (0 = primary)")
    p.add_argument("--seed-from", default=None, metavar="DIR",
                   help="bootstrap a fresh standby's --durable-dir from the"
                        " newest checkpoint in the primary's durable dir")
    p.add_argument("--shards", type=int, required=True,
                   help="total number of shards in the plan")
    p.add_argument("--strategy", choices=("hash", "round-robin"),
                   default="hash", help="view-to-shard assignment rule"
                                        " (must match every other process)")
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT")
    p.add_argument(
        "--source", action="append", default=[], metavar="INDEX=HOST:PORT",
        help="address of each source's listener (repeat for every source)",
    )
    p.add_argument(
        "--expect-updates", type=int, default=None,
        help="exit with a report after this many updates (default: every"
             " scheduled update)",
    )
    p.add_argument("--timeout", type=float, default=3600.0)
    p.add_argument("--no-verify", action="store_true",
                   help="do not fail the process when a view misses its"
                        " claimed consistency level")
    p.add_argument("--durable-dir", default=None, metavar="DIR",
                   help="persist checkpoints + update log here; on restart"
                        " the shard recovers and resumes from DIR")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N", help="checkpoint every N installed updates"
                                     " (default 25)")
    p.add_argument("--checkpoint-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="also checkpoint when this much wall time has"
                        " passed since the last one")
    p.add_argument("--fsync-batch", type=int, default=8, metavar="N",
                   help="fsync the WAL once per N appended updates"
                        " (group commit; default: 8)")


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime import serve_shard_async

    config = _workload_config(args)
    if (args.shard_id is None) == (args.standby_of is None):
        raise SystemExit(
            "serve-shard needs exactly one of --shard-id or --standby-of"
        )
    shard_id = args.shard_id
    replica = args.replica
    if args.standby_of is not None:
        shard_id = args.standby_of
        replica = max(1, replica)
    addresses = {}
    for spec in args.source:
        index, _, addr = spec.partition("=")
        addresses[int(index)] = _parse_address(addr)
    if not addresses:
        raise SystemExit("serve-shard needs at least one --source")
    listen_host, listen_port = _parse_address(args.listen)
    result = asyncio.run(
        serve_shard_async(
            config,
            shard_id,
            args.shards,
            addresses,
            listen_host=listen_host,
            listen_port=listen_port,
            time_scale=args.time_scale,
            expect_updates=args.expect_updates,
            timeout=args.timeout,
            tcp_config=_tcp_config(args),
            strategy=args.strategy,
            verify=not args.no_verify,
            durable_dir=args.durable_dir,
            checkpoint_policy=_checkpoint_policy(args),
            fsync_batch=args.fsync_batch,
            replica=replica,
            seed_from=args.seed_from,
        )
    )
    print(result.report())
    return 0


def _add_serve_warehouse_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-warehouse",
        help="host the warehouse site; sources run in other processes",
    )
    _add_workload_args(p)
    p.add_argument("--listen", default="127.0.0.1:7700", metavar="HOST:PORT")
    p.add_argument(
        "--source", action="append", default=[], metavar="INDEX=HOST:PORT",
        help="address of each source's listener (repeat; 0=central for ECA)",
    )
    _add_tcp_args(p)
    p.add_argument(
        "--expect-updates", type=int, default=None,
        help="exit with a report after this many updates (default: all"
             " scheduled updates; 0 serves forever)",
    )
    p.add_argument("--timeout", type=float, default=3600.0)
    p.add_argument("--durable-dir", default=None, metavar="DIR",
                   help="persist checkpoints + update log here; on restart"
                        " the warehouse recovers and resumes from DIR")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N", help="checkpoint every N installed updates"
                                     " (default 25)")
    p.add_argument("--checkpoint-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="also checkpoint when this much wall time has"
                        " passed since the last one")
    p.add_argument("--fsync-batch", type=int, default=8, metavar="N",
                   help="fsync the WAL once per N appended updates"
                        " (group commit; default: 8)")


def _cmd_serve_warehouse(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime import serve_warehouse_async

    config = _workload_config(args)
    addresses = {}
    for spec in args.source:
        index, _, addr = spec.partition("=")
        addresses[int(index)] = _parse_address(addr)
    if not addresses:
        raise SystemExit("serve-warehouse needs at least one --source")
    listen_host, listen_port = _parse_address(args.listen)
    expect = args.expect_updates
    if expect is None:
        expect = config.n_updates
    result = asyncio.run(
        serve_warehouse_async(
            config,
            addresses,
            listen_host=listen_host,
            listen_port=listen_port,
            time_scale=args.time_scale,
            expect_updates=expect or None,
            timeout=args.timeout,
            tcp_config=_tcp_config(args),
            durable_dir=args.durable_dir,
            checkpoint_policy=_checkpoint_policy(args),
            fsync_batch=args.fsync_batch,
        )
    )
    if result is not None:
        print(result.report())
    return 0


def _add_serve_source_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-source",
        help="host one data-source site and replay its update schedule",
    )
    _add_workload_args(p)
    p.add_argument("--index", "-i", type=int, required=True,
                   help="1-based index of the base relation this site owns")
    p.add_argument("--warehouse", default=None, metavar="HOST:PORT",
                   help="address of the warehouse listener")
    p.add_argument(
        "--shard", action="append", default=[], metavar="SHARD=HOST:PORT",
        help="address of one warehouse shard's listener (repeat; serves a"
             " sharded deployment instead of --warehouse)",
    )
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT")
    _add_tcp_args(p)
    p.add_argument("--no-drive", action="store_true",
                   help="do not replay the seeded update schedule")
    p.add_argument("--serve-forever", action="store_true",
                   help="keep serving queries after the schedule drains")
    p.add_argument("--linger", type=float, default=3.0,
                   help="wall seconds of query silence before exiting")
    p.add_argument("--timeout", type=float, default=3600.0)


def _cmd_serve_source(args: argparse.Namespace) -> int:
    import asyncio

    config = _workload_config(args)
    listen_host, listen_port = _parse_address(args.listen)
    if bool(args.warehouse) == bool(args.shard):
        raise SystemExit(
            "serve-source needs exactly one of --warehouse or --shard"
        )
    common = dict(
        listen_host=listen_host,
        listen_port=listen_port,
        time_scale=args.time_scale,
        drive=not args.no_drive,
        exit_when_done=not args.serve_forever,
        linger=args.linger,
        timeout=args.timeout,
        tcp_config=_tcp_config(args),
    )
    if args.shard:
        from repro.runtime import serve_sharded_source_async
        from repro.warehouse.sharding import parse_member

        # Keys like "0" address a shard's primary; "0r1" its standby.
        addresses = {}
        for spec in args.shard:
            member, _, addr = spec.partition("=")
            addresses[parse_member(member)] = _parse_address(addr)
        asyncio.run(
            serve_sharded_source_async(config, args.index, addresses, **common)
        )
        return 0
    from repro.runtime import serve_source_async

    asyncio.run(
        serve_source_async(
            config,
            args.index,
            warehouse_address=_parse_address(args.warehouse),
            **common,
        )
    )
    return 0


def _cmd_algorithms(_args: argparse.Namespace) -> int:
    from repro.harness.report import format_table
    from repro.warehouse.registry import ALGORITHMS

    rows = [
        [
            info.name,
            info.architecture,
            info.claimed_consistency.name.lower(),
            info.message_cost,
            "yes" if info.requires_keys else "no",
            "yes" if info.requires_quiescence else "no",
            info.comments,
        ]
        for info in ALGORITHMS.values()
    ]
    print(
        format_table(
            ["name", "architecture", "consistency", "msg cost", "keys?",
             "quiescence?", "comments"],
            rows,
            title="Registered maintenance algorithms",
        )
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.harness.experiments.table1 import format_table1, run_table1

    print(
        format_table1(
            run_table1(
                seed=args.seed,
                n_sources=args.sources,
                n_updates=args.updates,
                include_baselines=args.baselines,
            )
        )
    )
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.harness.experiments.fig5 import format_fig5, run_fig5

    rows = run_fig5(spacing=args.spacing)
    print(format_fig5(rows))
    return 0 if all(r["match"] == "yes" for r in rows) else 1


def _experiment_sections() -> list[tuple[str, str, str]]:
    """(tag, description, rendered table) for every experiment module."""
    from repro.harness.experiments import (
        ablation,
        amortization,
        concurrency,
        fig5,
        messagesize,
        scaling,
        staleness,
        table1,
    )

    return [
        ("T1", "Table 1, measured",
         table1.format_table1(table1.run_table1(include_baselines=True))),
        ("F5", "Figure 5 trajectory under SWEEP",
         fig5.format_fig5(fig5.run_fig5())),
        ("S1", "message cost vs number of sources",
         scaling.format_scaling(scaling.run_scaling())),
        ("S2", "message cost vs concurrency",
         concurrency.format_concurrency(concurrency.run_concurrency())),
        ("S3", "staleness under sustained updates",
         staleness.format_staleness(staleness.run_staleness())),
        ("S4", "Nested SWEEP amortization",
         amortization.format_amortization(amortization.run_amortization())),
        ("S5", "ECA query payload growth",
         messagesize.format_messagesize(messagesize.run_messagesize())),
        ("A1", "SWEEP variants ablation",
         ablation.format_sweep_variants(ablation.run_sweep_variants())),
        ("A2", "Nested SWEEP termination ablation",
         ablation.format_nested_depth(ablation.run_nested_depth())),
    ]


def _cmd_experiments(args: argparse.Namespace) -> int:
    sections = _experiment_sections()
    for tag, _desc, text in sections:
        print(f"\n### {tag} ###")
        print(text)
    if getattr(args, "save", None):
        lines = [
            "# Experiment report",
            "",
            "Regenerated with `python -m repro experiments --save ...`;",
            "see EXPERIMENTS.md for paper-vs-measured commentary.",
        ]
        for tag, desc, text in sections:
            lines += ["", f"## {tag} — {desc}", "", "```", text, "```"]
        import pathlib

        path = pathlib.Path(args.save)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"\nreport written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient View Maintenance at Data"
            " Warehouses' (SIGMOD 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)
    _add_run_distributed_parser(sub)
    _add_run_sharded_parser(sub)
    _add_rebalance_parser(sub)
    _add_serve_warehouse_parser(sub)
    _add_serve_source_parser(sub)
    _add_serve_shard_parser(sub)
    sub.add_parser("algorithms", help="list registered algorithms")

    t1 = sub.add_parser("table1", help="regenerate the measured Table 1")
    t1.add_argument("--seed", type=int, default=7)
    t1.add_argument("--sources", type=int, default=4)
    t1.add_argument("--updates", type=int, default=24)
    t1.add_argument("--baselines", action="store_true")

    f5 = sub.add_parser("fig5", help="replay the Figure 5 example")
    f5.add_argument("--spacing", type=float, default=0.5)

    exp = sub.add_parser("experiments", help="run every experiment module")
    exp.add_argument("--save", metavar="PATH",
                     help="also write a markdown report to PATH")

    bench = sub.add_parser(
        "bench-throughput",
        help="run the throughput regression suite and emit JSON",
    )
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke subset (saturated regime only)")
    bench.add_argument("--json", default="BENCH_throughput.json",
                       metavar="PATH", help="where to write the JSON report")
    bench.add_argument(
        "--check-against", metavar="PATH", default=None,
        help="fail when any shared cell regresses past --tolerance"
             " versus this baseline report",
    )
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional throughput drop (default 0.30)")
    bench.add_argument(
        "--require-locality-reduction", action="store_true",
        help="fail unless the locality rows hit their floors (headline"
             " cell 2x faster and 3x fewer messages; every +aux pair"
             " at least 2x fewer messages, consistency preserved)",
    )
    bench.add_argument(
        "--require-codec-efficiency", action="store_true",
        help="fail unless codec v3 clears a gate arm on the saturated"
             " TCP sweep pair (1.3x updates/sec or 2x fewer"
             " pre-compression bytes per update vs the same-run v2 twin,"
             " consistency unchanged)",
    )

    conf = sub.add_parser(
        "conformance",
        help="run every algorithm through chaos fault profiles and check"
             " the consistency oracle's verdict against the claimed level",
    )
    conf.add_argument(
        "--algorithms", default=None, metavar="A,B,...",
        help="comma-separated algorithms (default: every registered one)",
    )
    conf.add_argument(
        "--profiles", default=None, metavar="P,Q,...",
        help="comma-separated chaos profiles (default: healthy,delay,dup,"
             "crash,source-stall,source-reorder)",
    )
    conf.add_argument("--seed", "-s", type=int, default=0,
                      help="first workload seed")
    conf.add_argument("--runs", type=int, default=1,
                      help="seeds per case: seed, seed+1, ...")
    conf.add_argument("--transport", choices=("local", "tcp"), default="local")
    conf.add_argument(
        "--localities", default="off", metavar="M,N,...",
        help="comma-separated locality modes to cross with each case"
             " (off,aux,cache,auto; unsupported algorithm/mode pairs"
             " are skipped)",
    )
    conf.add_argument(
        "--codec-version", default="auto", metavar="V",
        help="pin the wire codec for every case: 1|2|3, or 'mixed' for a"
             " v3 warehouse with v1-only sources (handshake-downgrade"
             " check; distributed cases only).  Default: auto (negotiate)",
    )
    conf.add_argument("--updates", "-u", type=int, default=None)
    conf.add_argument("--sources", "-n", type=int, default=None)
    conf.add_argument("--time-scale", type=float, default=None,
                      help="wall seconds per virtual time unit")
    conf.add_argument("--timeout", type=float, default=None,
                      help="wall-clock quiescence timeout per case")
    conf.add_argument("--json", default="conformance_report.json",
                      metavar="PATH", help="where to write the JSON report")

    from repro.harness.equivalence import PERTURBATIONS

    for perturbation in PERTURBATIONS.values():
        eq = sub.add_parser(perturbation.command, help=perturbation.help)
        eq.set_defaults(perturbation=perturbation.name)
        eq.add_argument("--seed", "-s", type=int, default=0,
                        help="first workload seed")
        eq.add_argument("--seeds", type=int, default=30,
                        help="seeds per sweep: seed, seed+1, ...")
        eq.add_argument("--tcp-every", type=int, default=5,
                        help="every Nth seed runs over loopback TCP"
                             " (0 = local only)")
        eq.add_argument("--time-scale", type=float, default=0.002,
                        help="wall seconds per virtual time unit")
        eq.add_argument("--timeout", type=float, default=120.0,
                        help="wall-clock quiescence timeout per run")
        if perturbation.smoke is not None:
            eq.add_argument("--smoke", action="store_true",
                            help=perturbation.smoke_help)
        eq.add_argument("--json", default=perturbation.report_path,
                        metavar="PATH", help="where to write the JSON report")

    adv = sub.add_parser(
        "advise", help="recommend an algorithm for a workload"
    )
    adv.add_argument("--sources", "-n", type=int, default=4)
    adv.add_argument("--rate", type=float, default=0.02,
                     help="total update rate (updates per time unit)")
    adv.add_argument("--latency", type=float, default=5.0)
    adv.add_argument(
        "--require", choices=("convergence", "weak", "strong", "complete"),
        default="strong",
    )
    adv.add_argument("--keys", action="store_true",
                     help="the view keeps a key of every relation")
    adv.add_argument("--centralized-ok", action="store_true")
    adv.add_argument("--fresh", action="store_true",
                     help="installs must keep up with the stream")
    adv.add_argument("--global-txns", action="store_true")
    return parser


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.analysis.advisor import WorkloadFacts, explain
    from repro.consistency.levels import ConsistencyLevel

    facts = WorkloadFacts(
        n_sources=args.sources,
        update_rate=args.rate,
        latency=args.latency,
        required_consistency=ConsistencyLevel[args.require.upper()],
        view_has_all_keys=args.keys,
        centralized_ok=args.centralized_ok,
        needs_fresh_view=args.fresh,
        has_global_transactions=args.global_txns,
    )
    print(explain(facts))
    return 0


def _cmd_bench_throughput(args: argparse.Namespace) -> int:
    from repro.harness.throughput import (
        build_report,
        codec_problems,
        compare_reports,
        format_suite,
        load_report,
        locality_problems,
        run_suite,
        write_report,
    )

    rows = run_suite(quick=args.quick)
    print(format_suite(rows))
    report = build_report(rows, quick=args.quick)
    path = write_report(report, args.json)
    print(f"\nwrote {path}")
    if args.require_locality_reduction:
        problems = locality_problems(rows)
        if problems:
            for problem in problems:
                print(f"LOCALITY GATE: {problem}", file=sys.stderr)
            return 1
        print("locality gate passed")
    if args.require_codec_efficiency:
        problems = codec_problems(rows)
        if problems:
            for problem in problems:
                print(f"CODEC GATE: {problem}", file=sys.stderr)
            return 1
        print("codec gate passed")
    if args.check_against:
        problems = compare_reports(
            report, load_report(args.check_against), tolerance=args.tolerance
        )
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.check_against}"
              f" (tolerance {args.tolerance:.0%})")
    return 0


def _cmd_equivalence_sweep(args: argparse.Namespace) -> int:
    from repro.harness import equivalence
    from repro.harness.report import write_report

    perturbation = equivalence.PERTURBATIONS[args.perturbation]

    def progress(row: dict) -> None:
        verdict = "pass" if row["ok"] else f"FAIL ({row['error']})"
        mutated = " MUT" if row["mutated"] else ""
        print(
            f"  {row['algorithm']:>13s} x {row['transport']:<5s}"
            f" seed={row['seed']} {row['point']:<16s}{mutated}"
            f" ... {verdict}",
            flush=True,
        )

    rows = equivalence.run_sweep(
        args.perturbation,
        seeds=range(args.seed, args.seed + args.seeds),
        tcp_every=args.tcp_every,
        time_scale=args.time_scale,
        timeout=args.timeout,
        progress=progress,
    )
    smoke = None
    if getattr(args, "smoke", False):
        print(f"  {perturbation.name} smoke (multiprocess SIGKILL) ...",
              flush=True)
        smoke = perturbation.smoke()
    report = equivalence.build_report(args.perturbation, rows, smoke=smoke)
    print()
    print(equivalence.format_report(report))
    path = write_report(report, args.json)
    print(f"\nwrote {path}")
    return 0 if report["ok"] else 1


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.harness import conformance

    algorithms = (
        args.algorithms.split(",")
        if args.algorithms
        else conformance.DEFAULT_ALGORITHMS
    )
    profiles = (
        args.profiles.split(",") if args.profiles else conformance.DEFAULT_PROFILES
    )
    from repro.runtime.chaos import PROFILES
    from repro.warehouse.registry import ALGORITHMS

    known = tuple(ALGORITHMS) + tuple(conformance.SHARDED_ALGORITHMS)
    for name in algorithms:
        if name not in known:
            print(
                f"unknown algorithm {name!r}; available: {','.join(known)}",
                file=sys.stderr,
            )
            return 2
    for name in profiles:
        if name not in PROFILES:
            print(
                f"unknown chaos profile {name!r}; available:"
                f" {','.join(PROFILES)}",
                file=sys.stderr,
            )
            return 2
    if args.codec_version not in conformance.CODEC_CHOICES:
        print(
            f"unknown codec pin {args.codec_version!r}; available:"
            f" {','.join(conformance.CODEC_CHOICES)}",
            file=sys.stderr,
        )
        return 2
    localities = tuple(args.localities.split(","))
    for name in localities:
        if name not in ("off", "aux", "cache", "auto"):
            print(
                f"unknown locality mode {name!r}; available:"
                f" off,aux,cache,auto",
                file=sys.stderr,
            )
            return 2
    case_kwargs = {}
    if args.updates is not None:
        case_kwargs["n_updates"] = args.updates
    if args.sources is not None:
        case_kwargs["n_sources"] = args.sources
    if args.time_scale is not None:
        case_kwargs["time_scale"] = args.time_scale
    if args.timeout is not None:
        case_kwargs["timeout"] = args.timeout

    def progress(row: dict) -> None:
        verdict = "pass" if row["ok"] else f"FAIL ({row['error']})"
        print(
            f"  {row['algorithm']:>13s} x {row['profile']:<8s}"
            f" seed={row['seed']} loc={row.get('locality', 'off')}"
            f" ... {verdict}",
            flush=True,
        )

    report = conformance.run_matrix(
        algorithms,
        profiles,
        seeds=range(args.seed, args.seed + args.runs),
        transport=args.transport,
        localities=localities,
        codec=args.codec_version,
        progress=progress,
        **case_kwargs,
    )
    print()
    print(conformance.format_report(report))
    path = conformance.write_report(report, args.json)
    print(f"\nwrote {path}")
    return 0 if report["ok"] else 1


_COMMANDS = {
    "run": _cmd_run,
    "run-distributed": _cmd_run_distributed,
    "run-sharded": _cmd_run_sharded,
    "rebalance": _cmd_rebalance,
    "serve-warehouse": _cmd_serve_warehouse,
    "serve-source": _cmd_serve_source,
    "serve-shard": _cmd_serve_shard,
    "algorithms": _cmd_algorithms,
    "table1": _cmd_table1,
    "fig5": _cmd_fig5,
    "experiments": _cmd_experiments,
    "advise": _cmd_advise,
    "bench-throughput": _cmd_bench_throughput,
    "conformance": _cmd_conformance,
    "recovery-sweep": _cmd_equivalence_sweep,
    "failover-sweep": _cmd_equivalence_sweep,
    "rebalance-sweep": _cmd_equivalence_sweep,
}


#: Commands hosting long-lived sites: runtime failures (dead peer, shard
#: crash, failed verification, quiescence timeout) must surface as a clean
#: message and a non-zero exit, not a traceback -- and never exit 0.
_HOST_COMMANDS = frozenset({
    "run-distributed", "run-sharded", "rebalance", "serve-warehouse",
    "serve-source", "serve-shard",
})


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in _HOST_COMMANDS:
        from repro.runtime import CLEAN_FAILURE_EXIT, RuntimeHostError

        try:
            return _COMMANDS[args.command](args)
        except RuntimeHostError as exc:
            # A deliberate, reported failure (verification below the
            # claimed level, peer probe exhausted, quiescence timeout):
            # exit 3 so a supervising process can tell it from a crash.
            print(f"error: {exc}", file=sys.stderr)
            return CLEAN_FAILURE_EXIT
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
