"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload burst-sweep --seed 1 --seconds 12 --trace 0

A run builds :data:`VARIANTS` workloads from the seed and replays them
in turn through the program until the run calls have taken ``--seconds``
in total and each variant has run equally often.  It checks every
repetition after its timed window, and prints one line per metric
followed by a JSON object as the last line of standard output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
#: Workloads a run builds from its seed and cycles through, so that the
#: figures of one seed do not hang on one draw of data and schedule.
VARIANTS = 4
#: No repetition starts after this much wall time, so a run always ends
#: well inside its time limit even when checks or set-up are slow.
WALL_CAP_S = 100.0
#: Largest tracer accounting error accepted, as a share of the window.
ACCOUNTING_TOLERANCE = 1e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "drain_upd_per_s": "1/s",
    "freshness_p50_ms": "ms",
    "cpu_us_per_update": "us",
    "msgs_per_update": "count",
    "peak_rss_mb": "MB",
    "installed_frac": "ratio",
}


def _load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"error: no program to measure under {src}")
    sys.path[:0] = [src, ROOT]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """Repetitions of one workload and what they measured."""

    def __init__(self, spec, seed: int):
        from perfbench.workloads import build_workload

        self.spec = spec
        self.inputs = [
            (sub, build_workload(spec, sub))
            for sub in range(seed * VARIANTS, (seed + 1) * VARIANTS)
        ]
        self.n = spec.n_updates
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.check_s: list[float] = []
        self.peak_rss_mb: float | None = None
        self.spans = None

    def rep(self, index: int, traced: bool) -> None:
        from perfbench.layers import PROBES, layer_metrics
        from perfbench.tracer import SpanRecorder, patched
        from perfbench.verify import verify
        from perfbench.workloads import measure, run_rep

        gc.collect()
        seed, workload = self.inputs[index % VARIANTS]
        tag = str(self.attempted // self.n)
        self.attempted += self.n
        recorder = SpanRecorder() if traced else None
        try:
            if traced:
                with patched(recorder, PROBES):
                    rep = run_rep(self.spec, workload, seed, WORK_DIR, tag)
            else:
                rep = run_rep(self.spec, workload, seed, WORK_DIR, tag)
        except Exception:  # the repetition fails; the run goes on
            traceback.print_exc()
            self.failed += self.n
            return
        self.timed_s += rep.call_s
        if self.peak_rss_mb is None:
            self.peak_rss_mb = rep.peak_rss_mb
        try:
            measured = measure(self.spec, workload, rep)
            started = time.perf_counter()
            problems = verify(self.spec, workload, rep, measured)
            self.check_s.append(time.perf_counter() - started)
            if traced:
                measured["layers"] = layer_metrics(
                    recorder,
                    rep.call_s,
                    measured["counters"],
                    self.n,
                    getattr(rep.result, "installs_by_shard", None),
                )
                self.spans = recorder
        except Exception:
            traceback.print_exc()
            problems = ["measurement or check raised"]
        finally:
            rep.cleanup()
        if problems:
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            self.failed += self.n
            return
        (self.traced if traced else self.plain).append(measured)

    def freshness(self, q: float) -> float:
        """Percentile of the samples of every untraced repetition pooled."""
        from perfbench.workloads import percentile

        return percentile(sorted(x for m in self.plain for x in m["freshness_ms"]), q)

    def end_to_end(self) -> dict[str, float]:
        updates = len(self.plain) * self.n
        return {
            "setup_s": statistics.median(m["setup_s"] for m in self.plain),
            "drain_upd_per_s": updates / _total(self.plain, "drain_s"),
            "freshness_p50_ms": self.freshness(0.50),
            "cpu_us_per_update": _cpu_us_per_update(self.plain, self.n),
            "msgs_per_update": _total(self.plain, "protocol_messages") / updates,
            "peak_rss_mb": self.peak_rss_mb,
            "installed_frac": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        from perfbench.workloads import percentile

        names = self.traced[0]["layers"]
        out = {
            name: statistics.fmean(m["layers"][name] for m in self.traced)
            for name in names
        }
        late = sorted(x for m in self.plain for x in m["late_ms"])
        out.update(
            {
                "freshness_p99_ms": self.freshness(0.99),
                "loadgen.late_p50_ms": percentile(late, 0.50),
                "loadgen.late_p99_ms": percentile(late, 0.99),
                "freshness_samples": sum(
                    len(m["freshness_ms"]) for m in self.plain
                ),
                "failed_frac": self.failed / self.attempted,
                "consistency.check_s": statistics.median(self.check_s),
                "trace.overhead_frac": _cpu_us_per_update(self.traced, self.n)
                / _cpu_us_per_update(self.plain, self.n)
                - 1.0,
            }
        )
        return out

    def accounting_ok(self) -> bool:
        return all(
            m["layers"]["trace.accounting_error_s"]
            <= ACCOUNTING_TOLERANCE * m["layers"]["trace.window_s"]
            and m["layers"]["runtime.unattributed_s"] >= 0
            for m in self.traced
        )


def _total(measured: list[dict], key: str) -> float:
    return math.fsum(m[key] for m in measured)


def _cpu_us_per_update(measured: list[dict], n: int) -> float:
    """Process CPU time of the run calls over every update they made."""
    return _total(measured, "cpu_s") / (len(measured) * n) * 1e6


def main(argv=None) -> int:
    args = _parse(argv)
    # asyncio.run installs its own SIGINT handler only over the default
    # one, and on Python 3.11 that check formats the run's whole result,
    # which lands in setup_s.  Start from the default handler, as a run
    # from a terminal does, so that a parent that ignores SIGINT does not
    # change what set-up costs.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _load_program()
    from perfbench.workloads import SPECS

    spec = SPECS.get(args.workload)
    if spec is None:
        sys.exit(f"error: unknown workload {args.workload!r}; have {sorted(SPECS)}")
    os.makedirs(WORK_DIR, exist_ok=True)
    run = Run(spec, args.seed)
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < WALL_CAP_S:
        if run.timed_s >= args.seconds and index % VARIANTS == 0:
            break
        run.rep(index, traced=False)
        if args.trace:
            run.rep(index, traced=True)
        index += 1
        if run.failed >= VARIANTS * run.n:
            break  # the program is failing; stop retrying it
    if not run.plain or (args.trace and not run.traced):
        sys.exit("error: no repetition completed")
    if args.trace:
        metrics = run.per_layer()
        units = {name: _unit(name) for name in metrics}
        spans_path = os.path.join(
            WORK_DIR, f"spans-{spec.name}-seed{args.seed}.jsonl"
        )
        run.spans.write_jsonl(spans_path)
        print(f"spans of the last traced repetition: {spans_path}")
        correct = run.failed == 0 and run.accounting_ok()
    else:
        metrics = run.end_to_end()
        units = END_TO_END_UNITS
        correct = run.failed == 0
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_per_install", "_skew")):
        return "ratio"
    if "bytes" in name:
        return "B/update" if name.endswith("per_update") else "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
