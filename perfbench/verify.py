"""Correctness of one repetition, checked after its timed window.

Every check reads the program's recorded run and compares it with the
benchmark's own workload; any failure fails the whole repetition.
"""

from __future__ import annotations

from repro.analysis.model import sweep_messages_per_update
from repro.warehouse.registry import algorithm_info

from perfbench.workloads import N_SOURCES, Rep, Spec, schedule_times


def final_source_states(workload) -> dict:
    """Each base relation after its whole schedule, replayed here."""
    states = {name: rel.copy() for name, rel in workload.initial_states.items()}
    for index, schedule in workload.schedules.items():
        name = workload.view.name_of(index)
        for update in sorted(schedule, key=lambda u: u.time):
            states[name].apply_delta(update.delta)
    return states


def verify(spec: Spec, workload, rep: Rep, measured: dict) -> list[str]:
    """Problems found in one repetition (empty when it is correct)."""
    problems: list[str] = []
    claimed = algorithm_info(spec.algorithm).claimed_consistency
    expected = set(schedule_times(workload))
    states = final_source_states(workload)
    finals = rep.final_views()
    for name, recorder in rep.recorders().items():
        level = recorder.classify()
        if level < claimed:
            problems.append(
                f"{name}: classified {level.name}, claims {claimed.name}"
            )
        missing = recorder.missing_deliveries()
        if missing:
            problems.append(f"{name}: undelivered updates {missing}")
        try:
            attributed = [
                (notice.source_index, notice.seq)
                for install in recorder.attribute_installs()
                for notice in install.members
            ]
        except ValueError as exc:
            problems.append(f"{name}: unattributable installs ({exc})")
            attributed = []
        if len(attributed) != len(expected) or set(attributed) != expected:
            problems.append(
                f"{name}: {len(set(attributed))} of {len(expected)}"
                " updates attributed to an install"
            )
        if finals[name] != recorder.view.evaluate(states):
            problems.append(f"{name}: final view differs from re-evaluation")
    if spec.algorithm == "sweep":
        model = sweep_messages_per_update(N_SOURCES) * len(expected)
        if measured["protocol_messages"] != model:
            problems.append(
                f"protocol messages {measured['protocol_messages']}"
                f" != model {model}"
            )
    return problems


__all__ = ["final_source_states", "verify"]
