"""The equivalence harness: one case per perturbation, its mutation rows,
report plumbing, and the sweep subcommands' shared flag set."""

import pytest

from repro.cli import build_parser, main
from repro.harness.equivalence import (
    PERTURBATIONS,
    build_report,
    format_report,
    run_case,
    run_sweep,
)
from repro.harness.report import load_report, write_report

# One case per perturbation, each at a different protocol point; the
# crash-restart case also carries auxiliary copies, as its sweep does on
# every third seed.
CASES = [
    ("crash-restart", "sweep", 2, "aux"),
    ("kill-primary", "batched-sweep", 1, "off"),
    ("migrate", "sweep", 2, "off"),
]

SHARED_FLAGS = {
    "-h", "--help", "--seed", "-s", "--seeds", "--tcp-every",
    "--time-scale", "--timeout", "--json",
}


@pytest.mark.parametrize("name,algorithm,seed,locality", CASES)
def test_case_is_equivalent_to_its_baseline(name, algorithm, seed, locality):
    perturbation = PERTURBATIONS[name]
    row = run_case(name, algorithm, seed, locality=locality)
    assert row["ok"], row
    assert row["error"] == ""
    assert row["views_equal"]
    assert row["perturbation"] == name
    assert row["point"] == perturbation.points[seed % len(perturbation.points)]
    assert row["spec"] == perturbation.spec(seed)
    assert row["shard"] is not None
    if name == "crash-restart":
        assert row["crash_fired"] and row["locality"] == "aux"
    elif name == "kill-primary":
        assert row["promoted"] and row["deliveries_equal"]
        assert row["duplicates"] == []
    else:
        assert row["completed"] and row["missing"] == {}


@pytest.mark.parametrize("name", ["kill-primary", "migrate"])
def test_mutation_rows_are_non_vacuous_and_caught(name):
    rows = run_sweep(name, seeds=())
    assert [row["algorithm"] for row in rows] == ["sweep", "batched-sweep"]
    for row in rows:
        assert row["mutated"] and row["ok"], row
        if name == "kill-primary":
            assert row["duplicates"] and row["achieved"] == "none"
        else:
            assert row["gap_skipped"] >= 1 and row["missing"]


def test_crash_restart_has_no_mutation_hook():
    assert PERTURBATIONS["crash-restart"].mutation is None
    with pytest.raises(ValueError, match="no mutation hook"):
        run_case("crash-restart", "sweep", 1, mutated=True)


def test_report_round_trips_and_renders(tmp_path):
    rows = run_sweep("kill-primary", seeds=[0])
    smoke = {"ok": False, "killed": "shard0", "failover_log": ["[t+0.4s] x"],
             "error": "simulated"}
    report = build_report("kill-primary", rows, smoke=smoke)
    assert report["suite"] == "kill-primary"
    assert (report["cases"], report["failed"], report["mutation_cases"]) == (
        3, 0, 2,
    )
    assert report["ok"] is False  # the smoke failed
    path = write_report(report, tmp_path / "report.json")
    loaded = load_report(path)
    assert loaded == report
    text = format_report(loaded)
    assert "promoted" in text  # the perturbation's own column
    assert "deliveries=2@s1 MUT" in text
    assert "kill-primary smoke: FAIL (simulated)" in text
    assert "  [t+0.4s] x" in text
    assert "smoke FAILED" in text


def _flags(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return {flag for action in sub._actions for flag in action.option_strings}


def test_sweep_subcommands_share_one_flag_set():
    for perturbation in PERTURBATIONS.values():
        expected = SHARED_FLAGS | (
            {"--smoke"} if perturbation.smoke is not None else set()
        )
        assert _flags(perturbation.command) == expected
        args = build_parser().parse_args(
            [perturbation.command, "-s", "3", "--seeds", "2",
             "--tcp-every", "0", "--time-scale", "0.001", "--timeout", "9"]
        )
        assert args.perturbation == perturbation.name
        assert (args.seed, args.seeds, args.tcp_every) == (3, 2, 0)
        assert args.json == perturbation.report_path
    with pytest.raises(SystemExit):
        build_parser().parse_args(["recovery-sweep", "--runs", "3"])


def test_sweep_command_writes_its_report(tmp_path, capsys):
    path = tmp_path / "rebalance.json"
    assert main(["rebalance-sweep", "--seed", "1", "--seeds", "1",
                 "--tcp-every", "0", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mid-compensation" in out and "MUT" in out
    report = load_report(path)
    assert report["suite"] == "migrate" and report["ok"]
    assert report["cases"] == 3 and report["smoke"] is None
