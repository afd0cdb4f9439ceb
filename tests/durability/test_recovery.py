"""Recovery contract: load_state damage policy + crash-restart integration.

The integration cases re-run seeds from the 30-seed acceptance sweep
that historically regressed: seed 3 (batched scheduler, install-count
crash) is the case whose recovered pending updates must stay *parked*
until the restarted sources' positions cover them -- eager replay made
its compensation subtract deltas the source answers never contained.
"""

import pytest

from repro.durability import (
    GenerationMismatchError,
    RecoveryError,
    UpdateLog,
    load_state,
)
from repro.durability.encoding import encode_bag
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.sources.messages import UpdateNotice
from tests.durability.test_checkpoint import _checkpoint


def _notice(seq: int, paper_view, source: int = 1) -> UpdateNotice:
    delta = Delta(paper_view.schema_of(source))
    delta.add((seq, seq + 1), +1)
    return UpdateNotice(source_index=source, seq=seq, delta=delta)


def test_fresh_directory_is_none(tmp_path, paper_view):
    assert load_state(str(tmp_path), [paper_view]) is None
    assert load_state(str(tmp_path / "never-created"), [paper_view]) is None


def test_wal_without_checkpoint_raises(tmp_path, paper_view):
    log = UpdateLog(str(tmp_path), generation=0)
    log.append_notice(_notice(1, paper_view))
    log.close()
    with pytest.raises(RecoveryError, match="no checkpoint"):
        load_state(str(tmp_path), [paper_view])


def test_wal_newer_than_checkpoint_raises(tmp_path, paper_view):
    _checkpoint(paper_view, generation=2).write(str(tmp_path))
    log = UpdateLog(str(tmp_path), generation=4)
    log.append_notice(_notice(5, paper_view))
    log.close()
    with pytest.raises(GenerationMismatchError, match="newer than"):
        load_state(str(tmp_path), [paper_view])


def test_view_set_mismatch_raises(tmp_path, paper_view):
    checkpoint = _checkpoint(paper_view)
    extra = Relation(paper_view.view_schema, {(9, 9): 1})
    checkpoint.views["V-unknown"] = encode_bag(extra)
    checkpoint.write(str(tmp_path))
    with pytest.raises(RecoveryError, match="do not match configured"):
        load_state(str(tmp_path), [paper_view])


def test_pending_merges_checkpoint_then_wal(tmp_path, paper_view):
    checkpoint = _checkpoint(paper_view, generation=2)
    # The fixture checkpoint already parks src1 seq 4; the matching WAL
    # holds the two deliveries after the stable point.
    checkpoint.write(str(tmp_path))
    log = UpdateLog(str(tmp_path), generation=2)
    log.append_notice(_notice(5, paper_view))
    log.append_notice(_notice(2, paper_view, source=2))
    log.close()
    state = load_state(str(tmp_path), [paper_view])
    assert [(n.source_index, n.seq) for n in state.pending] == [
        (1, 4), (1, 5), (2, 2),
    ]
    # Delivered marks extend past the checkpoint's to cover the WAL.
    assert state.delivered_marks == {1: 5, 2: 2}
    assert state.wal_records == 2
    assert state.request_watermark == 19


def test_applied_beyond_delivered_raises(tmp_path, paper_view):
    checkpoint = _checkpoint(paper_view)
    checkpoint.applied_counts[2] = 9  # claims installs never delivered
    checkpoint.write(str(tmp_path))
    with pytest.raises(RecoveryError, match="only 1 delivered"):
        load_state(str(tmp_path), [paper_view])


# ---------------------------------------------------------------------------
# Crash-restart integration (in-process sharded runtime)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "algorithm,seed",
    [
        ("batched-sweep", 3),  # the parked-release regression seed
        ("sweep", 4),
    ],
)
def test_crash_restart_case_recovers(algorithm, seed):
    from repro.harness.equivalence import run_case

    row = run_case("crash-restart", algorithm, seed, transport="local")
    assert row["error"] == ""
    assert row["ok"], row
    assert row["crash_fired"]
    assert row["views_equal"]
    assert row["recovered_pending"] > 0
