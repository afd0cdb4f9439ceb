"""Checkpoint file contract: atomic round trip, CRC, newest-wins policy.

The damage policy (see :meth:`ViewCheckpoint.load_latest`): a corrupt
*newest* checkpoint raises instead of silently falling back to an older
generation -- the newer WAL would then be unreplayable and the served
view silently stale.
"""

import pytest

from repro.durability import (
    CheckpointCorruptionError,
    ViewCheckpoint,
)
from repro.durability.checkpoint import checkpoint_generations, checkpoint_path
from repro.durability.encoding import decode_relation, encode_bag, encode_notice
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.runtime import binwire
from repro.sources.messages import UpdateNotice


def _checkpoint(paper_view, generation: int = 2) -> ViewCheckpoint:
    view_rows = Relation(paper_view.view_schema, {(1, 2): 1, (3, 4): 2})
    delta = Delta(paper_view.schema_of(1))
    delta.add((5, 6), +1)
    notice = UpdateNotice(source_index=1, seq=4, delta=delta)
    return ViewCheckpoint(
        generation=generation,
        applied_counts={1: 3, 2: 1},
        delivered_marks={1: 4, 2: 1},
        views={"V": encode_bag(view_rows)},
        pending=[encode_notice(notice)],
        installs=7,
        request_watermark=19,
        written_at=42.5,
    )


def test_write_load_round_trip(tmp_path, paper_view):
    original = _checkpoint(paper_view)
    path = original.write(str(tmp_path))
    assert path == checkpoint_path(str(tmp_path), 2)
    loaded = ViewCheckpoint.load(path)
    assert loaded == original
    back = decode_relation(loaded.views["V"], paper_view.view_schema)
    assert dict(back.items()) == {(1, 2): 1, (3, 4): 2}


def test_load_latest_picks_newest(tmp_path, paper_view):
    _checkpoint(paper_view, generation=1).write(str(tmp_path))
    _checkpoint(paper_view, generation=5).write(str(tmp_path))
    assert checkpoint_generations(str(tmp_path)) == [1, 5]
    generation, checkpoint = ViewCheckpoint.load_latest(str(tmp_path))
    assert generation == 5
    assert checkpoint.generation == 5


def test_load_latest_empty_directory(tmp_path):
    assert ViewCheckpoint.load_latest(str(tmp_path)) is None


def test_corrupt_newest_raises_not_falls_back(tmp_path, paper_view):
    _checkpoint(paper_view, generation=1).write(str(tmp_path))
    newest = _checkpoint(paper_view, generation=3).write(str(tmp_path))
    blob = open(newest, "rb").read()
    with open(newest, "wb") as handle:
        handle.write(blob[: len(blob) // 2])  # undecodable, not a CRC miss
    with pytest.raises(CheckpointCorruptionError, match="unreadable"):
        ViewCheckpoint.load_latest(str(tmp_path))


def test_corrupt_newest_binary_raises_not_falls_back(tmp_path, paper_view):
    _checkpoint(paper_view, generation=1).write(str(tmp_path))
    newest = _checkpoint(paper_view, generation=3).write(str(tmp_path))
    envelope = binwire.loads(open(newest, "rb").read())
    body = binwire.loads(envelope["body"])
    body["installs"] += 1  # body no longer matches the CRC
    envelope["body"] = binwire.dumps(body)
    with open(newest, "wb") as handle:
        handle.write(binwire.dumps(envelope))
    with pytest.raises(CheckpointCorruptionError, match="fails CRC"):
        ViewCheckpoint.load_latest(str(tmp_path))


def test_unsupported_format_raises(tmp_path, paper_view):
    path = _checkpoint(paper_view).write(str(tmp_path))
    envelope = binwire.loads(open(path, "rb").read())
    envelope["format"] = 99
    with open(path, "wb") as handle:
        handle.write(binwire.dumps(envelope))
    with pytest.raises(CheckpointCorruptionError, match="format"):
        ViewCheckpoint.load(path)


def test_stale_tmp_file_is_ignored(tmp_path, paper_view):
    """A crash between tmp-write and rename leaves only garbage aside."""
    _checkpoint(paper_view, generation=2).write(str(tmp_path))
    stray = checkpoint_path(str(tmp_path), 3) + ".tmp"
    with open(stray, "w", encoding="utf-8") as handle:
        handle.write("{half a checkpoi")
    assert checkpoint_generations(str(tmp_path)) == [2]
    generation, _ = ViewCheckpoint.load_latest(str(tmp_path))
    assert generation == 2
