"""WAL unit contract: round trip, torn tails, scrambled frames.

The damage policy under test (see :mod:`repro.durability.wal`): a torn
tail is an expected crash artifact and is dropped (and repaired away);
a complete frame with a bad CRC is corruption and must fail loudly --
recovery never replays a damaged update into the view.
"""

import json
import os
import struct
import zlib

import pytest

from repro.durability import (
    CheckpointCorruptionError,
    UpdateLog,
    ViewCheckpoint,
    WalCorruptionError,
    load_state,
    read_update_log,
)
from repro.durability.checkpoint import checkpoint_path
from repro.durability.encoding import decode_notice, encode_notice
from repro.durability.wal import wal_generations, wal_path
from repro.relational.delta import Delta
from repro.relational.schema import Schema
from repro.runtime import binwire
from repro.sources.messages import UpdateNotice


def _notice(seq: int, source: int = 1) -> UpdateNotice:
    delta = Delta(Schema(("A", "B")))
    delta.add((seq, 10 * seq), +1)
    delta.add((seq, 11 * seq), -1 if seq % 2 else +2)
    return UpdateNotice(source_index=source, seq=seq, delta=delta)


def _write_log(directory: str, n: int = 5, generation: int = 3) -> str:
    log = UpdateLog(directory, generation, fsync_batch=2)
    for seq in range(1, n + 1):
        log.append_notice(_notice(seq))
    log.close()
    return log.path


def test_round_trip(tmp_path, paper_view):
    path = _write_log(str(tmp_path))
    generation, records, torn = read_update_log(path)
    assert generation == 3
    assert torn == 0
    assert len(records) == 5
    decoded = [decode_notice(obj, paper_view) for obj in records]
    assert [n.seq for n in decoded] == [1, 2, 3, 4, 5]
    # The delta survives byte-exactly (counts and signs included).
    assert sorted(decoded[2].delta.items()) == sorted(_notice(3).delta.items())


def test_generation_listing(tmp_path):
    _write_log(str(tmp_path), generation=1)
    _write_log(str(tmp_path), generation=4)
    assert wal_generations(str(tmp_path)) == [1, 4]
    assert wal_path(str(tmp_path), 4).endswith("update-00000004.wal")


def test_torn_tail_dropped_and_repaired(tmp_path):
    path = _write_log(str(tmp_path))
    whole = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(whole - 7)  # cut the last frame mid-payload
    generation, records, torn = read_update_log(path, repair=True)
    assert generation == 3
    assert len(records) == 4  # the torn record is gone
    assert torn > 0
    # Repair truncated the file back to the last whole frame: a re-read
    # is clean and an appender could continue without interleaving.
    assert read_update_log(path) == (3, records, 0)


def test_torn_header_means_empty_log(tmp_path):
    path = os.path.join(str(tmp_path), "update-00000000.wal")
    with open(path, "wb") as handle:
        handle.write(b"\x00\x00")  # not even a whole frame header
    generation, records, torn = read_update_log(path)
    assert generation is None
    assert records == []
    assert torn == 2


def test_crc_mismatch_raises(tmp_path):
    path = _write_log(str(tmp_path))
    # Scramble one byte inside the *payload* of the second frame; the
    # frame stays complete, so this is corruption, not a torn write.
    with open(path, "r+b") as handle:
        data = handle.read()
        length, _ = struct.unpack_from("!II", data, 0)
        second = 8 + length  # skip the header frame
        handle.seek(second + 8 + 3)
        handle.write(b"\xff")
    with pytest.raises(WalCorruptionError, match="fails CRC"):
        read_update_log(path)


def _write_frames(path: str, *frames: bytes) -> None:
    with open(path, "wb") as handle:
        for frame in frames:
            handle.write(struct.pack("!II", len(frame), zlib.crc32(frame)))
            handle.write(frame)


def test_undecodable_frame_raises(tmp_path):
    path = os.path.join(str(tmp_path), "update-00000002.wal")
    header = binwire.dumps({"wal": 2, "generation": 2})
    _write_frames(path, header, b"not a record at all")
    with pytest.raises(WalCorruptionError, match="undecodable"):
        read_update_log(path)


def test_wal_header_format_matches_writer(tmp_path, paper_view):
    log = UpdateLog(str(tmp_path), generation=1)
    log.append_notice(_notice(1))
    log.close()
    generation, records, _ = read_update_log(log.path)
    assert generation == 1 and len(records) == 1
    data = open(log.path, "rb").read()
    length, _crc = struct.unpack_from("!II", data, 0)
    assert binwire.loads(data[8 : 8 + length]) == {"wal": 2, "generation": 1}


def test_json_era_checkpoint_and_wal_are_rejected(tmp_path, paper_view):
    """The JSON durable format (checkpoint envelope 1, WAL format 1) is
    retired: a directory holding it fails recovery loudly instead of
    being read through a second decoder."""
    checkpoint = ViewCheckpoint(
        generation=2, applied_counts={1: 0}, delivered_marks={1: 0},
        views={},
    )
    body = json.dumps(checkpoint.to_json(), sort_keys=True)
    path = checkpoint_path(str(tmp_path), 2)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"format": 1, "crc": zlib.crc32(body.encode()),
             "body": checkpoint.to_json()},
            handle,
        )
    with pytest.raises(CheckpointCorruptionError, match="not a binwire"):
        ViewCheckpoint.load(path)
    wal = wal_path(str(tmp_path), 2)
    notice = json.dumps(encode_notice(_notice(1))).encode()
    _write_frames(wal, json.dumps({"wal": 1, "generation": 2}).encode(), notice)
    with pytest.raises(WalCorruptionError, match="not a binwire"):
        read_update_log(wal)
    with pytest.raises(CheckpointCorruptionError):
        load_state(str(tmp_path), [paper_view])


def test_encode_notice_round_trip(paper_view):
    notice = _notice(9, source=2)
    notice.txn_id = "txn-7"
    notice.txn_total = 3
    back = decode_notice(encode_notice(notice), paper_view)
    assert back.source_index == 2
    assert back.seq == 9
    assert back.txn_id == "txn-7"
    assert back.txn_total == 3
    assert sorted(back.delta.items()) == sorted(notice.delta.items())
