"""Tests for the durable sighting WAL.

The log's contract is losslessness: every appended operation reads
back exactly — through rotation, process restarts and columnar
compaction — and anything that *cannot* be read back exactly (CRC
mismatch, malformed interior line) is a loud
:class:`~repro.traces.wal.WalCorruptionError`, never a silent skip.
Only a torn trailing line on the final JSONL segment (a crash
mid-append) is tolerated, because the appender never writes past it.
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.traces.wal import (
    SightingWal,
    WalCorruptionError,
    WalError,
    _header_crc,
    _header_payload,
    read_wal_records,
    wal_segment_paths,
)


def seeded_wal(directory, **kwargs):
    """A log with one of each record kind, in a fixed order."""
    wal = SightingWal(directory, **kwargs)
    wal.append_sighting("alice", {"b-1": -61.25, "b-2": -74.0}, 1.0)
    wal.append_batch(
        [
            {"device_id": "bob", "beacons": {"b-1": -55.5}, "time": 2.0},
            {"device_id": "carol", "beacons": {"b-2": -80.125}, "time": 2.5},
        ]
    )
    wal.append_history_mark(3.0)
    wal.append_refresh(
        [{"room": "kitchen", "beacons": {"b-1": -58.0}, "time": 4.0}],
        4.0,
    )
    return wal


class TestRoundTrip:
    def test_all_kinds_read_back_exactly(self, tmp_path):
        wal = seeded_wal(tmp_path / "wal")
        records = list(wal.records())
        assert [r.kind for r in records] == [
            "sighting",
            "batch",
            "history",
            "refresh",
        ]
        assert records[0].sightings == (
            {
                "device_id": "alice",
                "beacons": {"b-1": -61.25, "b-2": -74.0},
                "time": 1.0,
            },
        )
        assert records[1].sightings[1]["device_id"] == "carol"
        assert records[2].time == 3.0
        assert records[3].fingerprints == (
            {"room": "kitchen", "beacons": {"b-1": -58.0}, "time": 4.0},
        )

    def test_seq_is_monotonic_from_zero(self, tmp_path):
        wal = seeded_wal(tmp_path / "wal")
        assert [r.seq for r in wal.records()] == [0, 1, 2, 3]

    def test_empty_appends_rejected(self, tmp_path):
        wal = SightingWal(tmp_path / "wal")
        with pytest.raises(ValueError):
            wal.append_batch([])
        with pytest.raises(ValueError):
            wal.append_refresh([], 1.0)

    def test_append_after_close_errors(self, tmp_path):
        wal = SightingWal(tmp_path / "wal")
        wal.append_sighting("alice", {"b-1": -60.0}, 1.0)
        wal.close()
        with pytest.raises(WalError):
            wal.append_sighting("alice", {"b-1": -60.0}, 2.0)

    def test_context_manager_seals(self, tmp_path):
        with SightingWal(tmp_path / "wal") as wal:
            wal.append_sighting("alice", {"b-1": -60.0}, 1.0)
        assert len(list(read_wal_records(tmp_path / "wal"))) == 1


class TestRotationAndResume:
    def test_small_threshold_rotates_segments(self, tmp_path):
        wal = SightingWal(tmp_path / "wal", segment_bytes=256)
        for i in range(20):
            wal.append_sighting(f"dev-{i:02d}", {"b-1": -60.0 - i}, float(i))
        wal.flush()
        paths = wal.segment_paths()
        assert len(paths) > 1
        assert [r.seq for r in wal.records()] == list(range(20))

    def test_reopen_resumes_after_last_record(self, tmp_path):
        directory = tmp_path / "wal"
        first = seeded_wal(directory)
        first.close()
        second = SightingWal(directory)
        second.append_sighting("dave", {"b-1": -70.0}, 5.0)
        second.flush()
        records = list(read_wal_records(directory))
        assert [r.seq for r in records] == [0, 1, 2, 3, 4]
        assert records[-1].sightings[0]["device_id"] == "dave"
        # Resume opens a fresh segment; the old one is never appended to.
        assert len(wal_segment_paths(directory)) == 2

    def test_resume_after_torn_tail_skips_the_torn_seq(self, tmp_path):
        directory = tmp_path / "wal"
        wal = seeded_wal(directory)
        wal.flush()
        path = wal.segment_paths()[-1]
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"seq": 4, "kind": "sighting", "tim')
        resumed = SightingWal(directory)
        seq = resumed.append_sighting("erin", {"b-1": -60.0}, 6.0)
        # The torn record was never durable, so its seq is reused.
        assert seq == 4

    def test_log_stays_readable_after_torn_tail_resume(self, tmp_path):
        # Crash mid-append, resume (which makes the torn segment an
        # interior one), append more: the whole log — including the
        # repaired segment — must read back and compact cleanly.
        directory = tmp_path / "wal"
        wal = seeded_wal(directory)
        wal.flush()
        path = wal.segment_paths()[-1]
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"seq": 4, "kind": "sighting", "tim')
        resumed = SightingWal(directory)
        resumed.append_sighting("erin", {"b-1": -60.0}, 6.0)
        assert [r.seq for r in resumed.records()] == [0, 1, 2, 3, 4]
        assert resumed.compact() == 1
        assert [r.seq for r in resumed.records()] == [0, 1, 2, 3, 4]
        resumed.close()
        assert [r.seq for r in read_wal_records(directory)] == [0, 1, 2, 3, 4]

    def test_repeated_crash_resume_cycles_stay_readable(self, tmp_path):
        directory = tmp_path / "wal"
        for cycle in range(3):
            wal = SightingWal(directory)
            wal.append_sighting(f"dev-{cycle}", {"b-1": -60.0}, float(cycle))
            wal.flush()
            path = wal.segment_paths()[-1]
            # Simulate a crash mid-append: torn line, no close().
            with path.open("a", encoding="utf-8") as fh:
                fh.write('{"seq": 99, "kind": "b')
        assert [r.seq for r in read_wal_records(directory)] == [0, 1, 2]

    def test_fully_torn_segment_is_removed_on_resume(self, tmp_path):
        # A crash mid-header leaves a segment with nothing durable in
        # it; resume drops the file instead of tripping over it later.
        directory = tmp_path / "wal"
        wal = seeded_wal(directory)
        wal.close()
        torn = directory / "segment-000001.jsonl"
        torn.write_text('{"kind": "wal-head', encoding="utf-8")
        resumed = SightingWal(directory)
        assert resumed.append_history_mark(9.0) == 4
        assert [r.seq for r in resumed.records()] == [0, 1, 2, 3, 4]

    def test_resume_after_record_less_sealed_segment(self, tmp_path):
        # A header-only JSONL segment (a torn-tail repair can leave
        # one) still compacts; resuming on the resulting record-less
        # .npz must read base_seq from the embedded header, not reopen
        # the binary file as JSONL.
        directory = tmp_path / "wal"
        wal = seeded_wal(directory)
        wal.close()
        payload = _header_payload(1, 4)
        line = json.dumps(
            {**payload, "crc": _header_crc(payload)}, separators=(",", ":")
        )
        (directory / "segment-000001.jsonl").write_text(
            line + "\n", encoding="utf-8"
        )
        maintenance = SightingWal(directory)
        assert maintenance.compact() == 2
        maintenance.close()
        resumed = SightingWal(directory)
        assert resumed.append_history_mark(9.0) == 4

    def test_appends_are_durable_without_explicit_flush(self, tmp_path):
        # Acknowledged appends must reach the OS before the caller
        # proceeds — a process crash (no flush/close) loses nothing.
        directory = tmp_path / "wal"
        wal = SightingWal(directory)
        wal.append_sighting("alice", {"b-1": -60.0}, 1.0)
        wal.append_batch(
            [{"device_id": "bob", "beacons": {"b-1": -55.0}, "time": 2.0}]
        )
        # Read through a fresh handle, never flushing or closing.
        assert [r.seq for r in read_wal_records(directory)] == [0, 1]

    def test_fsync_mode_appends_and_reads_back(self, tmp_path):
        wal = SightingWal(tmp_path / "wal", fsync=True)
        wal.append_sighting("alice", {"b-1": -60.0}, 1.0)
        wal.flush()
        assert [r.seq for r in wal.records()] == [0]


class TestCorruption:
    def test_header_crc_mismatch_raises(self, tmp_path):
        wal = seeded_wal(tmp_path / "wal")
        wal.flush()
        path = wal.segment_paths()[0]
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["crc"] = (header["crc"] + 1) & 0xFFFFFFFF
        lines[0] = json.dumps(header, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(WalCorruptionError, match="CRC"):
            list(read_wal_records(tmp_path / "wal"))

    def test_torn_tail_on_final_segment_is_tolerated(self, tmp_path):
        wal = seeded_wal(tmp_path / "wal")
        wal.flush()
        path = wal.segment_paths()[-1]
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"seq": 4, "kind": "sight')
        assert [r.seq for r in read_wal_records(tmp_path / "wal")] == [
            0,
            1,
            2,
            3,
        ]

    def test_malformed_interior_line_raises(self, tmp_path):
        wal = seeded_wal(tmp_path / "wal")
        wal.flush()
        path = wal.segment_paths()[-1]
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][:-5]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(WalCorruptionError, match="malformed"):
            list(read_wal_records(tmp_path / "wal"))

    def test_unknown_record_kind_raises(self, tmp_path):
        wal = seeded_wal(tmp_path / "wal")
        wal.flush()
        path = wal.segment_paths()[-1]
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"seq": 4, "kind": "mystery", "time": 9.0}\n')
            fh.write('{"seq": 5, "kind": "history", "time": 10.0}\n')
        with pytest.raises(WalCorruptionError, match="mystery"):
            list(read_wal_records(tmp_path / "wal"))

    def test_format_1_header_is_rejected(self, tmp_path):
        # A log written in another format is refused, never misread.
        directory = tmp_path / "wal"
        directory.mkdir()
        payload = {**_header_payload(0, 0), "format": 1}
        line = json.dumps({**payload, "crc": _header_crc(payload)})
        (directory / "segment-000000.jsonl").write_text(line + "\n")
        with pytest.raises(WalError, match="format 1"):
            list(read_wal_records(directory))
        with pytest.raises(WalError, match="format 1"):
            SightingWal(directory)

    def test_duplicate_segment_index_raises(self, tmp_path):
        directory = tmp_path / "wal"
        wal = seeded_wal(directory)
        wal.close()
        wal2 = SightingWal(directory)
        wal2.compact()
        sealed = next(
            p for p in wal2.segment_paths() if p.suffix == ".npz"
        )
        # Simulate a crashed compaction: both encodings on disk.
        sealed.with_suffix(".jsonl").write_text("", encoding="utf-8")
        with pytest.raises(WalCorruptionError, match="both"):
            wal_segment_paths(directory)


class TestCompaction:
    def test_compaction_is_lossless(self, tmp_path):
        directory = tmp_path / "wal"
        wal = seeded_wal(directory, segment_bytes=128)
        # Irrational-ish floats: bit-exactness must survive the npz.
        wal.append_sighting("frank", {"b-1": -60.1234567890123}, 7.5)
        before = list(wal.records())
        wal.close()
        reopened = SightingWal(directory)
        compacted = reopened.compact()
        assert compacted >= 1
        after = list(reopened.records())
        assert after == before
        assert any(p.suffix == ".npz" for p in reopened.segment_paths())

    def test_compaction_skips_the_active_segment(self, tmp_path):
        wal = seeded_wal(tmp_path / "wal")
        wal.flush()
        assert wal.compact() == 0
        assert all(p.suffix == ".jsonl" for p in wal.segment_paths())

    def test_long_identifiers_survive_compaction(self, tmp_path):
        # Device ids, rooms and beacon names longer than any fixed
        # string dtype must round-trip uncut through the .npz columns.
        directory = tmp_path / "wal"
        device = "device-" + "x" * 90
        beacon = "beacon-" + "y" * 90
        room = "room-" + "z" * 90
        wal = SightingWal(directory)
        wal.append_sighting(device, {beacon: -61.5}, 1.0)
        wal.append_refresh(
            [{"room": room, "beacons": {beacon: -58.0}, "time": 2.0}], 2.0
        )
        before = list(wal.records())
        wal.close()
        reopened = SightingWal(directory)
        assert reopened.compact() == 1
        after = list(reopened.records())
        assert after == before
        assert after[0].sightings[0]["device_id"] == device
        assert after[0].sightings[0]["beacons"] == {beacon: -61.5}
        assert after[1].fingerprints[0]["room"] == room

    def test_resume_after_compaction(self, tmp_path):
        directory = tmp_path / "wal"
        wal = seeded_wal(directory)
        wal.close()
        reopened = SightingWal(directory)
        reopened.compact()
        third = SightingWal(directory)
        assert third.append_history_mark(9.0) == 4


class TestTelemetryAndDescribe:
    def test_counters_track_appends(self, tmp_path):
        registry = MetricsRegistry()
        wal = seeded_wal(tmp_path / "wal", registry=registry)
        records = registry.counter("wal.records")
        assert records.value == 4.0
        assert records.value_for(kind="sighting") == 1.0
        assert records.value_for(kind="batch") == 1.0
        assert records.value_for(kind="history") == 1.0
        assert records.value_for(kind="refresh") == 1.0
        assert registry.counter("wal.sightings").value == 3.0
        wal.close()
        assert registry.counter("wal.segments_sealed").value == 1.0

    def test_describe_reports_shape(self, tmp_path):
        wal = seeded_wal(tmp_path / "wal")
        described = wal.describe()
        assert described["segments"] == 1
        assert described["compacted_segments"] == 0
        assert described["next_seq"] == 4
        assert described["records_appended"] == 4
        assert described["sightings_appended"] == 3
        assert described["active_bytes"] > 0

    def test_segment_bytes_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SightingWal(tmp_path / "wal", segment_bytes=0)


class TestColumnarBatches:
    """Sighting and batch records share one columnar line layout at
    every row count: the float arrays are base64 of their raw bytes,
    so the decode must be bit-exact, and ragged per-row beacon sets
    ride on the always-present mask."""

    def batch(self, n, ragged=False):
        rows = []
        for i in range(n):
            beacons = {"b-1": -60.0 - 0.1234567890123 * i, "b-2": -71.5 + i}
            if ragged and i % 3 == 0:
                del beacons["b-2"]
                beacons["b-9"] = -90.0625
            rows.append(
                {"device_id": f"dev-{i}", "beacons": beacons, "time": float(i)}
            )
        return rows

    def assert_round_trip(self, tmp_path, rows):
        wal = SightingWal(tmp_path / "wal")
        wal.append_batch(rows)
        wal.close()
        (record,) = wal.records()
        assert record.kind == "batch"
        assert len(record.sightings) == len(rows)
        for got, want in zip(record.sightings, rows):
            assert got["device_id"] == want["device_id"]
            assert got["time"] == want["time"]
            assert got["beacons"] == {
                str(b): float(v) for b, v in want["beacons"].items()
            }

    def record_lines(self, tmp_path):
        wal_file = next(iter(wal_segment_paths(tmp_path / "wal")))
        return [json.loads(line) for line in wal_file.read_text().splitlines()[1:]]

    def test_uniform_keys_round_trip_bit_exact(self, tmp_path):
        rows = self.batch(9)
        self.assert_round_trip(tmp_path, rows)
        (line,) = self.record_lines(tmp_path)
        assert line["beacon_names"] == ["b-1", "b-2"]

    def test_ragged_keys_use_the_mask(self, tmp_path):
        rows = self.batch(12, ragged=True)
        self.assert_round_trip(tmp_path, rows)
        (line,) = self.record_lines(tmp_path)
        assert line["beacon_names"] == ["b-1", "b-2", "b-9"]

    def test_every_row_count_shares_one_layout(self, tmp_path):
        wal = SightingWal(tmp_path / "wal")
        wal.append_sighting("alice", {"b-1": -61.25}, 1.0)
        for n in (1, 6, 64):
            wal.append_batch(self.batch(n, ragged=True))
        wal.close()
        lines = self.record_lines(tmp_path)
        assert [line["kind"] for line in lines] == ["sighting"] + ["batch"] * 3
        layout = {"seq", "kind", "time", "beacon_names", "devices", "t64", "v64", "m64"}
        assert all(set(line) == layout for line in lines)
        assert [len(r.sightings) for r in wal.records()] == [1, 1, 6, 64]

    def test_newline_device_id_round_trips(self, tmp_path):
        rows = self.batch(9)
        rows[2]["device_id"] = "dev\n2"
        self.assert_round_trip(tmp_path, rows)

    def test_corrupt_columnar_payload_is_loud(self, tmp_path):
        wal = SightingWal(tmp_path / "wal")
        wal.append_batch(self.batch(9))
        wal.close()
        path = next(iter(wal_segment_paths(tmp_path / "wal")))
        header, line = path.read_text().splitlines()
        row = json.loads(line)
        row["devices"].append("dev-extra")
        path.write_text(header + "\n" + json.dumps(row) + "\n")
        # A sealed read (non-final torn tolerance does not apply to
        # well-formed-but-inconsistent columnar rows).
        with pytest.raises(WalCorruptionError):
            list(read_wal_records(tmp_path / "wal"))

    def test_compaction_of_columnar_batches_is_lossless(self, tmp_path):
        wal = SightingWal(tmp_path / "wal", segment_bytes=1)
        wal.append_batch(self.batch(9, ragged=True))
        wal.append_history_mark(99.0)
        before = [
            (r.kind, r.seq, r.time, r.sightings) for r in wal.records()
        ]
        wal.compact()
        after = [
            (r.kind, r.seq, r.time, r.sightings) for r in wal.records()
        ]
        assert after == before
        wal.close()
