"""Tests for deterministic BMS recovery from the sighting WAL.

The pinned contract: folding a WAL back through
:func:`~repro.server.replay.replay_wal` rebuilds the live server's
externally observable state *byte for byte* — occupancy snapshot,
history series, sighting counts, and every ``server.*`` telemetry
counter — and the replay chunk size (``REPLAY_CHUNK``) never changes
the result, only the wall clock.  The same holds for
:func:`~repro.server.replay.replay_sharded`, which folds the shard logs
in step between refresh records because the shards share one model,
and end to end for :func:`~repro.server.replay.server_from_manifest`
directories, which fit that model once.
"""

import shutil

import pytest

from repro.ml.kernels import RbfKernel
from repro.ml.proximity import ProximityClassifier
from repro.ml.svm import SupportVectorClassifier
from repro.obs.metrics import MetricsRegistry
from repro.server import replay
from repro.server.bms import BuildingManagementServer
from repro.server.client import BmsClient
from repro.server.persistence import save_calibration
from repro.server.replay import (
    CALIBRATION_NAME,
    load_manifest,
    replay_sharded,
    replay_wal,
    server_from_manifest,
    write_manifest,
)
from repro.server.rest import Request
from repro.server.sharded import ShardedBmsService, shard_for
from repro.traces.wal import (
    SightingWal,
    WalRecord,
    read_wal_records,
    wal_segment_paths,
)

BEACONS = ["b1", "b2", "b3"]

ROOM_BASES = {
    "lab": {"b1": 1.0, "b2": 6.0, "b3": 9.0},
    "office": {"b1": 6.0, "b2": 1.0, "b3": 6.0},
    "hall": {"b1": 9.0, "b2": 6.0, "b3": 1.0},
}


def make_classifier():
    return SupportVectorClassifier(
        c=10.0, kernel=RbfKernel(gamma=0.5), seed=0
    )


def calibrate(server):
    for room, base in ROOM_BASES.items():
        for jitter in (0.0, 0.3, -0.3, 0.6):
            server.add_fingerprint(
                room, {k: v + jitter for k, v in base.items()}, 0.0
            )
    server.train()


def make_server(registry=None, wal=None):
    server = BuildingManagementServer(
        BEACONS,
        classifier=make_classifier(),
        registry=registry if registry is not None else MetricsRegistry(),
        wal=wal,
    )
    calibrate(server)
    return server


def near(room, delta=0.05):
    return {k: v + delta for k, v in ROOM_BASES[room].items()}


def drive_live(server):
    """A workload mixing every record kind, in a fixed order."""
    server.ingest_sighting("alice", near("lab"), 1.0)
    server.ingest_sighting("bob", near("office"), 1.5)
    server.record_history(2.0)
    server.ingest_batch(
        [
            {"device_id": "carol", "beacons": near("hall"), "time": 2.5},
            {"device_id": "alice", "beacons": near("office"), "time": 3.0},
        ]
    )
    server.record_history(4.0)
    server.refresh(
        [{"room": "lab", "beacons": near("lab", 0.2), "time": 4.5}]
    )
    server.ingest_sighting("dave", near("lab"), 5.0)
    server.record_history(6.0)


def server_metrics(registry):
    """The ``server.*`` slice of a registry state (live vs replay
    comparable: the live side additionally carries ``wal.*``, and the
    ``server.frontdoor.*`` / ``server.shard.*`` request and queue
    counters are transport-level — the replay applies state directly
    to the shard stores, it does not re-serve the original HTTP
    requests or re-run the drain queues)."""
    state = registry.state()
    transport = ("server.frontdoor.", "server.shard.")
    return {
        kind: {
            name: payload
            for name, payload in state[kind].items()
            if name.startswith("server.")
            and not name.startswith(transport)
        }
        for kind in ("counters", "gauges", "histograms")
    }


def observable_state(server):
    history = server.merged_history()
    return {
        "snapshot": server.snapshot(),
        "history": {
            room: history.series(room) for room in history.rooms()
        },
        "sightings": server.sighting_count,
    }


class TestReplaySingleStore:
    def run_live(self, tmp_path):
        live_registry = MetricsRegistry()
        wal = SightingWal(tmp_path / "wal", registry=live_registry)
        live = make_server(registry=live_registry, wal=wal)
        drive_live(live)
        wal.close()
        return live, live_registry

    def rebuild(self, tmp_path):
        registry = MetricsRegistry()
        restored = make_server(registry=registry)
        report = replay_wal(restored, tmp_path / "wal")
        return restored, registry, report

    def test_state_is_byte_identical(self, tmp_path):
        live, live_registry = self.run_live(tmp_path)
        restored, registry, report = self.rebuild(tmp_path)
        assert observable_state(restored) == observable_state(live)
        assert server_metrics(registry) == server_metrics(live_registry)
        assert report.records == 8
        assert report.sightings == 5
        assert report.batches == 1
        assert report.history_marks == 3
        assert report.refreshes == 1
        assert report.span_s == 5.0

    def test_chunk_size_is_invisible(self, tmp_path, monkeypatch):
        live, live_registry = self.run_live(tmp_path)
        for chunk in (1, 2, 256):
            monkeypatch.setattr(replay, "REPLAY_CHUNK", chunk)
            restored, registry, _ = self.rebuild(tmp_path)
            assert observable_state(restored) == observable_state(live)
            assert server_metrics(registry) == server_metrics(live_registry)

    def test_refresh_record_replays_the_model(self, tmp_path):
        live, _ = self.run_live(tmp_path)
        restored, _, _ = self.rebuild(tmp_path)
        # Post-refresh classifications must agree: the replayed model
        # saw the same extra fingerprint at the same point in the
        # stream.
        probes = [near(room, 0.11) for room in ROOM_BASES]
        assert restored.classify_batch(probes) == live.classify_batch(probes)
        assert len(list(restored.db.table("fingerprints"))) == len(
            list(live.db.table("fingerprints"))
        )

    def test_replay_into_own_wal_is_rejected(self, tmp_path):
        live, live_registry = self.run_live(tmp_path)
        target = make_server(
            registry=MetricsRegistry(),
            wal=SightingWal(tmp_path / "wal"),
        )
        with pytest.raises(ValueError, match="being replayed"):
            replay_wal(target, tmp_path / "wal")

    def test_replay_survives_compaction(self, tmp_path):
        live, live_registry = self.run_live(tmp_path)
        maintenance = SightingWal(tmp_path / "wal")
        assert maintenance.compact() >= 1
        restored, registry, _ = self.rebuild(tmp_path)
        assert observable_state(restored) == observable_state(live)
        assert server_metrics(registry) == server_metrics(live_registry)


def ragged(room, i):
    """``near(room)`` with beacon b2 unseen on odd rows."""
    beacons = near(room, 0.01 * i)
    if i % 2:
        del beacons["b2"]
    return beacons


def ragged_batch(server, time, rooms):
    server.ingest_batch(
        [
            {"device_id": f"dev-{i}", "beacons": ragged(room, i), "time": time}
            for i, room in enumerate(rooms)
        ]
    )


#: One WAL record per operation.  At ``TORN_SEGMENT_BYTES`` the first
#: five seal segment 0 and the rest (every kind, a 1-row sighting and
#: a ragged 6-row batch among them) fill the final segment.
TORN_OPS = [
    lambda s: s.ingest_sighting("alice", near("lab"), 1.0),
    lambda s: s.ingest_batch(
        [{"device_id": "bob", "beacons": near("office"), "time": 1.5}]
    ),
    lambda s: s.record_history(2.0),
    lambda s: s.refresh([{"room": "lab", "beacons": near("lab", 0.2), "time": 2.5}]),
    lambda s: ragged_batch(s, 3.0, ["lab", "office", "hall"] * 2),
    lambda s: s.ingest_sighting("carol", {"b3": 1.2}, 4.0),
    lambda s: s.record_history(5.0),
    lambda s: s.refresh(
        [{"room": "hall", "beacons": near("hall", 0.2), "time": 5.5}]
    ),
    lambda s: ragged_batch(s, 6.0, ["hall", "lab", "office"] * 2),
    lambda s: s.ingest_sighting("alice", near("hall"), 7.0),
]
TORN_SEGMENT_BYTES = 900
#: The one sighting appended after each simulated crash.
AFTER_CRASH = {"device_id": "zoe", "beacons": near("office"), "time": 9.0}


class TestTornWrites:
    """Crash the log at every byte offset of its final segment: resume,
    append once, and both the reader and the replay must see exactly
    the durable prefix plus the new record."""

    def make_server(self, wal=None):
        # Proximity keeps the byte sweep fast: no SMO fits to redo.
        classifier = ProximityClassifier(
            {"b1": "lab", "b2": "office", "b3": "hall"}, BEACONS
        )
        server = BuildingManagementServer(
            BEACONS, classifier=classifier, registry=MetricsRegistry(), wal=wal
        )
        calibrate(server)
        return server

    def reference(self, ops):
        """Live state after ``ops`` then the post-crash sighting."""
        server = self.make_server()
        for op in ops:
            op(server)
        server.ingest_sighting(**AFTER_CRASH)
        return observable_state(server), server_metrics(server.obs)

    def test_every_torn_offset_resumes_to_the_durable_prefix(self, tmp_path):
        log = tmp_path / "wal"
        live = self.make_server(SightingWal(log, segment_bytes=TORN_SEGMENT_BYTES))
        for op in TORN_OPS:
            op(live)
        records = list(read_wal_records(log))
        *sealed, final = wal_segment_paths(log)
        data = final.read_bytes()
        in_final = [r.kind for r in records[-data.count(b"\n") + 1 :]]
        assert sealed and set(in_final) == {"sighting", "batch", "history", "refresh"}
        # A record is durable once its closing brace is on disk.
        line_ends = [i for i, byte in enumerate(data) if byte == ord("\n")]
        durable_before = len(records) - len(line_ends) + 1
        expected = {}
        for offset in range(len(data) + 1):
            crashed = tmp_path / f"crash-{offset}"
            shutil.copytree(log, crashed)
            with (crashed / final.name).open("r+b") as fh:
                fh.truncate(offset)
            durable = durable_before + sum(end <= offset for end in line_ends[1:])
            resumed = SightingWal(crashed)
            resumed.append_sighting(**AFTER_CRASH)
            resumed.close()
            new = WalRecord("sighting", durable, 9.0, sightings=(AFTER_CRASH,))
            assert list(read_wal_records(crashed)) == records[:durable] + [new]
            restored = self.make_server()
            report = replay_wal(restored, crashed)
            assert report.records == durable + 1
            if durable not in expected:
                expected[durable] = self.reference(TORN_OPS[:durable])
            assert (
                observable_state(restored),
                server_metrics(restored.obs),
            ) == expected[durable], offset
            shutil.rmtree(crashed)
        assert sorted(expected) == list(range(durable_before, len(records) + 1))


def refresh_rows(room, time):
    return [{"room": room, "beacons": near(room, 0.2), "time": time}]


def make_door(shards, wal_dir=None):
    """A trained write-through door over ``shards`` SVM shards."""
    door = ShardedBmsService(
        BEACONS,
        shards=shards,
        classifier_factory=make_classifier,
        registry=MetricsRegistry(),
        drain_policy="immediate",
        wal_dir=wal_dir,
    )
    calibrate(door)
    return door


def drive_with_refreshes(service):
    """Sightings, history marks and two model refreshes, in a fixed
    order; the last shard gets no sightings between the refreshes."""
    client = BmsClient(service.router)
    rooms = list(ROOM_BASES)
    devices = [f"dev-{i:02d}" for i in range(12)]

    def post(time, pick=lambda device: True):
        for i, device in enumerate(devices):
            if pick(device):
                client.post_sighting(
                    device, near(rooms[(i + int(time)) % 3], 0.01 * i), time
                )

    def refresh(room, time):
        body = {"fingerprints": refresh_rows(room, time)}
        response = service.router.dispatch(
            Request("POST", "/model/refresh", body=body, time=time)
        )
        assert response.status == 200, response

    quiet = service.shards - 1
    post(1.0)
    service.record_history(2.0)
    refresh("lab", 2.5)
    post(3.0, lambda device: shard_for(device, service.shards) != quiet)
    service.record_history(4.0)
    refresh("hall", 4.5)
    client.post_sightings_batch(
        [
            {"device_id": device, "beacons": near("office"), "time": 5.0}
            for device in devices[:4]
        ]
    )
    post(6.0)
    service.record_history(7.0)


@pytest.mark.parametrize("shards", [1, 4])
class TestReplaySharded:
    def make_service(self, registry, shards, wal_dir=None):
        service = ShardedBmsService(
            BEACONS,
            shards=shards,
            classifier_factory=make_classifier,
            registry=registry,
            drain_policy="immediate",
            wal_dir=wal_dir,
        )
        calibrate(service)
        return service

    def drive(self, service):
        client = BmsClient(service.router)
        for i in range(12):
            room = list(ROOM_BASES)[i % 3]
            client.post_sighting(
                f"dev-{i:02d}", near(room, 0.01 * i), float(i)
            )
        service.record_history(12.0)
        client.post_sightings_batch(
            [
                {
                    "device_id": f"dev-{i:02d}",
                    "beacons": near("hall"),
                    "time": 13.0,
                }
                for i in range(4)
            ]
        )
        service.record_history(14.0)

    def test_state_is_byte_identical(self, tmp_path, shards):
        live = self.make_service(
            MetricsRegistry(), shards, wal_dir=tmp_path / "wal"
        )
        self.drive(live)
        live.close_wals()

        restored = self.make_service(MetricsRegistry(), shards)
        report = replay_sharded(restored, tmp_path / "wal")
        assert observable_state(restored) == observable_state(live)
        assert report.sightings == 16
        assert report.history_marks == 2 * shards
        # Per-shard telemetry: merged server.* counters come out equal.
        assert server_metrics(restored.merged_telemetry()) == server_metrics(
            live.merged_telemetry()
        )
        # Routing decisions survive: device reads answer identically.
        for i in range(12):
            device = f"dev-{i:02d}"
            assert restored.device_room(device) == live.device_room(device)

    def test_refreshes_replay_in_step(self, tmp_path, shards):
        live = self.make_service(
            MetricsRegistry(), shards, wal_dir=tmp_path / "wal"
        )
        drive_with_refreshes(live)
        live.close_wals()
        logs = [
            list(read_wal_records(tmp_path / "wal" / f"shard-{i:02d}"))
            for i in range(shards)
        ]
        kinds = [record.kind for record in logs[-1]]
        one, two = [i for i, kind in enumerate(kinds) if kind == "refresh"]
        assert not {"sighting", "batch"} & set(kinds[one + 1 : two])

        restored = self.make_service(MetricsRegistry(), shards)
        report = replay_sharded(restored, tmp_path / "wal")
        assert observable_state(restored) == observable_state(live)
        assert server_metrics(restored.merged_telemetry()) == server_metrics(
            live.merged_telemetry()
        )
        probes = [near(room, 0.11) for room in ROOM_BASES]
        assert restored.classify_batch(probes) == live.classify_batch(probes)
        first = min(log[0].time for log in logs)
        last = max(log[-1].time for log in logs)
        assert report.as_dict() == {
            "records": sum(wal.records_appended for wal in live.wals()),
            "sightings": sum(wal.sightings_appended for wal in live.wals()),
            "batches": sum(r.kind == "batch" for log in logs for r in log),
            "history_marks": 3 * shards,
            "refreshes": 2 * shards,
            "first_time": first,
            "last_time": last,
            "span_s": last - first,
        }

    def test_shard_count_mismatch_rejected(self, tmp_path, shards):
        live = self.make_service(
            MetricsRegistry(), shards, wal_dir=tmp_path / "wal"
        )
        self.drive(live)
        live.close_wals()
        wrong = self.make_service(MetricsRegistry(), shards + 1)
        with pytest.raises(ValueError, match="shard"):
            replay_sharded(wrong, tmp_path / "wal")

    def test_misnumbered_shard_log_rejected(self, tmp_path, shards):
        # Logs pair with stores by parsed numeric suffix, never by
        # lexicographic sort position (shard-100 sorts before
        # shard-11): a suffix that is not its shard index is an error.
        live = self.make_service(
            MetricsRegistry(), shards, wal_dir=tmp_path / "wal"
        )
        self.drive(live)
        live.close_wals()
        last = tmp_path / "wal" / f"shard-{shards - 1:02d}"
        last.rename(tmp_path / "wal" / f"shard-{shards + 5:02d}")
        restored = self.make_service(MetricsRegistry(), shards)
        with pytest.raises(ValueError, match="does not match shard"):
            replay_sharded(restored, tmp_path / "wal")

    def test_unrecognised_shard_log_rejected(self, tmp_path, shards):
        live = self.make_service(
            MetricsRegistry(), shards, wal_dir=tmp_path / "wal"
        )
        self.drive(live)
        live.close_wals()
        (tmp_path / "wal" / "shard-extra").mkdir()
        restored = self.make_service(MetricsRegistry(), shards)
        with pytest.raises(ValueError, match="unrecognised"):
            replay_sharded(restored, tmp_path / "wal")


class TestLockstepReplay:
    """The shards share one model, so their logs replay in step
    between refresh records."""

    def test_log_that_ends_before_a_refresh_record(self, tmp_path):
        # A crash between the shards' appends of the last refresh:
        # the last shard's log ends without it.
        live = make_door(4, wal_dir=tmp_path / "wal")
        client = BmsClient(live.router)
        for i in range(12):
            client.post_sighting(f"dev-{i:02d}", near("lab", 0.01 * i), float(i))
        live.refresh(refresh_rows("lab", 12.5))
        live.record_history(13.0)
        live.refresh(refresh_rows("hall", 13.5))
        live.close_wals()
        segment = wal_segment_paths(tmp_path / "wal" / "shard-03")[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(lines[:-1]))

        restored = make_door(4)
        report = replay_sharded(restored, tmp_path / "wal")
        assert report.refreshes == 2 * 4 - 1
        assert observable_state(restored) == observable_state(live)
        # The refresh that reached any log refits the model and books
        # on every shard.
        probes = [near(room, 0.11) for room in ROOM_BASES]
        assert restored.classify_batch(probes) == live.classify_batch(probes)
        assert server_metrics(restored.merged_telemetry()) == server_metrics(
            live.merged_telemetry()
        )

    def test_logs_that_disagree_on_a_refresh_are_rejected(self, tmp_path):
        for index, room in enumerate(["lab", "hall"]):
            wal = SightingWal(tmp_path / "wal" / f"shard-{index:02d}")
            wal.append_refresh(refresh_rows(room, 1.0), 1.0)
            wal.close()
        with pytest.raises(ValueError, match="disagree on refresh 0"):
            replay_sharded(make_door(2), tmp_path / "wal")


@pytest.mark.parametrize("shards", [1, 2, 4])
class TestOneFitPerEvent:
    """Training, refreshing and recovering a sharded service each fit
    the shared model once, whatever the shard count."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"fit": 0, "refresh": 0}
        for name in calls:
            original = getattr(SupportVectorClassifier, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SupportVectorClassifier, name, counted)
        return calls

    def test_train_fits_once(self, shards, calls):
        make_door(shards)
        assert calls == {"fit": 1, "refresh": 0}

    def test_refresh_refreshes_once(self, shards, calls):
        service = make_door(shards)
        service.refresh(refresh_rows("lab", 1.0))
        assert calls == {"fit": 1, "refresh": 1}

    def test_recovery_fits_once_and_refreshes_once_per_record(
        self, tmp_path, shards, calls
    ):
        live = make_door(shards, wal_dir=tmp_path)
        write_manifest(
            tmp_path,
            beacon_ids=BEACONS,
            missing_value=live.model.vectorizer.missing_value,
            device_timeout_s=live.device_timeout_s,
            svm_c=10.0,
            svm_gamma=0.5,
            seed=0,
            shards=shards,
        )
        save_calibration(live, tmp_path / CALIBRATION_NAME)
        drive_with_refreshes(live)
        live.close_wals()
        calls.update(fit=0, refresh=0)

        restored, report = server_from_manifest(tmp_path)
        assert calls == {"fit": 1, "refresh": 2}
        assert report.refreshes == 2 * shards
        assert observable_state(restored) == observable_state(live)


class TestManifest:
    def test_round_trip(self, tmp_path):
        write_manifest(
            tmp_path,
            beacon_ids=BEACONS,
            missing_value=25.0,
            device_timeout_s=60.0,
            svm_c=10.0,
            svm_gamma=0.5,
            seed=7,
            shards=3,
        )
        manifest = load_manifest(tmp_path)
        assert manifest["beacon_ids"] == BEACONS
        assert manifest["seed"] == 7
        assert manifest["shards"] == 3

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_manifest(tmp_path)

    def test_server_from_manifest_single(self, tmp_path):
        live_registry = MetricsRegistry()
        wal = SightingWal(tmp_path / "shard-00", registry=live_registry)
        live = make_server(registry=live_registry, wal=wal)
        write_manifest(
            tmp_path,
            beacon_ids=BEACONS,
            missing_value=live.vectorizer.missing_value,
            device_timeout_s=live.device_timeout_s,
            svm_c=10.0,
            svm_gamma=0.5,
            seed=0,
            shards=1,
        )
        save_calibration(live, tmp_path / CALIBRATION_NAME)
        drive_live(live)
        wal.close()

        restored, report = server_from_manifest(tmp_path)
        assert observable_state(restored) == observable_state(live)
        assert report.records == 8

    def test_server_from_manifest_requires_calibration(self, tmp_path):
        write_manifest(
            tmp_path,
            beacon_ids=BEACONS,
            missing_value=25.0,
            device_timeout_s=60.0,
            svm_c=10.0,
            svm_gamma=0.5,
            seed=0,
        )
        with pytest.raises(ValueError, match="calibration"):
            server_from_manifest(tmp_path)
