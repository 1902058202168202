"""Tests for the BMS server (fingerprints, training, occupancy).

The REST tests run against the single store and the sharded front
door, which serve one route table.
"""

import pytest

from repro.ml.proximity import ProximityClassifier
from repro.server.bms import BuildingManagementServer, RoomModel
from repro.server.rest import Request
from repro.server.sharded import ShardedBmsService
from tests.test_server_sighting_path import fingerprint_counts


def front_door(beacon_ids, **kwargs):
    """A write-through sharded front door, a drop-in for the store."""
    return ShardedBmsService(beacon_ids, shards=2, drain_policy="immediate", **kwargs)


#: Both servers answer the one BMS REST surface.
SERVERS = {"store": BuildingManagementServer, "door": front_door}


@pytest.fixture(params=sorted(SERVERS))
def make_server(request):
    return SERVERS[request.param]


def untrained_bms(make=BuildingManagementServer, **kwargs):
    """A BMS holding two rooms' worth of easy, separable fingerprints."""
    bms = make(["1-1", "1-2"], **kwargs)
    for i in range(12):
        bms.add_fingerprint("kitchen", {"1-1": 1.0 + 0.1 * i, "1-2": 8.0}, i)
        bms.add_fingerprint("living", {"1-1": 8.0, "1-2": 1.0 + 0.1 * i}, i)
    return bms


def trained_bms(make=BuildingManagementServer, **kwargs):
    """:func:`untrained_bms`, trained."""
    bms = untrained_bms(make, **kwargs)
    bms.train()
    return bms


def proximity():
    return ProximityClassifier({"1-1": "kitchen", "1-2": "living"}, ["1-1", "1-2"])


class TestConstruction:
    def test_rejects_empty_beacons(self):
        with pytest.raises(ValueError):
            BuildingManagementServer([])

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            BuildingManagementServer(["1-1"], device_timeout_s=0.0)

    def test_shared_model_serves_a_store(self):
        model = RoomModel(["1-1", "1-2"])
        bms = BuildingManagementServer(["1-1", "1-2"], model=model)
        assert bms.model is model
        assert bms.classifier is model.classifier

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beacon_ids": ["1-2", "1-1"]},
            {"beacon_ids": ["1-1"]},
            {"classifier": proximity()},
            {"missing_value": 20.0},
            {"svm_c": 1.0},
            {"svm_gamma": 0.1},
        ],
    )
    def test_shared_model_rejects_settings_it_would_ignore(self, kwargs):
        model = RoomModel(["1-1", "1-2"])
        beacon_ids = kwargs.pop("beacon_ids", ["1-1", "1-2"])
        with pytest.raises(ValueError, match="shared model"):
            BuildingManagementServer(beacon_ids, model=model, **kwargs)


class TestFingerprints:
    def test_add_fingerprint_stored(self):
        bms = BuildingManagementServer(["1-1"])
        bms.add_fingerprint("kitchen", {"1-1": 2.0})
        assert len(bms.fingerprints) == 1

    def test_rejects_empty_room(self):
        bms = BuildingManagementServer(["1-1"])
        with pytest.raises(ValueError):
            bms.add_fingerprint("", {"1-1": 2.0})

    def test_rejects_empty_beacons(self):
        bms = BuildingManagementServer(["1-1"])
        with pytest.raises(ValueError):
            bms.add_fingerprint("kitchen", {})


class TestTraining:
    def test_train_requires_two_classes(self):
        bms = BuildingManagementServer(["1-1"])
        bms.add_fingerprint("kitchen", {"1-1": 2.0})
        with pytest.raises(RuntimeError):
            bms.train()

    def test_training_accuracy_high_on_separable_data(self):
        bms = trained_bms()
        assert bms.trained

    def test_classify_before_train_raises(self):
        bms = BuildingManagementServer(["1-1"])
        with pytest.raises(RuntimeError):
            bms.classify({"1-1": 2.0})

    def test_classify_after_train(self):
        bms = trained_bms()
        assert bms.classify({"1-1": 1.2, "1-2": 8.0}) == "kitchen"
        assert bms.classify({"1-1": 8.0, "1-2": 1.2}) == "living"

    def test_proximity_classifier_skips_scaling(self):
        bms = trained_bms(classifier=proximity())
        assert bms.classify({"1-1": 1.0, "1-2": 8.0}) == "kitchen"


class TestRefreshRetrainFallback:
    """``refresh`` retrains from scratch when the model cannot refresh."""

    NEW = [
        {"room": "kitchen", "beacons": {"1-1": 3.0, "1-2": 5.5}, "time": 20.0},
        {"room": "living", "beacons": {"1-1": 5.5, "1-2": 3.0}, "time": 20.0},
    ]
    PROBES = [
        {"1-1": a, "1-2": b}
        for a in (0.5, 2.5, 4.5, 6.5, 8.5)
        for b in (0.5, 2.5, 4.5, 6.5, 8.5)
    ]

    def assert_matches_cold_train(self, bms, **kwargs):
        cold = untrained_bms(**kwargs)
        for fingerprint in self.NEW:
            cold.add_fingerprint(**fingerprint)
        cold.train()
        assert len(bms.fingerprints) == len(cold.fingerprints)
        assert bms.classify_batch(self.PROBES) == cold.classify_batch(self.PROBES)

    def test_untrained_server_retrains(self):
        bms = untrained_bms()
        report = bms.refresh(self.NEW)
        assert report == {"mode": "retrain", "added": 2}
        assert bms.trained
        self.assert_matches_cold_train(bms)

    def test_classifier_without_refresh_retrains(self):
        bms = trained_bms(classifier=proximity())
        assert not hasattr(bms.classifier, "refresh")
        report = bms.refresh(self.NEW)
        assert report == {"mode": "retrain", "added": 2}
        self.assert_matches_cold_train(bms, classifier=proximity())


class TestOccupancy:
    def test_ingest_updates_device_room(self):
        bms = trained_bms()
        room = bms.ingest_sighting("alice", {"1-1": 1.0, "1-2": 8.0}, 10.0)
        assert room == "kitchen"
        assert bms.device_room("alice") == "kitchen"

    def test_snapshot_counts_devices_per_room(self):
        bms = trained_bms()
        bms.ingest_sighting("alice", {"1-1": 1.0, "1-2": 8.0}, 10.0)
        bms.ingest_sighting("bob", {"1-1": 1.1, "1-2": 8.0}, 10.0)
        bms.ingest_sighting("carol", {"1-1": 8.0, "1-2": 1.0}, 10.0)
        snap = bms.snapshot(10.0)
        assert snap.count("kitchen") == 2
        assert snap.count("living") == 1
        assert snap.total_occupants == 3

    def test_silent_device_expires(self):
        bms = trained_bms(device_timeout_s=20.0)
        bms.ingest_sighting("alice", {"1-1": 1.0, "1-2": 8.0}, 10.0)
        assert bms.snapshot(25.0).count("kitchen") == 1
        assert bms.snapshot(31.0).count("kitchen") == 0

    def test_device_room_at_is_the_snapshot_entry(self):
        """Both fleet drives record predictions through
        ``device_room_at``: exactly ``snapshot(now).devices.get(id)``,
        silence expiry included."""
        reads, snaps = (trained_bms(device_timeout_s=20.0) for _ in range(2))
        for bms in (reads, snaps):
            bms.ingest_sighting("alice", {"1-1": 1.0, "1-2": 8.0}, 10.0)
            bms.ingest_sighting("bob", {"1-1": 8.0, "1-2": 1.0}, 22.0)
        for now in (10.0, 25.0, 31.0, 41.0, 43.0):
            expected = snaps.snapshot(now).devices
            for device in ("alice", "bob", "nobody"):
                assert reads.device_room_at(device, now) == expected.get(device)
        assert reads.snapshot(43.0) == snaps.snapshot(43.0)

    def test_sightings_recorded_in_db(self):
        bms = trained_bms()
        bms.ingest_sighting("alice", {"1-1": 1.0, "1-2": 8.0}, 10.0)
        assert bms.sighting_count == 1

    def test_device_room_unknown_is_none(self):
        assert trained_bms().device_room("nobody") is None

    def test_rejects_empty_device_id(self):
        bms = trained_bms()
        with pytest.raises(ValueError):
            bms.ingest_sighting("", {"1-1": 1.0}, 0.0)


class TestRestApi:
    def test_post_fingerprint(self, make_server):
        bms = make_server(["1-1", "1-2"])
        response = bms.router.dispatch(
            Request("POST", "/fingerprints",
                    body={"room": "kitchen", "beacons": {"1-1": 2.0}})
        )
        assert response.ok
        assert set(fingerprint_counts(bms)) == {1}

    def test_post_fingerprint_validation_400(self, make_server):
        bms = make_server(["1-1"])
        response = bms.router.dispatch(
            Request("POST", "/fingerprints", body={"room": "", "beacons": {}})
        )
        assert response.status == 400

    def test_post_train_conflict_when_insufficient(self, make_server):
        bms = make_server(["1-1"])
        response = bms.router.dispatch(Request("POST", "/train"))
        assert response.status == 409

    def test_full_rest_flow(self, make_server):
        bms = make_server(["1-1", "1-2"])
        for i in range(6):
            bms.router.dispatch(Request(
                "POST", "/fingerprints",
                body={"room": "kitchen", "beacons": {"1-1": 1.0 + i * 0.2, "1-2": 8.0}},
            ))
            bms.router.dispatch(Request(
                "POST", "/fingerprints",
                body={"room": "living", "beacons": {"1-1": 8.0, "1-2": 1.0 + i * 0.2}},
            ))
        assert bms.router.dispatch(Request("POST", "/train")).ok
        response = bms.router.dispatch(Request(
            "POST", "/sightings",
            body={"device_id": "alice", "beacons": {"1-1": 1.2, "1-2": 8.0}, "time": 5.0},
        ))
        assert response.body["room"] == "kitchen"
        occupancy = bms.router.dispatch(Request("GET", "/occupancy", time=5.0))
        assert occupancy.body["rooms"] == {"kitchen": 1}
        room = bms.router.dispatch(Request("GET", "/occupancy/kitchen", time=5.0))
        assert room.body["count"] == 1
        location = bms.router.dispatch(
            Request("GET", "/devices/alice/location", time=5.0)
        )
        assert location.body["room"] == "kitchen"

    def test_sighting_missing_fields_400(self, make_server):
        bms = trained_bms(make_server)
        response = bms.router.dispatch(Request("POST", "/sightings", body={}))
        assert response.status == 400

    def test_sighting_before_training_409(self, make_server):
        bms = make_server(["1-1"])
        response = bms.router.dispatch(Request(
            "POST", "/sightings", body={"device_id": "a", "beacons": {"1-1": 1.0}}
        ))
        assert response.status == 409

    def test_unknown_device_location_404(self, make_server):
        bms = trained_bms(make_server)
        response = bms.router.dispatch(Request("GET", "/devices/ghost/location"))
        assert response.status == 404


def _random_fingerprints(n, seed=0):
    import numpy as np

    rng = np.random.default_rng(seed)
    return [
        {"1-1": float(rng.uniform(0.5, 9.0)), "1-2": float(rng.uniform(0.5, 9.0))}
        for _ in range(n)
    ]


class TestBatchIngestion:
    def test_classify_batch_matches_per_row(self):
        bms = trained_bms()
        fingerprints = _random_fingerprints(40, seed=1)
        batched = bms.classify_batch(fingerprints)
        per_row = [bms.classify(fp) for fp in fingerprints]
        assert batched == per_row

    def test_classify_batch_empty(self):
        assert trained_bms().classify_batch([]) == []

    def test_classify_batch_untrained_raises(self):
        with pytest.raises(RuntimeError):
            BuildingManagementServer(["1-1"]).classify_batch([{"1-1": 1.0}])

    def test_ingest_batch_equivalent_to_sequential_ingest(self):
        batch_bms, seq_bms = trained_bms(), trained_bms()
        fingerprints = _random_fingerprints(20, seed=2)
        sightings = [
            {"device_id": f"dev-{i % 7}", "beacons": fp, "time": float(i)}
            for i, fp in enumerate(fingerprints)
        ]
        batch_rooms = batch_bms.ingest_batch(sightings)
        seq_rooms = [
            seq_bms.ingest_sighting(s["device_id"], s["beacons"], s["time"])
            for s in sightings
        ]
        assert batch_rooms == seq_rooms
        assert batch_bms.sighting_count == seq_bms.sighting_count == 20
        assert batch_bms.snapshot(19.0).devices == seq_bms.snapshot(19.0).devices

    def test_ingest_batch_last_report_wins_per_device(self):
        bms = trained_bms()
        rooms = bms.ingest_batch(
            [
                {"device_id": "a", "beacons": {"1-1": 1.0, "1-2": 8.0}, "time": 1.0},
                {"device_id": "a", "beacons": {"1-1": 8.0, "1-2": 1.0}, "time": 2.0},
            ]
        )
        assert rooms == ["kitchen", "living"]
        assert bms.device_room("a") == "living"

    def test_ingest_batch_rejects_empty_device_id(self):
        bms = trained_bms()
        with pytest.raises(ValueError):
            bms.ingest_batch([{"device_id": "", "beacons": {"1-1": 1.0}, "time": 0.0}])

    def test_batch_metrics_counted(self):
        bms = trained_bms()
        bms.ingest_batch(
            [
                {"device_id": "a", "beacons": {"1-1": 1.0, "1-2": 8.0}, "time": 0.0},
                {"device_id": "b", "beacons": {"1-1": 8.0, "1-2": 1.0}, "time": 0.0},
            ]
        )
        assert bms.obs.counter("server.batches").value == 1.0
        assert bms.obs.counter("server.sightings").value == 2.0
        assert bms.obs.histogram("server.batch_size").mean == pytest.approx(2.0)


class TestBatchRestRoute:
    def test_batch_route_matches_per_report_route(self, make_server):
        batch_bms, seq_bms = trained_bms(make_server), trained_bms(make_server)
        fingerprints = _random_fingerprints(16, seed=3)
        sightings = [
            {"device_id": f"dev-{i}", "beacons": fp, "time": float(i)}
            for i, fp in enumerate(fingerprints)
        ]
        batch_response = batch_bms.router.dispatch(
            Request("POST", "/sightings/batch", body={"sightings": sightings})
        )
        assert batch_response.ok
        seq_rooms = []
        for s in sightings:
            response = seq_bms.router.dispatch(
                Request("POST", "/sightings", body=s, time=s["time"])
            )
            assert response.ok
            seq_rooms.append(response.body["room"])
        assert batch_response.body["rooms"] == seq_rooms
        assert batch_response.body["count"] == 16

    def test_batch_route_empty_list_400(self, make_server):
        response = trained_bms(make_server).router.dispatch(
            Request("POST", "/sightings/batch", body={"sightings": []})
        )
        assert response.status == 400

    def test_batch_route_missing_fields_400(self, make_server):
        response = trained_bms(make_server).router.dispatch(
            Request("POST", "/sightings/batch", body={"sightings": [{"x": 1}]})
        )
        assert response.status == 400

    def test_batch_route_untrained_409(self, make_server):
        bms = make_server(["1-1"])
        response = bms.router.dispatch(
            Request(
                "POST",
                "/sightings/batch",
                body={"sightings": [{"device_id": "a", "beacons": {"1-1": 1.0}}]},
            )
        )
        assert response.status == 409

    def test_batch_route_default_time_from_request(self, make_server):
        bms = trained_bms(make_server)
        bms.router.dispatch(
            Request(
                "POST",
                "/sightings/batch",
                body={"sightings": [{"device_id": "a", "beacons": {"1-1": 1.0, "1-2": 8.0}}]},
                time=42.0,
            )
        )
        assert bms.snapshot(42.0).devices == {"a": "kitchen"}
