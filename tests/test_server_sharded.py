"""Tests for the sharded BMS front door.

The pinned contract: every externally observable result — ingest
responses, occupancy snapshots, history statistics, merged telemetry
totals — is invariant to the shard count.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.server import (
    BmsApiError,
    BmsClient,
    BuildingManagementServer,
    Request,
    RoomHistory,
    ShardedBmsService,
    shard_for,
)

BEACONS = ["b1", "b2", "b3"]

ROOM_BASES = {
    "lab": {"b1": 1.0, "b2": 6.0, "b3": 9.0},
    "office": {"b1": 6.0, "b2": 1.0, "b3": 6.0},
    "hall": {"b1": 9.0, "b2": 6.0, "b3": 1.0},
}


class NearestBeaconClassifier:
    """Deterministic stub: room of the closest beacon.

    Learns column -> label from the training argmins; predict maps
    each row's argmin column back.  Orders of magnitude faster than
    the SVM, so the hypothesis sweep over shard counts stays cheap,
    while still exercising the full vectorise/scale/predict drain
    path.
    """

    def fit(self, X, y):
        self._by_column = {}
        for row, label in zip(X, y):
            column = min(range(len(row)), key=lambda i: row[i])
            self._by_column.setdefault(column, str(label))
        return self

    def predict(self, X):
        return [
            self._by_column[min(range(len(row)), key=lambda i: row[i])]
            for row in X
        ]


def calibrate(service):
    for room, base in ROOM_BASES.items():
        for jitter in (0.0, 0.3, -0.3, 0.6):
            service.add_fingerprint(
                room, {k: v + jitter for k, v in base.items()}
            )
    return service.train()


def calibrate_svm(server):
    """Train ``server``'s SVM on noisy fingerprints around each room."""
    rng = np.random.default_rng(0)
    for room, base in ROOM_BASES.items():
        for _ in range(12):
            server.add_fingerprint(
                room, {k: v + float(rng.normal(0.0, 0.5)) for k, v in base.items()}
            )
    server.train()
    return server


def make_service(shards, **kwargs):
    kwargs.setdefault("classifier_factory", NearestBeaconClassifier)
    return ShardedBmsService(BEACONS, shards=shards, **kwargs)


def sighting_body(device, room, time=1.0):
    return {
        "device_id": device,
        "beacons": {k: v + 0.05 for k, v in ROOM_BASES[room].items()},
        "time": time,
    }


class TestShardFor:
    def test_stable_across_calls(self):
        assert shard_for("dev-0001", 4) == shard_for("dev-0001", 4)

    def test_spreads_keys(self):
        indices = {shard_for(f"dev-{i:04d}", 4) for i in range(64)}
        assert indices == {0, 1, 2, 3}

    def test_single_shard_always_zero(self):
        assert shard_for("anything", 1) == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for("x", 0)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"queue_maxsize": 0},
            {"coalesce_max": 0},
            {"drain_policy": "lazy"},
            {"retry_after_s": -1.0},
            {"route_overrides": {"hq": 9}},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        merged = {"shards": 2}
        merged.update(kwargs)
        with pytest.raises(ValueError):
            ShardedBmsService(BEACONS, **merged)

    def test_shards_share_one_model(self):
        built = []

        def factory():
            built.append(NearestBeaconClassifier())
            return built[-1]

        service = make_service(3, classifier_factory=factory)
        assert len(built) == 1
        assert all(store.model is service.model for store in service._shards)
        assert all(store.classifier is built[0] for store in service._shards)


class TestRouting:
    def test_device_key_is_stable_hash(self):
        service = make_service(4)
        assert service.shard_index_for("dev-7") == shard_for("dev-7", 4)

    def test_building_key_overrides_device_hash(self):
        service = make_service(4)
        index = service.shard_index_for("dev-7", building="north-wing")
        assert index == shard_for("north-wing", 4)

    def test_route_overrides_pin_buildings(self):
        service = make_service(4, route_overrides={"hq": 3})
        assert service.shard_index_for("any-device", building="hq") == 3

    def test_building_routed_device_still_readable(self):
        service = make_service(4, route_overrides={"hq": 3}, drain_policy="immediate")
        calibrate(service)
        body = dict(sighting_body("dev-x", "lab"), building="hq")
        response = service.router.dispatch(
            Request("POST", "/sightings", body=body, time=1.0)
        )
        assert response.status == 200 and response.body["shard"] == 3
        assert service.device_room("dev-x") == "lab"
        location = service.router.dispatch(
            Request("GET", "/devices/dev-x/location")
        )
        assert location.status == 200 and location.body["room"] == "lab"


class TestCalibrationBroadcast:
    def test_train_fits_every_shard(self):
        service = make_service(3)
        calibrate(service)
        assert service.trained
        assert all(store.trained for store in service._shards)

    def test_untrained_sighting_is_409(self):
        service = make_service(2)
        response = service.router.dispatch(
            Request("POST", "/sightings", body=sighting_body("d", "lab"))
        )
        assert response.status == 409

    def test_classify_matches_single_store(self):
        one = make_service(1)
        four = make_service(4)
        calibrate(one)
        calibrate(four)
        fingerprint = {"b1": 1.2, "b2": 5.5, "b3": 8.8}
        assert one.classify(fingerprint) == four.classify(fingerprint)


class TestDrainPolicies:
    def test_immediate_answers_with_room(self):
        service = make_service(2, drain_policy="immediate")
        calibrate(service)
        response = service.router.dispatch(
            Request("POST", "/sightings", body=sighting_body("d1", "office"))
        )
        assert response.status == 200
        assert response.body["room"] == "office"

    def test_manual_queues_until_drain(self):
        service = make_service(2, drain_policy="manual")
        calibrate(service)
        response = service.router.dispatch(
            Request("POST", "/sightings", body=sighting_body("d1", "hall"))
        )
        assert response.status == 202 and response.body["queued"]
        assert service.queue_depth() == 1
        assert service.device_room("d1") is None
        result = service.drain()
        assert result.count == 1
        assert result.entries[0][1:] == ("d1", "hall")
        assert service.device_room("d1") == "hall"

    def test_watermark_drains_at_coalesce_max(self):
        service = make_service(1, drain_policy="watermark", coalesce_max=3)
        calibrate(service)
        statuses = [
            service.router.dispatch(
                Request(
                    "POST", "/sightings", body=sighting_body(f"d{i}", "lab")
                )
            ).status
            for i in range(6)
        ]
        assert statuses == [202, 202, 200, 202, 202, 200]
        assert service.queue_depth() == 0

    def test_coalescer_packs_loose_posts_into_batches(self):
        service = make_service(1, drain_policy="manual", coalesce_max=4)
        calibrate(service)
        for i in range(10):
            service.router.dispatch(
                Request("POST", "/sightings", body=sighting_body(f"d{i}", "lab"))
            )
        service.drain()
        merged = service.merged_telemetry().snapshot()
        # 10 loose posts drain as ceil(10/4) = 3 coalesced batch ingests.
        assert merged["server.shard.coalesced_batches"]["value"] == 3.0
        assert merged["server.batches"]["value"] == 3.0
        assert merged["server.sightings"]["value"] == 10.0

    def test_batch_route_returns_rooms_in_request_order(self):
        service = make_service(4, drain_policy="immediate")
        calibrate(service)
        rooms = ["lab", "office", "hall", "office", "lab"]
        response = service.router.dispatch(
            Request(
                "POST",
                "/sightings/batch",
                body={
                    "sightings": [
                        sighting_body(f"d{i}", room, time=2.0)
                        for i, room in enumerate(rooms)
                    ]
                },
                time=2.0,
            )
        )
        assert response.status == 200
        assert response.body["rooms"] == rooms


class TestBackpressure:
    def overflow(self, service, n):
        last = None
        for i in range(n):
            last = service.router.dispatch(
                Request("POST", "/sightings", body=sighting_body(f"d{i}", "lab"))
            )
        return last

    def test_queue_full_is_429_with_hint(self):
        service = make_service(
            1, drain_policy="manual", queue_maxsize=2, retry_after_s=0.25
        )
        calibrate(service)
        response = self.overflow(service, 3)
        assert response.status == 429
        assert response.body["retry_after_s"] == 0.25
        assert response.body["shard"] == 0

    def test_rejections_counted(self):
        service = make_service(1, drain_policy="manual", queue_maxsize=2)
        calibrate(service)
        self.overflow(service, 5)
        snapshot = service.obs.snapshot()
        assert snapshot["server.backpressure.rejected"]["value"] == 3.0
        assert snapshot["server.backpressure.rejected_sightings"]["value"] == 3.0

    def test_drain_frees_capacity(self):
        service = make_service(1, drain_policy="manual", queue_maxsize=2)
        calibrate(service)
        self.overflow(service, 3)
        service.drain()
        response = service.router.dispatch(
            Request("POST", "/sightings", body=sighting_body("late", "lab"))
        )
        assert response.status == 202

    def test_batch_capacity_is_all_or_nothing(self):
        service = make_service(1, drain_policy="manual", queue_maxsize=3)
        calibrate(service)
        self.overflow(service, 1)
        response = service.router.dispatch(
            Request(
                "POST",
                "/sightings/batch",
                body={
                    "sightings": [
                        sighting_body(f"d{i}", "lab") for i in range(3)
                    ]
                },
            )
        )
        assert response.status == 429
        assert service.queue_depth() == 1
        snapshot = service.obs.snapshot()
        assert snapshot["server.backpressure.rejected_sightings"]["value"] == 3.0


class TestMergedReads:
    def seed_three_rooms(self, service):
        calibrate(service)
        for i, room in enumerate(["lab", "office", "hall", "lab"]):
            service.router.dispatch(
                Request(
                    "POST",
                    "/sightings",
                    body=sighting_body(f"d{i}", room, time=5.0),
                )
            )

    def test_occupancy_merges_disjoint_devices(self):
        service = make_service(4, drain_policy="immediate")
        self.seed_three_rooms(service)
        response = service.router.dispatch(Request("GET", "/occupancy"))
        assert response.body["rooms"] == {"hall": 1, "lab": 2, "office": 1}
        assert len(response.body["devices"]) == 4

    def test_room_count_route(self):
        service = make_service(4, drain_policy="immediate")
        self.seed_three_rooms(service)
        response = service.router.dispatch(Request("GET", "/occupancy/lab"))
        assert response.body == {"room": "lab", "count": 2}

    def test_history_sums_across_shards(self):
        service = make_service(4, drain_policy="immediate")
        self.seed_three_rooms(service)
        service.record_history(10.0)
        service.record_history(20.0)
        response = service.router.dispatch(Request("GET", "/history/lab"))
        assert response.status == 200
        assert response.body["series"] == [(10.0, 2), (20.0, 2)]
        assert response.body["peak"] == 2

    def test_expiry_uses_global_now(self):
        service = make_service(2, drain_policy="immediate", device_timeout_s=30.0)
        calibrate(service)
        service.router.dispatch(
            Request("POST", "/sightings", body=sighting_body("old", "lab", 0.0))
        )
        service.router.dispatch(
            Request("POST", "/sightings", body=sighting_body("new", "hall", 100.0))
        )
        snap = service.snapshot()
        assert snap.time == 100.0
        assert "old" not in snap.devices and "new" in snap.devices

    def test_telemetry_route_reports_merged_totals(self):
        service = make_service(3, drain_policy="immediate")
        self.seed_three_rooms(service)
        response = service.router.dispatch(Request("GET", "/telemetry"))
        metrics = response.body["metrics"]
        assert metrics["server.sightings"]["value"] == 4.0
        assert metrics["server.frontdoor.sightings"]["value"] == 4.0

    def test_shards_route_exposes_depths(self):
        service = make_service(2, drain_policy="manual")
        calibrate(service)
        service.router.dispatch(
            Request("POST", "/sightings", body=sighting_body("d0", "lab"))
        )
        response = service.router.dispatch(Request("GET", "/shards"))
        assert response.body["shards"] == 2
        assert sum(response.body["queued"]) == 1


def run_config(shards, batches):
    """One full ingest run; returns the comparable observable state."""
    service = make_service(shards, drain_policy="manual")
    calibrate(service)
    drained = []
    for time, batch in enumerate(batches):
        response = service.router.dispatch(
            Request(
                "POST",
                "/sightings/batch",
                body={"sightings": batch},
                time=float(time + 1),
            )
        )
        assert response.status in (200, 202)
        result = service.drain()
        drained.extend(result.entries)
        service.record_history(float(time + 1))
    snap = service.snapshot()
    merged = service.merged_telemetry().snapshot()
    history = service.router.dispatch(Request("GET", "/history/lab")).body
    return {
        "drained": drained,
        "occupancy": json.dumps(
            {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices},
            sort_keys=True,
        ),
        "sightings_total": merged["server.sightings"]["value"],
        "history": json.dumps(history, sort_keys=True),
    }


class TestShardCountInvariance:
    SHARDS = [1, 2, 4]

    def batches(self):
        rooms = list(ROOM_BASES)
        return [
            [
                sighting_body(f"dev-{t}-{i}", rooms[(t + i) % 3], float(t + 1))
                for i in range(5)
            ]
            for t in range(4)
        ]

    def test_results_identical_across_shard_counts(self):
        batches = self.batches()
        results = [run_config(shards, batches) for shards in self.SHARDS]
        for other, shards in zip(results[1:], self.SHARDS[1:]):
            assert other == results[0], f"diverged at {shards} shards"

    @settings(deadline=None, max_examples=30)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=39),
                st.sampled_from(sorted(ROOM_BASES)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_property_snapshot_and_results_shard_invariant(self, data):
        batches = [
            [
                sighting_body(f"dev-{index:02d}", room, float(step + 1))
                for index, room in data
            ]
            for step in range(2)
        ]
        reference = run_config(1, batches)
        for shards in (2, 4):
            assert run_config(shards, batches) == reference


class TestCoalescedSvmDrain:
    def test_rooms_match_plain_store_loose_posts(self):
        """Loose posts to the single store and one batch drained in
        coalesced chunks across four shards classify alike with the
        real SVM."""
        rng = np.random.default_rng(1)
        sightings = [
            {
                "device_id": f"dev-{k:03d}",
                "beacons": dict(zip(BEACONS, rng.uniform(0.5, 9.0, 3).tolist())),
                "time": 1.0,
            }
            for k in range(120)
        ]
        store = calibrate_svm(BuildingManagementServer(BEACONS))
        rooms = [
            store.router.dispatch(
                Request("POST", "/sightings", body=s, time=1.0)
            ).body["room"]
            for s in sightings
        ]
        door = calibrate_svm(
            ShardedBmsService(
                BEACONS,
                shards=4,
                queue_maxsize=1000,
                coalesce_max=25,
                drain_policy="manual",
            )
        )
        response = door.router.dispatch(
            Request("POST", "/sightings/batch", body={"sightings": sightings}, time=1.0)
        )
        assert response.status == 202
        assert [room for _, _, room in door.drain().entries] == rooms


class TestClientBackpressure:
    def make_full_service(self):
        service = make_service(1, drain_policy="manual", queue_maxsize=1,
                               retry_after_s=2.0)
        calibrate(service)
        service.router.dispatch(
            Request("POST", "/sightings", body=sighting_body("hog", "lab"))
        )
        return service

    def test_retry_honours_hint_and_succeeds_after_drain(self):
        service = self.make_full_service()
        observed = []

        def on_backpressure(next_time, attempt):
            observed.append((next_time, attempt))
            service.drain()

        client = BmsClient(service.router, on_backpressure=on_backpressure)
        result = client.post_sighting("d-new", ROOM_BASES["office"], time=1.0)
        assert result is None  # accepted-but-queued after the retry
        assert observed == [(3.0, 1)]  # 1.0 + the 2.0s retry_after hint
        assert client.backpressure_retries == 1
        service.drain()
        assert service.device_room("d-new") == "office"

    def test_bounded_retries_then_api_error(self):
        service = self.make_full_service()
        client = BmsClient(service.router, max_backpressure_retries=2)
        with pytest.raises(BmsApiError) as excinfo:
            client.post_sightings_batch(
                [sighting_body("d-new", "office")], time=1.0
            )
        assert excinfo.value.status == 429
        assert client.backpressure_retries == 2
        snapshot = service.obs.snapshot()
        assert snapshot["server.backpressure.rejected"]["value"] == 3.0

    def test_zero_retries_fails_fast(self):
        service = self.make_full_service()
        client = BmsClient(service.router, max_backpressure_retries=0)
        with pytest.raises(BmsApiError):
            client.post_sightings_batch(
                [sighting_body("d-new", "office")], time=1.0
            )
        assert client.backpressure_retries == 0


class TestTypedClientWrappers:
    def make_served_client(self):
        service = make_service(2, drain_policy="immediate")
        calibrate(service)
        return service, BmsClient(service.router)

    def test_post_sightings_batch_returns_rooms(self):
        _, client = self.make_served_client()
        rooms = client.post_sightings_batch(
            [sighting_body("a", "lab"), sighting_body("b", "hall")], time=1.0
        )
        assert rooms == ["lab", "hall"]

    def test_post_sightings_batch_raises_on_validation(self):
        _, client = self.make_served_client()
        with pytest.raises(BmsApiError) as excinfo:
            client.post_sightings_batch([], time=1.0)
        assert excinfo.value.status == 400

    def test_history_returns_typed_record(self):
        service, client = self.make_served_client()
        client.post_sightings_batch([sighting_body("a", "lab")], time=1.0)
        service.record_history(5.0)
        service.record_history(10.0)
        history = client.history("lab")
        assert isinstance(history, RoomHistory)
        assert history.room == "lab"
        assert history.series == ((5.0, 1), (10.0, 1))
        assert history.peak == 1
        assert history.utilisation == 1.0

    def test_sighting_request_builder_shapes_wire_format(self):
        request = BmsClient.sighting_request(
            {"device_id": "a", "beacons": {"b1": 1.0}, "time": 2.0},
            time=2.0,
            headers={"traceparent": "t;1"},
        )
        assert (request.method, request.path, request.time) == (
            "POST", "/sightings", 2.0
        )
        assert request.body == {
            "device_id": "a", "beacons": {"b1": 1.0}, "time": 2.0
        }
        assert request.headers == {"traceparent": "t;1"}

    def test_batch_request_builder_shapes_wire_format(self):
        request = BmsClient.batch_request(
            [{"device_id": "a", "beacons": {"b1": 1.0}, "time": 2.0}], time=2.0
        )
        assert request.method == "POST"
        assert request.path == "/sightings/batch"
        assert request.body["sightings"][0]["device_id"] == "a"
