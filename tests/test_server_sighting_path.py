"""One sighting path: validation, all-or-nothing ingest, and replay.

A loose sighting is a 1-row batch end to end.  One validator
(:func:`~repro.server.bms.normalise_sighting`) guards both REST routes
of the single store and of the sharded front door; every ingest
validates and classifies each row before it stores, logs or counts
anything; and whatever is accepted replays to the live state.
"""

import numpy as np
import pytest

from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.obs.metrics import MetricsRegistry
from repro.server import Request, ShardedBmsService
from repro.server.bms import BuildingManagementServer, normalise_sighting
from repro.server.replay import replay_sharded, replay_wal
from repro.traces.wal import SightingWal, read_wal_records

BEACONS = ["b1", "b2", "b3"]

ROOM_BASES = {
    "lab": {"b1": 1.0, "b2": 6.0, "b3": 9.0},
    "office": {"b1": 6.0, "b2": 1.0, "b3": 6.0},
    "hall": {"b1": 9.0, "b2": 6.0, "b3": 1.0},
}

NAN, INF = float("nan"), float("inf")

#: Reports every route must answer 400, keyed by what is wrong.
MALFORMED = {
    "empty-device-id": {"device_id": "", "beacons": {"b1": 1.0}, "time": 2.0},
    "int-device-id": {"device_id": 7, "beacons": {"b1": 1.0}, "time": 2.0},
    "missing-device-id": {"beacons": {"b1": 1.0}, "time": 2.0},
    "beacons-list": {"device_id": "bob", "beacons": [1.0, 6.0], "time": 2.0},
    "beacons-missing": {"device_id": "bob", "time": 2.0},
    "beacon-id-not-str": {"device_id": "bob", "beacons": {1: 1.0}, "time": 2.0},
    "beacon-value-str": {"device_id": "bob", "beacons": {"b1": "near"}, "time": 2.0},
    "beacon-value-bool": {"device_id": "bob", "beacons": {"b1": True}, "time": 2.0},
    "beacon-value-nan": {"device_id": "bob", "beacons": {"b1": NAN}, "time": 2.0},
    "beacon-value-inf": {"device_id": "bob", "beacons": {"b1": INF}, "time": 2.0},
    "beacon-value-neg-inf": {"device_id": "bob", "beacons": {"b1": -INF}, "time": 2.0},
    "beacon-value-negative": {"device_id": "bob", "beacons": {"b1": -1.0}, "time": 2.0},
    "beacon-value-negative-int": {"device_id": "bob", "beacons": {"b1": -2}, "time": 2.0},
    "beacon-value-numpy-nan": {
        "device_id": "bob", "beacons": {"b1": np.float32("nan")}, "time": 2.0,
    },
    "time-str": {"device_id": "bob", "beacons": {"b1": 1.0}, "time": "noon"},
    "time-none": {"device_id": "bob", "beacons": {"b1": 1.0}, "time": None},
    "time-nan": {"device_id": "bob", "beacons": {"b1": 1.0}, "time": NAN},
    "time-inf": {"device_id": "bob", "beacons": {"b1": 1.0}, "time": INF},
    "time-neg-inf": {"device_id": "bob", "beacons": {"b1": 1.0}, "time": -INF},
    "time-numpy-nan": {"device_id": "bob", "beacons": {"b1": 1.0}, "time": np.float64("nan")},
    "report-not-a-mapping": ["bob", {"b1": 1.0}],
}


def make_classifier():
    return SupportVectorClassifier(c=10.0, kernel=RbfKernel(gamma=0.5), seed=0)


def calibrate(store):
    for room, base in ROOM_BASES.items():
        for jitter in (0.0, 0.3, -0.3, 0.6):
            fingerprint = {k: v + jitter for k, v in base.items()}
            store.add_fingerprint(room, fingerprint, 0.0)
    store.train()
    return store


def single_store(wal_dir=None, **kwargs):
    return BuildingManagementServer(
        BEACONS,
        classifier=make_classifier(),
        registry=MetricsRegistry(),
        wal=SightingWal(wal_dir) if wal_dir is not None else None,
        **kwargs,
    )


def sharded_door(wal_dir=None, **kwargs):
    kwargs.setdefault("drain_policy", "immediate")
    kwargs.setdefault("shards", 2)
    return ShardedBmsService(
        BEACONS,
        classifier_factory=make_classifier,
        registry=MetricsRegistry(),
        wal_dir=wal_dir,
        **kwargs,
    )


STORES = {"single": single_store, "sharded": sharded_door}


def near(room, delta=0.05):
    return {k: v + delta for k, v in ROOM_BASES[room].items()}


def post(store, path, body, time=0.0):
    return store.router.dispatch(Request("POST", path, body=body, time=time))


#: Front-door request and queue metrics: replay applies state to the
#: shard stores directly, it does not re-serve the requests.
TRANSPORT = ("server.frontdoor.", "server.shard.", "server.backpressure.")


def server_metrics(store, skip=()):
    """The ``server.*`` slice of a store's (merged) telemetry state."""
    telemetry = (
        store.merged_telemetry()
        if isinstance(store, ShardedBmsService)
        else store.obs
    )
    state = telemetry.state()
    return {
        kind: {
            name: payload
            for name, payload in state[kind].items()
            if name.startswith("server.") and not name.startswith(skip)
        }
        for kind in ("counters", "gauges", "histograms")
    }


def fingerprint_counts(store):
    """Calibration rows held by each shard (one entry for a store)."""
    shards = store._shards if isinstance(store, ShardedBmsService) else [store]
    return [len(shard.fingerprints) for shard in shards]


def observed(store):
    """Everything a rejected request must leave as it was."""
    wal = store.router.dispatch(Request("GET", "/wal")).body
    return {
        "sightings": store.sighting_count,
        "fingerprints": fingerprint_counts(store),
        "rooms": {d: store.device_room(d) for d in ("alice", "bob", "carol", "7")},
        "server": server_metrics(store),
        "queued": (
            store.queue_depth() if isinstance(store, ShardedBmsService) else 0
        ),
        "wal_records": sum(log["records_appended"] for log in wal["shards"]),
    }


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("route", ["/sightings", "/sightings/batch"])
@pytest.mark.parametrize("kind", sorted(STORES))
def test_malformed_sighting_is_400_and_changes_nothing(
    tmp_path, kind, route, case
):
    store = calibrate(STORES[kind](tmp_path / "wal"))
    alice = {"device_id": "alice", "beacons": near("lab")}
    assert post(store, "/sightings", alice).status == 200
    before = observed(store)
    report = MALFORMED[case]
    if route == "/sightings/batch":
        # A good row ahead of the bad one must not be stored either.
        good = {"device_id": "carol", "beacons": near("hall"), "time": 2.0}
        report = {"sightings": [good, report]}
    response = post(store, route, report, time=2.0)
    assert response.status == 400, response.body
    assert observed(store) == before


@pytest.mark.parametrize("kind", sorted(STORES))
def test_accepted_variants_replay_to_the_live_state(tmp_path, kind):
    live = calibrate(STORES[kind](tmp_path / "wal"))
    # Integer times and distances, numpy scalars and a default time
    # from the request are all accepted and widened to floats.
    loose = [
        {"device_id": "alice", "beacons": {"b1": 1, "b2": 6, "b3": 9}, "time": 3},
        {"device_id": "bob", "beacons": {"b2": np.float32(1.0)}},
    ]
    batch = [
        {"device_id": "carol", "beacons": near("hall"), "time": np.int64(5)},
        {"device_id": "dave", "beacons": {"b3": 1}},
    ]
    assert all(post(live, "/sightings", body, time=4.0).ok for body in loose)
    assert post(live, "/sightings/batch", {"sightings": batch}, time=6.0).ok
    live.record_history(7.0)
    restored = calibrate(STORES[kind]())
    if kind == "sharded":
        live.close_wals()
        replay_sharded(restored, tmp_path / "wal")
    else:
        live.wal.close()
        replay_wal(restored, tmp_path / "wal")
    assert restored.sighting_count == live.sighting_count == 4
    assert restored.snapshot() == live.snapshot()
    assert server_metrics(restored, TRANSPORT) == server_metrics(live, TRANSPORT)


def test_normalise_sighting_widens_to_one_type_per_field():
    row = normalise_sighting({"device_id": "a", "beacons": {"b1": 1}}, 3)
    assert row == {"device_id": "a", "beacons": {"b1": 1.0}, "time": 3.0}
    assert type(row["time"]) is float and type(row["beacons"]["b1"]) is float
    assert normalise_sighting(row) == row


class TestAllOrNothing:
    def test_untrained_loose_post_is_409_and_stores_nothing(self):
        store = single_store()
        store.add_fingerprint("lab", near("lab"))
        body = {"device_id": "alice", "beacons": near("lab")}
        assert post(store, "/sightings", body).status == 409
        assert store.sighting_count == 0
        assert store.device_room("alice") is None

    @pytest.mark.parametrize("bad", [{"time": "later"}, {"beacons": {"b1": "far"}}])
    @pytest.mark.parametrize("logged", [True, False])
    def test_batch_with_a_bad_second_row_stores_nothing(self, tmp_path, logged, bad):
        store = calibrate(single_store(tmp_path / "wal" if logged else None))
        before = server_metrics(store)
        rows = [
            {"device_id": "alice", "beacons": near("lab"), "time": 1.0},
            {"device_id": "bob", "beacons": near("hall"), "time": 1.0, **bad},
        ]
        with pytest.raises(ValueError):
            store.ingest_batch(rows)
        assert post(store, "/sightings/batch", {"sightings": rows}).status == 400
        assert store.sighting_count == 0
        assert store.device_room("alice") is None
        assert server_metrics(store) == before
        if logged:
            assert list(read_wal_records(tmp_path / "wal")) == []

    def test_manual_door_refuses_bad_rows_and_drains_every_good_one(self):
        store = calibrate(sharded_door(drain_policy="manual"))
        good = [
            {"device_id": f"dev-{i}", "beacons": near(room), "time": float(i)}
            for i, room in enumerate(["lab", "office", "hall", "lab"])
        ]
        assert post(store, "/sightings", good[0]).status == 202
        assert post(store, "/sightings", {**good[1], "time": "later"}).status == 400
        bad_batch = {"sightings": [good[1], {**good[2], "beacons": None}]}
        assert post(store, "/sightings/batch", bad_batch).status == 400
        assert post(store, "/sightings/batch", {"sightings": good[1:3]}).status == 202
        assert post(store, "/sightings", good[3]).status == 202
        assert store.queue_depth() == 4
        result = store.drain()
        assert [entry[1:] for entry in result.entries] == [
            ("dev-0", "lab"),
            ("dev-1", "office"),
            ("dev-2", "hall"),
            ("dev-3", "lab"),
        ]
        assert store.sighting_count == 4
