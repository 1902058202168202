"""One sighting path: validation, all-or-nothing ingest, and replay.

A loose sighting is a 1-row batch end to end.  One validator
(:func:`~repro.server.bms.normalise_sighting`) guards both REST routes
of the single store and of the sharded front door; every ingest
validates and classifies each row before it stores, logs or counts
anything; a late report never rewinds its device; and whatever is
accepted replays to the live state.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "beacons-empty": {"device_id": "bob", "beacons": {}, "time": 2.0},
    "beacons-unknown-only": {"device_id": "bob", "beacons": {"zzz": 1.0}, "time": 2.0},
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
    # Integer times and distances, numpy scalars, a default time from
    # the request and unknown beacons beside a known one are all
    # accepted (the vectoriser ignores unknown beacons).
    loose = [
        {"device_id": "alice", "beacons": {"b1": 1, "b2": 6, "b3": 9}, "time": 3},
        {"device_id": "bob", "beacons": {"b2": np.float32(1.0), "zzz": 2.0}},
    ]
    batch = [
        {"device_id": "carol", "beacons": near("hall"), "time": np.int64(5)},
        {"device_id": "dave", "beacons": {"b3": 1, "zzz": 2}},
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
    known = frozenset(BEACONS)
    row = normalise_sighting({"device_id": "a", "beacons": {"b1": 1}}, known, 3)
    assert row == {"device_id": "a", "beacons": {"b1": 1.0}, "time": 3.0}
    assert type(row["time"]) is float and type(row["beacons"]["b1"]) is float
    assert normalise_sighting(row, known) == row


#: Beacon maps that name none of the building's beacons (ids are
#: matched exactly, so ``B1`` is not ``b1``).
NO_KNOWN_BEACON = {
    "empty": {},
    "unknown-only": {"zzz": 1.0},
    "several-unknown": {"zzz": 1.0, "B1": 2.0},
}


@pytest.mark.parametrize("case", sorted(NO_KNOWN_BEACON))
def test_normalise_sighting_needs_a_known_beacon(case):
    report = {"device_id": "a", "beacons": NO_KNOWN_BEACON[case], "time": 1.0}
    with pytest.raises(ValueError, match="none of the building's beacons"):
        normalise_sighting(report, frozenset(BEACONS))


def test_normalise_sighting_keeps_unknown_ids_beside_a_known_one():
    report = {"device_id": "a", "beacons": {"zzz": 1, "b2": 2}, "time": 1.0}
    row = normalise_sighting(report, frozenset(BEACONS))
    assert row["beacons"] == {"zzz": 1.0, "b2": 2.0}


@pytest.mark.parametrize("kind", sorted(STORES))
def test_fingerprints_keep_their_rule(kind):
    """The known-beacon rule is for sightings only: a calibration row
    still needs just one beacon, known or not."""
    store = STORES[kind]()
    body = {"room": "lab", "beacons": {"zzz": -60.0}, "time": 0.0}
    assert post(store, "/fingerprints", body).status == 200
    empty = {"room": "lab", "beacons": {}, "time": 0.0}
    assert post(store, "/fingerprints", empty).status == 400
    # The door hands every calibration row to every shard.
    assert set(fingerprint_counts(store)) == {1}


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

    @pytest.mark.parametrize("case", ["beacons-empty", "beacons-unknown-only"])
    @pytest.mark.parametrize("route", ["/sightings", "/sightings/batch"])
    def test_no_known_beacon_is_refused_before_the_queue(self, tmp_path, route, case):
        """On a door that queues, a sighting with no known beacon is a
        400 at the door: the queue depth, the WAL and the store stay as
        they were, and the good row queued before it still drains."""
        store = calibrate(sharded_door(tmp_path / "wal", drain_policy="manual"))
        alice = {"device_id": "alice", "beacons": near("lab"), "time": 1.0}
        assert post(store, "/sightings", alice).status == 202
        before = observed(store)
        assert before["queued"] == 1
        report = MALFORMED[case]
        if route == "/sightings/batch":
            good = {"device_id": "carol", "beacons": near("hall"), "time": 2.0}
            report = {"sightings": [good, report]}
        assert post(store, route, report, time=2.0).status == 400
        assert observed(store) == before
        assert [entry[1:] for entry in store.drain().entries] == [("alice", "lab")]


# ----------------------------------------------------------------------
# Hypothesis: late reports
# ----------------------------------------------------------------------
@st.composite
def late_arrivals(draw):
    """One device's reports at distinct times, in time and arrival order.

    The arrival order is grouped into posts: a group of one is a loose
    post, a longer group one batch post.
    """
    times = draw(st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True))
    rooms = st.sampled_from(sorted(ROOM_BASES))
    in_time_order = [
        {"device_id": "alice", "beacons": near(draw(rooms)), "time": float(t)}
        for t in sorted(times)
    ]
    posts = []
    for report in draw(st.permutations(in_time_order)):
        if posts and draw(st.booleans()):
            posts[-1].append(report)
        else:
            posts.append([report])
    return in_time_order, posts


def post_all(store, posts):
    for rows in posts:
        if len(rows) == 1:
            response = post(store, "/sightings", rows[0])
        else:
            response = post(store, "/sightings/batch", {"sightings": rows})
        assert response.status == 200, response.body


@settings(max_examples=30, deadline=None)
@given(case=late_arrivals(), wait=st.integers(0, 45))
def test_late_reports_end_where_time_order_ends(case, wait):
    """Any arrival order of a device's reports ends where time order
    ends: the same room, the same snapshot at any later time, and a
    replay of the log ends there too."""
    in_time_order, posts = case
    now = in_time_order[-1]["time"] + wait
    for kind, make in STORES.items():
        with tempfile.TemporaryDirectory() as tmp:
            wal_dir = Path(tmp) / "wal"
            live = calibrate(make(wal_dir))
            post_all(live, posts)
            reference = calibrate(make())
            post_all(reference, [[row] for row in in_time_order])
            restored = calibrate(make())
            if kind == "sharded":
                live.close_wals()
                replay_sharded(restored, wal_dir)
            else:
                live.wal.close()
                replay_wal(restored, wal_dir)
            expected = reference.device_room("alice")
            for store in (live, restored):
                assert store.device_room("alice") == expected, kind
                assert store.sighting_count == len(in_time_order)
                assert store.snapshot(now) == reference.snapshot(now), kind


@st.composite
def reports_and_sweeps(draw):
    """One device's reports in any arrival order, with expiry sweeps
    (history marks at rising times) between them."""
    times = draw(st.lists(st.integers(0, 120), min_size=1, max_size=6, unique=True))
    rooms = st.sampled_from(sorted(ROOM_BASES))
    sweeps = iter(sorted(draw(st.lists(st.integers(0, 200), max_size=len(times)))))
    events = []
    for t in draw(st.permutations(times)):
        if draw(st.booleans()):
            sweep = next(sweeps, None)
            if sweep is not None:
                events.append(("sweep", float(sweep)))
        report = {"device_id": "alice", "beacons": near(draw(rooms)), "time": float(t)}
        events.append(("report", report))
    return events


def replay_into(kind, live, wal_dir):
    """A fresh store of ``kind`` rebuilt from ``live``'s closed log."""
    restored = calibrate(STORES[kind]())
    if kind == "sharded":
        live.close_wals()
        replay_sharded(restored, wal_dir)
    else:
        live.wal.close()
        replay_wal(restored, wal_dir)
    return restored


@settings(max_examples=40, deadline=None)
@given(events=reports_and_sweeps())
def test_older_report_never_changes_device_room(events):
    """Whatever expired in between, a report older than the device's
    newest one leaves its room as it was; replay ends in the same
    state."""
    for kind, make in STORES.items():
        with tempfile.TemporaryDirectory() as tmp:
            wal_dir = Path(tmp) / "wal"
            live = calibrate(make(wal_dir))
            newest = -float("inf")
            for what, value in events:
                if what == "sweep":
                    live.record_history(value)
                    continue
                before = live.device_room("alice")
                send(live, "/sightings", value)
                if value["time"] < newest:
                    assert live.device_room("alice") == before, kind
                newest = max(newest, value["time"])
            restored = replay_into(kind, live, wal_dir)
            assert restored.device_room("alice") == live.device_room("alice"), kind
            assert restored.snapshot(newest) == live.snapshot(newest), kind


def send(store, route, report):
    """Post one report as a loose sighting or as a 1-row batch."""
    body = report if route == "/sightings" else {"sightings": [report]}
    response = post(store, route, body)
    assert response.status == 200, response.body


class TestLateReport:
    """``alice`` reports ``lab`` at t = 40, then a t = 5 ``hall`` report
    arrives; the device timeout is the default 30 s."""

    ON_TIME = {"device_id": "alice", "beacons": near("lab"), "time": 40.0}
    LATE = {"device_id": "alice", "beacons": near("hall"), "time": 5.0}

    @pytest.mark.parametrize("route", ["/sightings", "/sightings/batch"])
    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_late_report_moves_neither_room_nor_last_seen(self, kind, route):
        store = calibrate(STORES[kind]())
        send(store, route, self.ON_TIME)
        send(store, route, self.LATE)
        assert store.device_room("alice") == "lab"
        assert store.now == 40.0
        # Last seen stays 40: kept until the cutoff passes it.
        assert store.snapshot(40.0).devices == {"alice": "lab"}
        assert store.snapshot(70.0).devices == {"alice": "lab"}
        assert store.snapshot(70.5).devices == {}

    @pytest.mark.parametrize("route", ["/sightings", "/sightings/batch"])
    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_late_report_is_stored_counted_and_logged(self, tmp_path, kind, route):
        """Everything but the device's booking sees the late row exactly
        as it sees the same rows in time order."""
        late = calibrate(STORES[kind](tmp_path / "late"))
        send(late, route, self.ON_TIME)
        send(late, route, self.LATE)
        in_order = calibrate(STORES[kind](tmp_path / "in-order"))
        send(in_order, route, self.LATE)
        send(in_order, route, self.ON_TIME)
        assert late.sighting_count == 2
        assert observed(late)["wal_records"] == 2
        assert observed(late) == observed(in_order)

    @pytest.mark.parametrize("route", ["/sightings", "/sightings/batch"])
    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_late_report_after_expiry_books_nothing(self, tmp_path, kind, route):
        """Expiry drops the room, not the last-seen time: the t = 5
        report that arrives after alice expired is still late."""
        store = calibrate(STORES[kind](tmp_path / "wal"))
        send(store, route, self.ON_TIME)
        assert store.record_history(100.0).devices == {}
        send(store, route, self.LATE)
        assert store.device_room("alice") is None
        assert store.snapshot(50.0).devices == {}
        assert store.sighting_count == 2
        restored = replay_into(kind, store, tmp_path / "wal")
        assert restored.device_room("alice") is None
        assert restored.snapshot(100.0) == store.snapshot(100.0)

    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_equal_times_keep_arrival_order(self, kind):
        store = calibrate(STORES[kind]())
        twice = [
            {"device_id": "alice", "beacons": near("lab"), "time": 10.0},
            {"device_id": "alice", "beacons": near("hall"), "time": 10.0},
        ]
        assert post(store, "/sightings/batch", {"sightings": twice}).ok
        assert store.device_room("alice") == "hall"
        send(store, "/sightings", {**twice[0], "beacons": near("office")})
        assert store.device_room("alice") == "office"
