"""One BMS REST surface: the single store and the sharded front door.

Both servers register one route table
(:func:`~repro.server.bms.register_routes`) and differ only in their two
sighting handlers.  These tests pin that the two answer every shared
route alike, that a non-object body or a malformed calibration row is a
400 on every POST route, that a refresh is all or nothing, and — as
Hypothesis properties — that no malformed post earns a 5xx or changes
any state, that a batch which can never fit a door's ingress queue is
a 413 that changes nothing, and that the single store accepts a batch
of any size whole.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.svm import PREDICT_BLOCK
from repro.server import Request
from repro.server.bms import normalise_fingerprint
from tests.test_server_sighting_path import (
    BEACONS,
    INF,
    NAN,
    ROOM_BASES,
    STORES,
    calibrate,
    fingerprint_counts,
    near,
    observed,
    post,
    sharded_door,
    single_store,
)

POST_ROUTES = ["/sightings", "/sightings/batch", "/fingerprints", "/model/refresh"]

#: The survey :func:`calibrate` stores: four rows per room, 12 in all.
SURVEY = [
    {"room": room, "beacons": {k: v + jitter for k, v in base.items()}}
    for room, base in ROOM_BASES.items()
    for jitter in (0.0, 0.3, -0.3, 0.6)
]


def run_script(server):
    """``(method, path, status, body)`` for one script over every shared route."""
    answers = []

    def call(method, path, body=None, time=0.0):
        response = server.router.dispatch(Request(method, path, body=body, time=time))
        answers.append((method, path, response.status, response.body))

    for fingerprint in SURVEY:
        call("POST", "/fingerprints", fingerprint)
    call("POST", "/train")
    call("POST", "/sightings", {"device_id": "alice", "beacons": near("lab")}, 1.0)
    call("POST", "/sightings", {"device_id": "bob", "beacons": near("hall"), "time": 1.5})
    batch = [
        {"device_id": "carol", "beacons": near("office")},
        {"device_id": "bob", "beacons": near("office"), "time": 2.5},
    ]
    call("POST", "/sightings/batch", {"sightings": batch}, 2.0)
    server.record_history(3.0)
    call("GET", "/occupancy")
    call("GET", "/occupancy", time=2.5)
    call("GET", "/occupancy/office", time=3.0)
    call("GET", "/devices/bob/location")
    call("GET", "/devices/ghost/location")
    rows = [{"room": "hall", "beacons": near("hall", 0.2), "time": 4.0}]
    call("POST", "/model/refresh", {"fingerprints": rows}, 4.0)
    call("POST", "/sightings", {"device_id": "dave", "beacons": near("hall", 0.2)}, 5.0)
    server.record_history(6.0)
    call("GET", "/history/office")
    call("GET", "/history/hall")
    call("GET", "/wal")
    call("POST", "/wal/compact")
    call("GET", "/wal")
    return answers


@pytest.mark.parametrize("logged", [False, True], ids=["no-wal", "wal"])
def test_store_and_one_shard_door_answer_alike(tmp_path, logged):
    store = single_store(tmp_path / "store" / "shard-00" if logged else None)
    door = sharded_door(tmp_path / "door" if logged else None, shards=1)
    store_answers, door_answers = run_script(store), run_script(door)
    assert [a[:3] for a in door_answers] == [a[:3] for a in store_answers]
    for (method, path, status, ours), (_, _, _, theirs) in zip(
        store_answers, door_answers
    ):
        if path == "/sightings":
            # The door also says which shard took the report.
            assert theirs.pop("shard") == 0
        if path == "/wal":
            # Each server logs under its own directory.  The door
            # coalesces a loose post into a 1-row ``batch`` record, so
            # its log is shorter by the kind tags; every count matches.
            for logs, root in ((ours, "store"), (theirs, "door")):
                for log in logs["shards"]:
                    assert log.pop("directory") == str(tmp_path / root / "shard-00")
                    log.pop("active_bytes")
        assert theirs == ours, (method, path, status)
    by_route = {(a[0], a[1]): a[2:] for a in store_answers}
    assert by_route["GET", "/devices/ghost/location"][0] == 404
    if logged:
        assert by_route["POST", "/wal/compact"] == (200, {"compacted": [0]})
        assert by_route["GET", "/wal"][1]["attached"] is True
    else:
        assert by_route["POST", "/wal/compact"][0] == 409
        assert by_route["GET", "/wal"] == (200, {"attached": False, "shards": []})


NON_OBJECTS = {"list": [{"room": "lab"}], "string": "lab", "number": 7, "false": False}


@pytest.mark.parametrize("body", sorted(NON_OBJECTS))
@pytest.mark.parametrize("route", POST_ROUTES)
@pytest.mark.parametrize("kind", sorted(STORES))
def test_non_object_body_is_400_and_changes_nothing(tmp_path, kind, route, body):
    server = calibrate(STORES[kind](tmp_path / "wal"))
    before = observed(server)
    response = post(server, route, NON_OBJECTS[body])
    assert response.status == 400, response.body
    assert observed(server) == before


MISTYPED = {
    "refresh-row-not-object": ("/model/refresh", {"fingerprints": ["x"]}),
    "refresh-beacons-list": (
        "/model/refresh",
        {"fingerprints": [{"room": "lab", "beacons": [1.0, 6.0, 9.0]}]},
    ),
    "refresh-rows-not-list": ("/model/refresh", {"fingerprints": {"room": "lab"}}),
    "fingerprint-beacons-list": (
        "/fingerprints", {"room": "lab", "beacons": [1.0, 6.0, 9.0]},
    ),
    "batch-sightings-not-list": ("/sightings/batch", {"sightings": "alice"}),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
@pytest.mark.parametrize("kind", sorted(STORES))
def test_mistyped_rows_are_400_and_change_nothing(tmp_path, kind, case):
    server = calibrate(STORES[kind](tmp_path / "wal"))
    before = observed(server)
    route, body = MISTYPED[case]
    assert post(server, route, body).status == 400
    assert observed(server) == before


def test_door_refuses_a_non_string_building():
    door = calibrate(sharded_door())
    before = observed(door)
    body = {"device_id": "zed", "beacons": near("lab"), "building": {"wing": 1}}
    assert post(door, "/sightings", body).status == 400
    assert observed(door) == before


class TestCalibrationRows:
    """Malformed survey rows never reach a shard's store or model."""

    @pytest.mark.parametrize("value", [NAN, "near"], ids=["nan", "string"])
    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_bad_fingerprint_is_400_and_training_stays_clean(self, kind, value):
        server = STORES[kind]()
        assert all(post(server, "/fingerprints", row).ok for row in SURVEY)
        response = post(server, "/fingerprints", {"room": "lab", "beacons": {"b1": value}})
        assert response.status == 400
        assert set(fingerprint_counts(server)) == {12}
        assert post(server, "/train", None).body == {"train_accuracy": 1.0}

    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_nan_refresh_row_is_400_and_the_model_keeps_its_rooms(self, kind):
        server = calibrate(STORES[kind]())
        row = {"room": "hall", "beacons": {"b1": NAN, "b2": 6.0, "b3": 1.0}}
        assert post(server, "/model/refresh", {"fingerprints": [row]}).status == 400
        assert [server.classify(near(room)) for room in ROOM_BASES] == list(ROOM_BASES)

    @pytest.mark.parametrize("shards", [None, 3], ids=["single", "sharded-3"])
    def test_refresh_is_all_or_nothing(self, tmp_path, shards):
        server = calibrate(
            single_store(tmp_path / "wal")
            if shards is None
            else sharded_door(tmp_path / "wal", shards=shards)
        )
        before = observed(server)
        assert set(before["fingerprints"]) == {12}
        good = [
            {"room": "lab", "beacons": near("lab", 0.1)},
            {"room": "hall", "beacons": near("hall", 0.1)},
        ]
        rows = [*good, {"room": "lab", "beacons": {}}]
        assert post(server, "/model/refresh", {"fingerprints": rows}).status == 400
        assert observed(server) == before

    def test_refresh_that_cannot_retrain_is_409_and_stores_nothing(self):
        door = sharded_door(shards=3)
        rows = [{"room": "lab", "beacons": near("lab")}]
        assert post(door, "/model/refresh", {"fingerprints": rows}).status == 409
        assert fingerprint_counts(door) == [0, 0, 0]
        rows.append({"room": "hall", "beacons": near("hall")})
        assert post(door, "/model/refresh", {"fingerprints": rows}).ok
        assert fingerprint_counts(door) == [2, 2, 2]

    def test_normalise_fingerprint_widens_and_keeps_negative_values(self):
        row = normalise_fingerprint({"room": "lab", "beacons": {"b1": -70, "b2": 2}}, 3)
        assert row == {"room": "lab", "beacons": {"b1": -70.0, "b2": 2.0}, "time": 3.0}
        assert all(type(v) is float for v in (*row["beacons"].values(), row["time"]))
        assert normalise_fingerprint(row) == row

    @pytest.mark.parametrize(
        "fingerprint",
        [
            {"room": "", "beacons": {"b1": 1.0}},
            {"room": 7, "beacons": {"b1": 1.0}},
            {"beacons": {"b1": 1.0}},
            {"room": "lab", "beacons": {}},
            {"room": "lab"},
            {"room": "lab", "beacons": {1: 1.0}},
            {"room": "lab", "beacons": {"b1": True}},
            {"room": "lab", "beacons": {"b1": -INF}},
            {"room": "lab", "beacons": {"b1": 1.0}, "time": NAN},
            ["lab", {"b1": 1.0}],
        ],
    )
    def test_normalise_fingerprint_rejects(self, fingerprint):
        with pytest.raises(ValueError):
            normalise_fingerprint(fingerprint)


# ----------------------------------------------------------------------
# Hypothesis: generated malformed posts
# ----------------------------------------------------------------------
NON_FINITE = st.sampled_from([NAN, INF, -INF])
NOT_A_NUMBER = st.sampled_from([True, False, None, "near", [1.0], {"m": 1.0}])
BAD_TIME = st.one_of(NON_FINITE, NOT_A_NUMBER)
BAD_TEXT = st.sampled_from(["", 7, 0, None, True, ["lab"], {"id": "lab"}])
NOT_A_MAP = st.sampled_from([None, [1.0, 6.0], "b1", 3])
NOT_ROWS = st.sampled_from([[], None, "rows", 3, {"room": "lab"}])
NON_OBJECT = st.one_of(
    st.lists(st.integers(), max_size=3),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.booleans(),
)
BEACON_ID = st.sampled_from([*BEACONS, "b9"])
TIMES = st.floats(0.0, 50.0)


def beacon_maps(values, min_size=1):
    return st.dictionaries(BEACON_ID, values, min_size=min_size, max_size=4)


def known_beacon_maps(values):
    """A beacon map naming at least one of the building's beacons."""
    return st.tuples(
        st.dictionaries(st.sampled_from(BEACONS), values, min_size=1, max_size=3),
        beacon_maps(values, min_size=0),
    ).map(lambda maps: {**maps[1], **maps[0]})


GOOD_SIGHTING = st.fixed_dictionaries(
    {
        "device_id": st.sampled_from(["alice", "bob", "zed"]),
        "beacons": known_beacon_maps(st.floats(0.0, 40.0)),
        "time": TIMES,
    }
)
GOOD_FINGERPRINT = st.fixed_dictionaries(
    {
        "room": st.sampled_from(sorted(ROOM_BASES)),
        "beacons": beacon_maps(st.floats(-90.0, 40.0)),
        "time": TIMES,
    }
)


@st.composite
def one_bad_value(draw, values):
    """A beacon map with one bad value (or a non-string beacon id)."""
    beacons = draw(beacon_maps(st.floats(0.0, 40.0), min_size=0))
    key = draw(st.one_of(BEACON_ID, st.integers(0, 3)))
    return {**beacons, key: draw(values) if isinstance(key, str) else 1.0}


#: Per field of each row kind, how to make it bad; ``None`` drops it.
BAD_SIGHTING_FIELDS = {
    "device_id": st.one_of(BAD_TEXT, st.none()),
    "beacons": st.one_of(
        NOT_A_MAP,
        st.none(),
        # No beacon the building knows: empty, or unknown ids only.
        st.just({}),
        st.dictionaries(st.sampled_from(["b9", "zzz"]), st.floats(0.0, 40.0), min_size=1),
        one_bad_value(
            st.one_of(
                NON_FINITE,
                NOT_A_NUMBER,
                st.floats(-1e6, -1e-6),
                st.integers(-1000, -1),
            )
        ),
    ),
    "time": BAD_TIME,
}
BAD_FINGERPRINT_FIELDS = {
    "room": st.one_of(BAD_TEXT, st.none()),
    "beacons": st.one_of(
        NOT_A_MAP,
        st.none(),
        st.just({}),
        one_bad_value(st.one_of(NON_FINITE, NOT_A_NUMBER)),
    ),
    "time": BAD_TIME,
}


@st.composite
def corrupted(draw, good, bad_fields):
    """A good row with one field made bad, or dropped when it is required."""
    row = dict(draw(good))
    field = draw(st.sampled_from(sorted(bad_fields)))
    value = draw(bad_fields[field])
    if value is None and field != "time":
        del row[field]
    else:
        row[field] = value
    return row


@st.composite
def with_one_bad(draw, good, bad):
    rows = draw(st.lists(good, max_size=3))
    rows.insert(draw(st.integers(0, len(rows))), draw(bad))
    return rows


BAD_SIGHTING = corrupted(GOOD_SIGHTING, BAD_SIGHTING_FIELDS)
BAD_FINGERPRINT = corrupted(GOOD_FINGERPRINT, BAD_FINGERPRINT_FIELDS)
MALFORMED_POSTS = st.one_of(
    st.tuples(st.sampled_from(POST_ROUTES), NON_OBJECT),
    st.tuples(st.just("/sightings"), BAD_SIGHTING),
    st.tuples(
        st.just("/sightings/batch"),
        st.one_of(
            st.builds(dict, sightings=with_one_bad(GOOD_SIGHTING, BAD_SIGHTING)),
            st.builds(dict, sightings=NOT_ROWS),
            st.just({}),
        ),
    ),
    st.tuples(st.just("/fingerprints"), BAD_FINGERPRINT),
    st.tuples(
        st.just("/model/refresh"),
        st.one_of(
            st.builds(
                dict, fingerprints=with_one_bad(GOOD_FINGERPRINT, BAD_FINGERPRINT)
            ),
            st.builds(dict, fingerprints=NOT_ROWS),
            st.just({}),
        ),
    ),
)


@pytest.fixture(scope="module")
def live_servers(tmp_path_factory):
    """Each server once, with a WAL, stored state and (manual door) a queue."""
    base = tmp_path_factory.mktemp("servers")
    servers = {
        "single": single_store(base / "single"),
        "sharded": sharded_door(base / "sharded"),
        "sharded-manual": sharded_door(base / "manual", drain_policy="manual"),
    }
    for server in servers.values():
        calibrate(server)
        post(server, "/sightings", {"device_id": "alice", "beacons": near("lab")}, 1.0)
        batch = {"sightings": [{"device_id": "bob", "beacons": near("hall")}]}
        post(server, "/sightings/batch", batch, 1.0)
        server.record_history(1.0)
    assert servers["sharded-manual"].queue_depth() == 2
    return servers


@settings(max_examples=150, deadline=None)
@given(case=MALFORMED_POSTS)
def test_malformed_post_is_rejected_and_changes_nothing(live_servers, case):
    route, body = case
    for kind, server in live_servers.items():
        before = observed(server)
        response = post(server, route, body, time=2.0)
        assert response.status in (400, 409), (kind, route, body, response.body)
        assert observed(server) == before, (kind, route, body)


@settings(max_examples=100, deadline=None)
@given(rows=with_one_bad(GOOD_SIGHTING, BAD_SIGHTING))
def test_ingest_batch_with_a_bad_row_raises_and_changes_nothing(live_servers, rows):
    """``ingest_batch`` called directly, not through a route, is all or
    nothing: no row is stored, counted or logged (``observed`` holds the
    WAL's record count)."""
    server = live_servers["single"]
    before = observed(server)
    with pytest.raises(ValueError):
        server.ingest_batch(rows)
    assert observed(server) == before


#: Ingress-queue capacity of the row-cap property's doors.
QUEUE_MAXSIZE = 4


@pytest.fixture(scope="module")
def capped_doors(tmp_path_factory):
    """A door per drain policy, with a WAL and a small ingress queue."""
    base = tmp_path_factory.mktemp("capped")
    return {
        policy: calibrate(
            sharded_door(
                base / policy, drain_policy=policy, queue_maxsize=QUEUE_MAXSIZE
            )
        )
        for policy in ("immediate", "manual")
    }


@settings(max_examples=80, deadline=None)
@given(
    policy=st.sampled_from(["immediate", "manual"]),
    queued=st.integers(0, QUEUE_MAXSIZE),
    rows=st.integers(1, 3 * QUEUE_MAXSIZE),
)
def test_batch_that_can_never_fit_is_413_and_changes_nothing(
    capped_doors, policy, queued, rows
):
    """More rows for one shard than its queue holds is a 413 that
    queues, stores, logs and counts nothing, whatever is queued; a
    batch that fits an empty queue is accepted, or is a 429 while the
    queue is too full for it."""
    door = capped_doors[policy]
    door.drain()
    sighting = {"device_id": "dana", "beacons": near("lab"), "time": 3.0}
    for _ in range(queued):
        assert post(door, "/sightings", sighting, 3.0).status in (200, 202)
    before = observed(door)
    response = post(door, "/sightings/batch", {"sightings": [sighting] * rows}, 3.0)
    if rows > QUEUE_MAXSIZE:
        assert response.status == 413, response
        assert "retry_after_s" not in response.body
        assert observed(door) == before
    elif policy == "immediate":
        assert response.status == 200 and response.body["count"] == rows
    elif before["queued"] + rows > QUEUE_MAXSIZE:
        assert response.status == 429 and response.body["retry_after_s"] > 0
    else:
        assert response.status == 202


@pytest.fixture(scope="module")
def uncapped_store():
    return calibrate(single_store())


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 2 * PREDICT_BLOCK + 3))
def test_single_store_accepts_a_batch_of_any_size_whole(uncapped_store, rows):
    """The single store has no queue: any batch is accepted whole and
    labelled as one-row classifications would label it."""
    rooms = sorted(ROOM_BASES)
    batch = [
        {"device_id": f"row-{i}", "beacons": near(rooms[i % 3], 0.01 * (i % 7))}
        for i in range(rows)
    ]
    before = uncapped_store.sighting_count
    response = post(uncapped_store, "/sightings/batch", {"sightings": batch}, 4.0)
    assert response.status == 200 and response.body["count"] == rows
    assert uncapped_store.sighting_count == before + rows
    assert response.body["rooms"] == [
        uncapped_store.classify(row["beacons"]) for row in batch
    ]
