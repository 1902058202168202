"""Micro-benchmarks of the hot paths (true timing benchmarks).

Unlike the figure benches (one-shot experiments), these measure the
throughput of the inner loops: packet codec, the advertising schedule,
channel sampling, kernel evaluation, SMO training, the end-to-end scan
cycle, and the server's small-batch decision and booking path.
"""

import copy
import itertools

import numpy as np
import pytest

from repro.ble.air import AirInterface
from repro.building.geometry import Point
from repro.building.mobility import RandomWaypoint, StaticPosition
from repro.building.occupant import Occupant
from repro.building.presets import BUILDING_UUID, test_house as make_test_house
from repro.core import OccupancyDetectionSystem, SystemConfig
from repro.fleet.columnar import ColumnarFleetDrive
from repro.ibeacon.packet import IBeaconPacket, decode_packet
from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.phone.scanner import AndroidScanner, surface_android, surfaced_mean
from repro.radio.channel import ChannelModel
from repro.radio.devices import DEVICE_PROFILES
from repro.server.rest import Request
from repro.sim.rng import derive_seed
from tests.advertiser_oracle import slot_times
from tests.smo_oracle import vote_predict


def test_perf_packet_roundtrip(benchmark):
    packet = IBeaconPacket(uuid=BUILDING_UUID, major=1, minor=7, tx_power=-59)

    def roundtrip():
        return decode_packet(packet.encode())

    assert benchmark(roundtrip) == packet


def _assert_schedule_is_per_slot(air, window):
    """Each advertiser's run of ``window`` equals the per-slot oracle."""
    for start, end, k in window.runs:
        adv = air.advertisers[k]
        expected = slot_times(
            window.t_start,
            window.t_end,
            adv.placement.advertising_interval_s,
            seed=adv.seed,
            phase_s=adv.phase_s,
        )
        assert window.times[start:end].tobytes() == np.array(expected).tobytes()


def test_perf_fresh_window_schedule(benchmark):
    """``AirInterface.schedule`` on test-house windows that advance by
    the scan period, as a drive sees them.

    No window repeats, so each call lays out its own columns and, every
    64 slots of a beacon, derives a new block of advDelay jitters
    (``test_perf_scan_cycle`` re-scans t = 0, where every jitter is a
    memo hit).
    """
    air = AirInterface(make_test_house(), ChannelModel(seed=2))
    period = SystemConfig().scan_period_s
    starts = itertools.count()

    def fresh_window():
        t_start = next(starts) * period
        return air.schedule(t_start, t_start + period)

    window = benchmark.pedantic(fresh_window, rounds=1000, warmup_rounds=10)
    assert [k for _, _, k in window.runs] == list(range(len(air.advertisers)))
    _assert_schedule_is_per_slot(air, window)
    # A window across the first block edge (slot 64 at 6.4 s).
    _assert_schedule_is_per_slot(air, air.schedule(6.0, 6.0 + period))


def test_perf_channel_sample(benchmark):
    """One phone's link budgets over one 2 s test-house window."""
    air = AirInterface(make_test_house(), ChannelModel(seed=1))
    window = air.schedule(0.0, 2.0)
    rx = np.tile([3.0, 2.5], (len(window.times), 1))
    rng = np.random.default_rng(0)
    device = DEVICE_PROFILES["s3_mini"]

    def sample():
        return air.channel.link_budget_many(
            window.tx_ids, window.tx, rx, window.tx_power_dbm, device, rng
        )

    batch = benchmark(sample)
    assert len(batch) == len(window.times) > 0


def test_perf_rbf_kernel(benchmark):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    kernel = RbfKernel(0.5)

    K = benchmark(kernel, X, X)
    assert K.shape == (200, 200)


def test_perf_svm_fit(benchmark):
    rng = np.random.default_rng(0)
    X = np.vstack(
        [rng.normal((0, 0), 0.7, (40, 2)), rng.normal((3, 0), 0.7, (40, 2)),
         rng.normal((0, 3), 0.7, (40, 2))]
    )
    y = np.array(["a"] * 40 + ["b"] * 40 + ["c"] * 40)

    def fit():
        return SupportVectorClassifier(c=5.0).fit(X, y)

    model = benchmark(fit)
    assert model.score(X, y) > 0.9


def test_perf_scan_cycle(benchmark):
    plan = make_test_house()
    air = AirInterface(plan, ChannelModel(seed=2))
    scanner = AndroidScanner(air, device="s3_mini", rng=np.random.default_rng(1))
    position = StaticPosition(Point(3.0, 2.5))

    def cycle():
        return scanner.scan_cycle(position, 0.0)

    result = benchmark(cycle)
    assert result.t_end == 2.0


@pytest.fixture(scope="module")
def fleet_drive():
    """A columnar drive over 64 test-house phones on the paper's config."""
    plan = make_test_house()
    system = OccupancyDetectionSystem(plan, SystemConfig())
    system.calibrate(duration_s=60.0)
    system.train()
    for i in range(64):
        mobility = RandomWaypoint(plan, seed=derive_seed(1, f"fleet:{i}"))
        system.add_occupant(Occupant(f"dev-{i:04d}", mobility))
    return ColumnarFleetDrive(system)


def test_perf_columnar_radio_pass(benchmark, fleet_drive):
    """One tick's radio pass for 64 test-house phones: the trajectory
    block, the RSSI draw over every phone's rows, Android surfacing and
    the cycle-mean gather.  A last pass is checked phone by phone
    against ``positions_at``, a one-row ``draw_rssi`` from a copy of
    the phone's stream and ``surfaced_mean``."""
    drive = fleet_drive
    channel = drive.system.channel
    t0 = 60.0
    window = drive.system.air.schedule(t0, t0 + drive.settings.listen_window_s)
    benchmark.pedantic(
        drive._radio_pass, args=(t0, window), rounds=200, warmup_rounds=5
    )
    scanners = [rt.phone.scanner for rt in drive.runtimes]
    streams = [copy.deepcopy(scanner.rng) for scanner in scanners]
    _, _, _, measured, mean = drive._radio_pass(t0, window)
    assert measured.any()
    for d, rt in enumerate(drive.runtimes):
        rx = rt.phone.occupant.mobility.positions_at(window.times)
        _, path_loss, walls, shadow = channel.seed_free_parts(
            window.tx_ids, window.tx, rx, window.tx_power_dbm
        )
        _, _, rssi, received = channel.draw_rssi(
            window.tx_power_dbm,
            path_loss[None],
            walls[None],
            shadow[None],
            scanners[d].device,
            [streams[d]],
        )
        picked = surface_android(received, window.times, window.advertiser, t0)
        for start, end, k in window.runs:
            values = rssi[0, start:end][picked[0, start:end]]
            col = drive._adv_col[k]
            assert measured[d, col] == (len(values) > 0)
            if len(values):
                assert repr(float(mean[d, col])) == repr(surfaced_mean(values))
        assert streams[d].random() == scanners[d].rng.random()


@pytest.fixture(scope="module")
def trained_store():
    """The BMS as the perfbench sims train it: the paper's config and a
    300 s calibration walk of the test house."""
    system = OccupancyDetectionSystem(make_test_house(), SystemConfig())
    system.calibrate(duration_s=300.0)
    system.train()
    return system.bms


def _oracle_rooms(store, fingerprints):
    """The per-machine vote loop's labels for ``fingerprints``."""
    model = store.model
    X = model.scaler.transform(model.vectorizer.transform(fingerprints))
    return vote_predict(model.classifier, X).tolist()


def _upload(store, rows):
    """``rows`` calibration fingerprints, shaped as uploaded sightings."""
    data = store.fingerprints.dataset()
    picks = np.random.default_rng(0).choice(len(data), size=rows, replace=False)
    return [dict(data.fingerprints[i]) for i in picks]


@pytest.mark.parametrize("rows", [1, 6])
def test_perf_classify_batch(benchmark, trained_store, rows):
    """``RoomModel.classify_batch`` on a 1-row and a 6-row upload."""
    fingerprints = _upload(trained_store, rows)
    rooms = benchmark(trained_store.model.classify_batch, fingerprints)
    assert rooms == _oracle_rooms(trained_store, fingerprints)


def test_perf_post_sighting_batch(benchmark, trained_store):
    """One 6-row ``POST /sightings/batch``: validation, the decision
    and the booking (the store keeps every row, so rounds are capped)."""
    fingerprints = _upload(trained_store, 6)
    body = {
        "sightings": [
            {"device_id": f"dev-{k:04d}", "beacons": fp, "time": 1.0}
            for k, fp in enumerate(fingerprints)
        ]
    }

    def post():
        return trained_store.router.dispatch(
            Request("POST", "/sightings/batch", body=body, time=1.0)
        )

    response = benchmark.pedantic(post, rounds=2000, warmup_rounds=20)
    assert response.status == 200
    assert response.body["rooms"] == _oracle_rooms(trained_store, fingerprints)
