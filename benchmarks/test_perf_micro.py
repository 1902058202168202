"""Micro-benchmarks of the hot paths (true timing benchmarks).

Unlike the figure benches (one-shot experiments), these measure the
throughput of the inner loops: packet codec, channel sampling, kernel
evaluation, SMO training and the end-to-end scan cycle.
"""

import numpy as np

from repro.ble.air import AirInterface
from repro.building.geometry import Point
from repro.building.mobility import StaticPosition
from repro.building.presets import BUILDING_UUID, test_house as make_test_house
from repro.ibeacon.packet import IBeaconPacket, decode_packet
from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.phone.scanner import AndroidScanner
from repro.radio.channel import ChannelModel
from repro.radio.devices import DEVICE_PROFILES


def test_perf_packet_roundtrip(benchmark):
    packet = IBeaconPacket(uuid=BUILDING_UUID, major=1, minor=7, tx_power=-59)

    def roundtrip():
        return decode_packet(packet.encode())

    assert benchmark(roundtrip) == packet


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
