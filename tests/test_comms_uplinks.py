"""Tests for the Wi-Fi and Bluetooth-relay uplinks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comms.bt_relay import BluetoothRelayUplink
from repro.comms.uplink import BatchPolicy
from repro.comms.wifi import WifiUplink
from repro.obs.events import SPAN_START
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink
from repro.obs.tracing import TraceContext
from repro.phone.app import RangedBeacon, SightingReport
from repro.server import BmsClient, BuildingManagementServer, ShardedBmsService
from repro.server.rest import Router

TRANSPORTS = pytest.mark.parametrize(
    "transport", [WifiUplink, BluetoothRelayUplink], ids=["wifi", "bt_relay"]
)


def report(time=1.0):
    return SightingReport(
        device_id="alice",
        time=time,
        beacons=[RangedBeacon("1-1", -60.0, 2.0, False)],
    )


def accepting_router():
    router = Router()

    @router.route("POST", "/sightings")
    def post(request, params):
        return {"room": "kitchen"}

    return router


class TestWifiUplink:
    def test_delivers_to_router(self):
        uplink = WifiUplink(accepting_router(), rng=np.random.default_rng(0))
        response = uplink.send_report(report())
        assert response is not None and response.ok
        assert uplink.stats.delivered == 1

    def test_energy_charged_per_message(self):
        uplink = WifiUplink(accepting_router(), rng=np.random.default_rng(0))
        uplink.send_report(report())
        assert uplink.stats.energy_j > 0.0

    def test_idle_power_positive(self):
        """Wi-Fi keeps the adapter on - the paper's complaint."""
        uplink = WifiUplink(accepting_router())
        assert uplink.IDLE_POWER_W > 0.0

    def test_charge_idle_accumulates(self):
        uplink = WifiUplink(accepting_router())
        energy = uplink.charge_idle(10.0)
        assert energy == pytest.approx(uplink.IDLE_POWER_W * 10.0)
        assert uplink.stats.energy_j == pytest.approx(energy)

    def test_charge_idle_rejects_negative(self):
        with pytest.raises(ValueError):
            WifiUplink(accepting_router()).charge_idle(-1.0)

    def test_loss_and_retry(self):
        uplink = WifiUplink(accepting_router(), rng=np.random.default_rng(0))
        # Instance attribute overrides the class constant.
        uplink.LOSS_PROBABILITY = 1.0
        assert uplink.send_report(report()) is None
        assert uplink.stats.failed == 1
        assert uplink.stats.retries == uplink.max_retries

    def test_delivery_ratio(self):
        uplink = WifiUplink(accepting_router(), rng=np.random.default_rng(1))
        for k in range(20):
            uplink.send_report(report(float(k)))
        assert uplink.stats.delivery_ratio > 0.9

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            WifiUplink(accepting_router(), max_retries=-1)


class TestBluetoothRelayUplink:
    def test_delivers_via_relay(self):
        router = accepting_router()
        uplink = BluetoothRelayUplink(router, rng=np.random.default_rng(0))
        response = uplink.send_report(report())
        assert response is not None and response.ok
        assert router.requests_handled == 1

    def test_no_idle_power(self):
        """BT connects on demand: no standing adapter cost."""
        assert BluetoothRelayUplink(accepting_router()).IDLE_POWER_W == 0.0

    def test_cheaper_per_message_than_wifi(self):
        router = accepting_router()
        wifi = WifiUplink(router)
        bt = BluetoothRelayUplink(router)
        size = 400
        assert bt.energy_per_message_j(size) < wifi.energy_per_message_j(size)

    def test_less_reliable_than_wifi(self):
        """Paper: BT less stable due to BLE Android API bugs."""
        assert (
            BluetoothRelayUplink.LOSS_PROBABILITY > WifiUplink.LOSS_PROBABILITY
        )

    def test_failed_attempts_still_cost_energy(self):
        uplink = BluetoothRelayUplink(accepting_router(), rng=np.random.default_rng(0))
        uplink.__dict__["LOSS_PROBABILITY"] = 1.0
        uplink.send_report(report())
        assert uplink.stats.energy_j > 0.0
        assert uplink.stats.delivered == 0

    def test_relay_leg_failure_counts_as_failed(self):
        uplink = BluetoothRelayUplink(accepting_router(), rng=np.random.default_rng(0))
        uplink.__dict__["RELAY_LOSS_PROBABILITY"] = 1.0
        assert uplink.send_report(report()) is None
        assert uplink.stats.failed == 1

    def test_long_run_delivery_ratio_reasonable(self):
        uplink = BluetoothRelayUplink(accepting_router(), rng=np.random.default_rng(3))
        for k in range(200):
            uplink.send_report(report(float(k)))
        # One retry on a 4 % loss channel: ~99.8 % delivery.
        assert uplink.stats.delivery_ratio > 0.97


def reports(n, device="alice"):
    return [
        SightingReport(
            device_id=device,
            time=float(k),
            beacons=[RangedBeacon("1-1", -60.0, 2.0, False)],
        )
        for k in range(n)
    ]


def batch_router():
    """Router accepting both the single and the batch sighting routes."""
    router = Router()

    @router.route("POST", "/sightings")
    def post(request, params):
        return {"room": "kitchen"}

    @router.route("POST", "/sightings/batch")
    def post_batch(request, params):
        sightings = request.body["sightings"]
        return {"rooms": ["kitchen"] * len(sightings), "count": len(sightings)}

    return router


class TestSendBatch:
    def test_batch_delivers_all_reports_in_one_request(self):
        router = batch_router()
        uplink = WifiUplink(router, rng=np.random.default_rng(0))
        response = uplink.send_batch(reports(8))
        assert response is not None and response.ok
        assert response.body["count"] == 8
        assert uplink.stats.delivered == 8
        assert router.requests_handled == 1

    def test_batch_energy_amortises_connection_cost(self):
        """N batched reports must cost less than N individual sends:
        the wake/connection energy is paid once per batch."""
        n = 16
        batched = WifiUplink(batch_router(), rng=np.random.default_rng(0))
        batched.send_batch(reports(n))
        individual = WifiUplink(batch_router(), rng=np.random.default_rng(0))
        for r in reports(n):
            individual.send_report(r)
        assert batched.stats.energy_j < individual.stats.energy_j
        # The saving is roughly (n - 1) wake energies.
        saved = individual.stats.energy_j - batched.stats.energy_j
        assert saved > (n - 2) * WifiUplink.BURST_ENERGY_J * 0.5

    def test_empty_batch_is_noop(self):
        uplink = WifiUplink(batch_router())
        assert uplink.send_batch([]) is None
        assert uplink.stats.attempts == 0

    def test_batch_loss_fails_all_reports(self):
        uplink = WifiUplink(batch_router(), rng=np.random.default_rng(0))
        uplink.LOSS_PROBABILITY = 1.0
        assert uplink.send_batch(reports(5)) is None
        assert uplink.stats.failed == 5
        assert uplink.stats.retries == uplink.max_retries

    def test_bt_relay_batch_uses_one_relay_request(self):
        router = batch_router()
        uplink = BluetoothRelayUplink(router, rng=np.random.default_rng(0))
        response = uplink.send_batch(reports(6))
        assert response is not None and response.ok
        assert router.requests_handled == 1
        assert uplink.stats.delivered == 6


class TestBatchPolicy:
    def test_queue_without_policy_sends_immediately(self):
        uplink = WifiUplink(batch_router(), rng=np.random.default_rng(0))
        response = uplink.queue_report(report())
        assert response is not None and response.ok
        assert uplink.pending_reports == 0

    def test_flush_at_max_size(self):
        uplink = WifiUplink(
            batch_router(),
            rng=np.random.default_rng(0),
            batch_policy=BatchPolicy(max_size=3, max_delay_s=1000.0),
        )
        assert uplink.queue_report(report(0.0)) is None
        assert uplink.queue_report(report(1.0)) is None
        response = uplink.queue_report(report(2.0))
        assert response is not None and response.body["count"] == 3
        assert uplink.pending_reports == 0

    def test_flush_at_max_delay(self):
        uplink = WifiUplink(
            batch_router(),
            rng=np.random.default_rng(0),
            batch_policy=BatchPolicy(max_size=100, max_delay_s=10.0),
        )
        assert uplink.queue_report(report(0.0)) is None
        assert uplink.queue_report(report(5.0)) is None
        response = uplink.queue_report(report(10.0))
        assert response is not None and response.body["count"] == 3

    def test_explicit_flush_drains_buffer(self):
        uplink = WifiUplink(
            batch_router(),
            rng=np.random.default_rng(0),
            batch_policy=BatchPolicy(max_size=100, max_delay_s=1000.0),
        )
        uplink.queue_report(report(0.0))
        uplink.queue_report(report(1.0))
        assert uplink.pending_reports == 2
        response = uplink.flush()
        assert response is not None and response.body["count"] == 2
        assert uplink.flush() is None  # idle flush is a no-op

    def test_discard_pending(self):
        uplink = WifiUplink(
            batch_router(),
            batch_policy=BatchPolicy(max_size=100, max_delay_s=1000.0),
        )
        uplink.queue_report(report(0.0))
        assert uplink.discard_pending() == 1
        assert uplink.pending_reports == 0
        assert uplink.stats.attempts == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_delay_s=-1.0)


def backpressured_router(reject_first_n, retry_after_s=0.5, refuse_with=None):
    """A router that 429s the first N dispatches, then accepts.

    Mirrors the sharded front door's backpressure wire format; records
    every dispatched request in ``router.seen`` so tests can check the
    retry's advanced logical time.  With ``refuse_with`` set, every
    dispatch after the 429s answers that status instead of accepting.
    """
    from repro.server.rest import HttpError

    router = Router()
    router.seen = []
    state = {"remaining": reject_first_n}

    def guard(request):
        router.seen.append(request)
        if state["remaining"] > 0:
            state["remaining"] -= 1
            raise HttpError(
                429,
                "ingress queue full",
                extra={"retry_after_s": retry_after_s, "shard": 0},
            )
        if refuse_with is not None:
            raise HttpError(refuse_with, "refused")

    @router.route("POST", "/sightings")
    def post(request, params):
        guard(request)
        return {"room": "kitchen"}

    @router.route("POST", "/sightings/batch")
    def post_batch(request, params):
        guard(request)
        return {
            "rooms": ["kitchen"] * len(request.body["sightings"]),
            "count": len(request.body["sightings"]),
        }

    return router


@TRANSPORTS
class TestUplinkBackpressure:
    def test_retry_honours_hint_then_delivers(self, transport):
        router = backpressured_router(reject_first_n=1, retry_after_s=0.5)
        uplink = transport(router, rng=np.random.default_rng(0))
        response = uplink.send_report(report(time=1.0))
        assert response is not None and response.ok
        assert uplink.stats.delivered == 1
        assert uplink.stats.retries == 1
        # The retry advanced the request's logical time by the hint.
        assert [r.time for r in router.seen] == [1.0, 1.5]
        snapshot = uplink.obs.snapshot()
        assert snapshot["uplink.backpressure_retries"]["value"] == 1.0
        assert snapshot["uplink.backpressure_dropped"]["value"] == 0.0

    def test_bounded_retries_then_drop(self, transport):
        router = backpressured_router(reject_first_n=10)
        uplink = transport(router, rng=np.random.default_rng(0))
        response = uplink.send_report(report(time=1.0))
        assert response is not None and response.status == 429
        assert uplink.stats.delivered == 0
        assert uplink.stats.failed == 1
        assert len(router.seen) == 1 + uplink.max_backpressure_retries
        snapshot = uplink.obs.snapshot()
        assert (
            snapshot["uplink.backpressure_retries"]["value"]
            == uplink.max_backpressure_retries
        )
        assert snapshot["uplink.backpressure_dropped"]["value"] == 1.0

    def test_batch_drop_counts_every_report(self, transport):
        router = backpressured_router(reject_first_n=10)
        uplink = transport(router, rng=np.random.default_rng(0))
        response = uplink.send_batch([report(1.0), report(2.0), report(3.0)])
        assert response is not None and response.status == 429
        assert uplink.stats.failed == 3
        snapshot = uplink.obs.snapshot()
        assert snapshot["uplink.backpressure_dropped"]["value"] == 3.0

    def test_backpressure_retries_cost_bytes_and_energy(self, transport):
        router = backpressured_router(reject_first_n=1)
        uplink = transport(router, rng=np.random.default_rng(0))
        uplink.send_report(report(time=1.0))
        baseline = transport(
            backpressured_router(reject_first_n=0),
            rng=np.random.default_rng(0),
        )
        baseline.send_report(report(time=1.0))
        assert uplink.stats.bytes_sent == 2 * baseline.stats.bytes_sent
        assert uplink.stats.energy_j > baseline.stats.energy_j

    def test_on_backpressure_seam_runs_before_each_retry(self, transport):
        router = backpressured_router(reject_first_n=1)
        uplink = transport(router, rng=np.random.default_rng(0))
        calls = []
        uplink.on_backpressure = lambda request, attempt: calls.append(
            (request.time, attempt)
        )
        uplink.send_report(report(time=1.0))
        assert calls == [(1.5, 1)]

    def test_zero_bound_drops_immediately(self, transport):
        router = backpressured_router(reject_first_n=10)
        uplink = transport(router, rng=np.random.default_rng(0))
        uplink.max_backpressure_retries = 0
        response = uplink.send_report(report(time=1.0))
        assert response.status == 429
        assert len(router.seen) == 1


@TRANSPORTS
class TestServerRefusal:
    """Only a 2xx answer books reports as delivered (regression: a 400,
    or a 409 from an untrained store, was booked delivered with
    nothing stored)."""

    @pytest.mark.parametrize("status", [400, 409])
    def test_refused_loose_post_is_failed(self, transport, status):
        uplink = transport(
            backpressured_router(0, refuse_with=status),
            rng=np.random.default_rng(0),
        )
        uplink.LOSS_PROBABILITY = 0.0
        response = uplink.send_report(report(1.0))
        assert response.status == status
        assert (uplink.stats.delivered, uplink.stats.failed) == (0, 1)
        failed = uplink.obs.counter("uplink.failed")
        assert failed.value == 1.0
        assert failed.value_for(
            leg="server", transport=uplink.TRANSPORT, device="alice"
        ) == 1.0

    def test_refused_batch_fails_every_report(self, transport):
        uplink = transport(
            backpressured_router(0, refuse_with=400),
            rng=np.random.default_rng(0),
        )
        uplink.LOSS_PROBABILITY = 0.0
        response = uplink.send_batch([report(1.0), report(2.0), report(3.0)])
        assert response.status == 400
        assert (uplink.stats.delivered, uplink.stats.failed) == (0, 3)
        snapshot = uplink.obs.snapshot()
        assert snapshot["uplink.delivered"]["value"] == 0.0
        assert snapshot["uplink.backpressure_dropped"]["value"] == 0.0

    @pytest.mark.parametrize("batch", [False, True])
    def test_untrained_store_409_is_failed(self, transport, batch):
        store = BuildingManagementServer(["1-1"])
        uplink = transport(store.router, rng=np.random.default_rng(0))
        uplink.LOSS_PROBABILITY = 0.0
        if batch:
            response = uplink.send_batch([report(1.0), report(2.0)])
        else:
            response = uplink.send_report(report(1.0))
        assert response.status == 409
        assert uplink.stats.delivered == 0
        assert uplink.stats.failed == uplink.stats.attempts
        assert store.sighting_count == 0


class ConstantClassifier:
    """Stub classifier answering the first trained room."""

    def fit(self, X, y):
        self.room = str(y[0])
        return self

    def predict(self, X):
        return [self.room] * len(X)


@TRANSPORTS
class TestTransportsAtTheDoor:
    """Both transports meet a real front door the same way (regression:
    the relay booked a 429 as delivered and sent no trace header)."""

    def test_full_queue_drops_the_second_loose_post(self, transport):
        door = ShardedBmsService(
            ["1-1"],
            shards=1,
            queue_maxsize=1,
            drain_policy="manual",
            classifier_factory=ConstantClassifier,
        )
        door.add_fingerprint("kitchen", {"1-1": 2.0})
        door.add_fingerprint("hall", {"1-1": 9.0})
        door.train()
        uplink = transport(door.router, rng=np.random.default_rng(0))
        uplink.LOSS_PROBABILITY = 0.0
        uplink.send_report(report(1.0))
        response = uplink.send_report(report(2.0))
        assert response.status == 429
        assert (uplink.stats.delivered, uplink.stats.failed) == (1, 1)
        assert uplink.stats.retries == 2
        snapshot = uplink.obs.snapshot()
        assert snapshot["uplink.backpressure_retries"]["value"] == 2.0
        assert snapshot["uplink.backpressure_dropped"]["value"] == 1.0

    def test_batch_that_can_never_fit_fails_without_retries(self, transport):
        door = ShardedBmsService(
            ["1-1"],
            shards=1,
            queue_maxsize=2,
            drain_policy="immediate",
            classifier_factory=ConstantClassifier,
        )
        door.add_fingerprint("kitchen", {"1-1": 2.0})
        door.add_fingerprint("hall", {"1-1": 9.0})
        door.train()
        uplink = transport(door.router, rng=np.random.default_rng(0))
        uplink.LOSS_PROBABILITY = 0.0
        response = uplink.send_batch(reports(3))
        assert response.status == 413
        assert (uplink.stats.delivered, uplink.stats.failed) == (0, 3)
        assert uplink.stats.retries == 0
        assert uplink.obs.counter("uplink.failed").value_for(
            leg="server", transport=uplink.TRANSPORT, device="alice"
        ) == 3.0
        assert door.sighting_count == 0

    def test_loose_post_span_parented_to_phone_span(self, transport):
        server = MetricsRegistry(sink=MemorySink())
        router = accepting_router()
        router.tracer = server.tracer
        phone = MetricsRegistry(sink=MemorySink())
        phone.tracer.adopt(TraceContext("t-uplink"), namespace="phone")
        uplink = transport(router, rng=np.random.default_rng(0), registry=phone)
        with phone.tracer.span("phone.cycle") as cycle:
            uplink.send_report(report())
        [start] = [
            event
            for event in server.events
            if event.name == "server.request" and event.kind == SPAN_START
        ]
        assert start.attrs["parent_id"] == phone.tracer.qualify(cycle.span_id)


probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 0.99))


@settings(max_examples=150, deadline=None)
@given(
    transport=st.sampled_from([WifiUplink, BluetoothRelayUplink]),
    batch=st.one_of(st.none(), st.integers(1, 5)),
    loss=probabilities,
    relay_loss=probabilities,
    max_retries=st.integers(0, 2),
    rejections=st.integers(0, 4),
    bp_retries=st.integers(0, 3),
    refusal=st.sampled_from([None, 400, 409]),
    seed=st.integers(0, 2**16),
)
def test_delivery_ledger_balances(
    transport,
    batch,
    loss,
    relay_loss,
    max_retries,
    rejections,
    bp_retries,
    refusal,
    seed,
):
    """Every report is delivered or failed once, on both send paths
    and both transports, whatever the radio, the relay, the 429s and
    the server's answer do; only a 2xx answer delivers."""
    router = backpressured_router(reject_first_n=rejections, refuse_with=refusal)
    uplink = transport(
        router, rng=np.random.default_rng(seed), max_retries=max_retries
    )
    uplink.LOSS_PROBABILITY = loss
    if uplink.RELAY_LOSS_PROBABILITY is not None:
        uplink.RELAY_LOSS_PROBABILITY = relay_loss
    uplink.max_backpressure_retries = bp_retries
    if batch is None:
        sent = [report(1.0)]
        response = uplink.send_report(sent[0])
        request = BmsClient.sighting_request(sent[0].to_sighting())
    else:
        sent = reports(batch)
        response = uplink.send_batch(sent)
        request = BmsClient.batch_request([r.to_sighting() for r in sent])

    stats = uplink.stats
    snapshot = uplink.obs.snapshot()

    def total(name):
        return snapshot[name]["value"]

    assert stats.attempts == len(sent) == stats.delivered + stats.failed
    assert total("uplink.reports") == stats.attempts
    assert total("uplink.delivered") == stats.delivered
    assert total("uplink.failed") == stats.failed
    assert (
        total("uplink.retries") + total("uplink.backpressure_retries")
        == stats.retries
    )
    # The first transmission plus one per radio or backpressure retry.
    transmissions = 1 + stats.retries
    assert stats.bytes_sent == transmissions * request.size_bytes
    assert total("uplink.bytes") == stats.bytes_sent
    assert stats.energy_j == pytest.approx(
        transmissions * uplink.energy_per_message_j(request.size_bytes)
    )
    if response is not None and response.status == 429:
        assert stats.delivered == 0
        assert total("uplink.backpressure_dropped") == len(sent)
    else:
        assert total("uplink.backpressure_dropped") == 0.0
        accepted = response is not None and 200 <= response.status < 300
        assert stats.delivered == (len(sent) if accepted else 0)
        if response is not None and not accepted:
            failed = uplink.obs.counter("uplink.failed")
            assert failed.value_for(
                leg="server", transport=uplink.TRANSPORT, device="alice"
            ) == len(sent)
