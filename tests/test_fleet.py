"""Tests for the fleet load generator (batched fleet-scale ingestion)."""

import pytest

from repro.building.presets import two_room_corridor
from repro.fleet import FleetLoadGenerator, FleetReport
from repro.obs import MemorySink, MetricsRegistry


def small_fleet(**kwargs):
    defaults = dict(
        devices=2,
        duration_s=30.0,
        batch_size=4,
        batch_delay_s=8.0,
        calibration_s=120.0,
        seed=1,
        plan=two_room_corridor(),
    )
    defaults.update(kwargs)
    return FleetLoadGenerator(**defaults)


@pytest.fixture(scope="module")
def fleet_report():
    return small_fleet().run()


class TestFleetLoadGenerator:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetLoadGenerator(devices=0)
        with pytest.raises(ValueError):
            FleetLoadGenerator(duration_s=0.0)

    def test_run_produces_report(self, fleet_report):
        assert isinstance(fleet_report, FleetReport)
        assert fleet_report.devices == 2
        assert fleet_report.reports_ingested > 0
        assert fleet_report.throughput_rps > 0.0
        assert 0.0 <= fleet_report.delivery_ratio <= 1.0
        assert fleet_report.energy_j_total > 0.0

    def test_batched_path_is_used(self, fleet_report):
        """The fleet must ingest through /sightings/batch: strictly
        fewer requests than reports."""
        assert fleet_report.batch_requests > 0
        assert fleet_report.requests_handled < fleet_report.reports_ingested
        assert fleet_report.mean_batch_size > 1.0

    def test_deterministic_given_seed(self, fleet_report):
        again = small_fleet().run()
        assert again == fleet_report

    def test_throughput_published_to_registry(self):
        registry = MetricsRegistry(sink=MemorySink())
        report = small_fleet(registry=registry).run()
        assert registry.gauge("fleet.devices").value == 2.0
        assert registry.gauge("fleet.throughput_rps").value == pytest.approx(
            report.throughput_rps
        )
        assert registry.gauge("fleet.reports_ingested").value == float(
            report.reports_ingested
        )

    def test_report_to_dict_roundtrips(self, fleet_report):
        payload = fleet_report.to_dict()
        assert payload["devices"] == fleet_report.devices
        assert payload["throughput_rps"] == fleet_report.throughput_rps
        assert set(payload) == {
            "devices",
            "duration_s",
            "reports_ingested",
            "batch_requests",
            "requests_handled",
            "throughput_rps",
            "mean_batch_size",
            "accuracy",
            "delivery_ratio",
            "energy_j_total",
        }

    def test_unbatched_fleet_posts_per_report(self):
        report = small_fleet(batch_size=1, seed=2).run()
        assert report.batch_requests == 0
        # One /sightings request per ingested report (plus none lost
        # here would still keep handled >= ingested).
        assert report.requests_handled >= report.reports_ingested


class TestServiceShards:
    """The sharded front door as a drop-in for the fleet's BMS."""

    def run_json(self, service_shards, **kwargs):
        import json

        generator = small_fleet(service_shards=service_shards, **kwargs)
        report = generator.run()
        snap = generator.last_occupancy
        return (
            json.dumps(report.to_dict(), sort_keys=True),
            json.dumps(
                {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices},
                sort_keys=True,
            ),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            small_fleet(service_shards=0)

    def test_sharded_service_matches_plain_store(self):
        assert self.run_json(None) == self.run_json(1)

    def test_report_and_occupancy_invariant_to_shard_count(self):
        assert self.run_json(1) == self.run_json(4)

    def test_last_occupancy_exposed_after_single_run(self):
        generator = small_fleet(service_shards=2)
        assert generator.last_occupancy is None
        generator.run()
        assert generator.last_occupancy is not None
        assert generator.last_occupancy.devices


class TestFleetWal:
    """Durable WAL runs: the directory rebuilds the exact live state."""

    def live_and_replayed(self, tmp_path, **kwargs):
        from repro.server.replay import server_from_manifest

        generator = small_fleet(wal_dir=str(tmp_path / "wal"), **kwargs)
        generator.run()
        server, report = server_from_manifest(tmp_path / "wal")
        return generator, server, report

    def test_wal_requires_unsharded_fleet(self):
        with pytest.raises(ValueError, match="unsharded"):
            small_fleet(devices=4, shards=2, wal_dir="/tmp/nope")

    @pytest.mark.parametrize("service_shards", [None, 2])
    def test_replay_recovers_snapshot_and_history(
        self, tmp_path, service_shards
    ):
        generator, server, report = self.live_and_replayed(
            tmp_path, service_shards=service_shards
        )
        live_snap = generator.last_occupancy
        snap = server.snapshot()
        assert (snap.time, snap.rooms, snap.devices) == (
            live_snap.time,
            live_snap.rooms,
            live_snap.devices,
        )
        history = server.merged_history()
        live_history = generator.last_history
        assert {r: history.series(r) for r in history.rooms()} == {
            r: live_history.series(r) for r in live_history.rooms()
        }
        assert report.sightings > 0

    def test_manifest_records_the_run_shape(self, tmp_path):
        from repro.server.replay import load_manifest

        self.live_and_replayed(tmp_path, service_shards=2)
        manifest = load_manifest(tmp_path / "wal")
        assert manifest["shards"] == 2
        assert manifest["seed"] == 1
        assert sorted((tmp_path / "wal").glob("shard-*")) == [
            tmp_path / "wal" / "shard-00",
            tmp_path / "wal" / "shard-01",
        ]
