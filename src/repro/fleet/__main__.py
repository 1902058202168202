"""CLI for the fleet load generator.

Example::

    PYTHONPATH=src python -m repro.fleet --devices 8 --duration 120
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fleet.loadgen import FleetLoadGenerator
from repro.obs.export import write_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import WallClockProfiler
from repro.obs.sinks import MemorySink


def _write_occupancy(snap, path: str) -> None:
    """The canonical occupancy-snapshot JSON the CI smokes diff."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")


def _write_history(history, path: str) -> None:
    """Per-room ``(time, count)`` series as JSON (replay-smoke diffable)."""
    payload = {
        "rooms": {room: history.series(room) for room in history.rooms()},
        "entries": len(history),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_replay(args) -> int:
    """Rebuild the BMS from a fleet WAL directory (no simulation)."""
    from repro.server.replay import server_from_manifest

    profiler = WallClockProfiler()
    with profiler.measure("replay"):
        server, report = server_from_manifest(args.replay)
    wall_s = profiler.totals()["replay"]
    payload = report.as_dict()
    payload["wall_s"] = wall_s
    payload["realtime_factor"] = (
        report.span_s / wall_s if wall_s > 0 else float("inf")
    )
    if args.occupancy:
        _write_occupancy(server.snapshot(), args.occupancy)
    if args.history:
        _write_history(server.merged_history(), args.history)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"replay: {args.replay}")
    print(f"  records applied    {report.records}")
    print(f"  sightings          {report.sightings}")
    print(f"  batches            {report.batches}")
    print(f"  history marks      {report.history_marks}")
    print(f"  refreshes          {report.refreshes}")
    print(f"  log span           {report.span_s:.0f} sim-s")
    print(f"  wall time          {wall_s:.3f} s")
    print(f"  realtime factor    {payload['realtime_factor']:.0f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Drive M simulated devices against one BMS and "
        "report batched-ingestion throughput.",
    )
    parser.add_argument("--devices", type=int, default=8, help="fleet size")
    parser.add_argument(
        "--duration", type=float, default=120.0, help="run span, sim seconds"
    )
    parser.add_argument(
        "--batch-size", type=int, default=16,
        help="uplink flush threshold (1 = per-report uploads)",
    )
    parser.add_argument(
        "--batch-delay", type=float, default=10.0,
        help="max holding delay of a buffered report, sim seconds",
    )
    parser.add_argument(
        "--uplink", choices=("wifi", "bluetooth"), default="wifi"
    )
    parser.add_argument(
        "--calibration", type=float, default=300.0,
        help="operator calibration walk span, sim seconds",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size; with --shards pinned it affects wall "
        "clock only, never the result (an unset --shards follows it)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="independent sub-fleets to split the devices into "
        "(default: one per worker; pin this when comparing worker counts)",
    )
    parser.add_argument(
        "--service-shards", type=int, default=None,
        help="run the BMS as a sharded front door with this many "
        "per-shard stores (results are byte-identical across shard "
        "counts; default: the plain single-store server)",
    )
    parser.add_argument(
        "--wal", metavar="DIR", default=None,
        help="write a durable sighting WAL (plus manifest and "
        "calibration) into this directory, making the run "
        "recoverable with --replay (requires --shards 1; "
        "--service-shards composes, one sub-log per store shard)",
    )
    parser.add_argument(
        "--replay", metavar="DIR", default=None,
        help="skip the simulation: rebuild the BMS from a --wal "
        "directory and report the recovered state (combine with "
        "--occupancy/--history to diff against the live run)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--occupancy", metavar="PATH", default=None,
        help="write the final merged occupancy snapshot as JSON here "
        "(single-system runs only; the CI shard-invariance smoke "
        "diffs it across --service-shards values)",
    )
    parser.add_argument(
        "--history", metavar="PATH", default=None,
        help="write the per-room occupancy-history series as JSON here "
        "(single-system runs and --replay; the CI replay smoke "
        "diffs recovered history against the live run's)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record telemetry and write the merged event log (JSONL) "
        "here; render it with `python -m repro.obs.report PATH --flame`",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect a wall-clock profile of the hot paths and print "
        "the per-phase table (never affects the simulated result)",
    )
    parser.add_argument(
        "--columnar", action="store_true",
        help="drive the detection phase with the struct-of-arrays fleet "
        "engine (byte-identical reports, much faster per device)",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        if args.wal is not None:
            print("--replay and --wal are mutually exclusive", file=sys.stderr)
            return 2
        return _run_replay(args)

    registry = MetricsRegistry(sink=MemorySink()) if args.trace else None
    generator = FleetLoadGenerator(
        devices=args.devices,
        duration_s=args.duration,
        batch_size=args.batch_size,
        batch_delay_s=args.batch_delay,
        uplink=args.uplink,
        calibration_s=args.calibration,
        seed=args.seed,
        registry=registry,
        shards=args.shards,
        workers=args.workers,
        profile=args.profile,
        columnar=args.columnar,
        service_shards=args.service_shards,
        wal_dir=args.wal,
    )
    report = generator.run()
    if args.trace:
        write_jsonl(registry.events, args.trace)
    if args.occupancy:
        if generator.last_occupancy is None:
            print(
                "--occupancy needs a single-system run (--shards 1)",
                file=sys.stderr,
            )
            return 2
        _write_occupancy(generator.last_occupancy, args.occupancy)
    if args.history:
        if generator.last_history is None:
            print(
                "--history needs a single-system run (--shards 1)",
                file=sys.stderr,
            )
            return 2
        _write_history(generator.last_history, args.history)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        if args.profile:
            # Keep stdout pure JSON for piped consumers.
            print(report.profile_table(), file=sys.stderr)
        return 0
    print(f"fleet: {report.devices} devices, {report.duration_s:.0f}s sim")
    print(f"  reports ingested   {report.reports_ingested}")
    print(f"  batch requests     {report.batch_requests}")
    print(f"  mean batch size    {report.mean_batch_size:.1f}")
    print(f"  router requests    {report.requests_handled}")
    print(f"  throughput         {report.throughput_rps:.2f} reports/sim-s")
    print(f"  delivery ratio     {report.delivery_ratio:.1%}")
    print(f"  accuracy           {report.accuracy:.1%}")
    print(f"  fleet energy       {report.energy_j_total:.1f} J")
    if args.profile:
        print()
        print(report.profile_table())
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
