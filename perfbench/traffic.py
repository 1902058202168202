"""Measure the traffic the program's uplinks send a BMS, for ``bms-stream``.

Usage, from the repository root (about 15 seconds)::

    python3 perfbench/traffic.py

Runs ``repro.fleet`` (the code behind ``python -m repro.fleet``) with 4
service shards, once per uplink the program ships: the paper's
per-report Bluetooth relay (``SystemConfig()``) and the fleet's batched
Wi-Fi and Bluetooth uplinks (``BatchPolicy(16, 10 s)``).  It counts the
requests the BMS router serves by path and rows, and the reads and
history marks the detection loop makes, per device and scan period.
``spec.py`` records the figures the stream is built from.
"""

from __future__ import annotations

import argparse
import collections
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (label, uplink, batch size): batch size 1 posts every report alone.
UPLINKS = (
    ("paper: bluetooth relay, per report", "bluetooth", 1),
    ("fleet: wifi, BatchPolicy(16, 10 s)", "wifi", 16),
    ("fleet: bluetooth relay, BatchPolicy(16, 10 s)", "bluetooth", 16),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/traffic.py")
    parser.add_argument("--devices", type=int, default=64)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.config import SystemConfig
    from repro.fleet.loadgen import FleetLoadGenerator
    from repro.server.rest import Router
    from repro.server.sharded import ShardedBmsService

    counts: collections.Counter = collections.Counter()

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            counts[key] += 1
            return fn(*a, **kw)

        return wrapped

    def dispatch(fn):
        @functools.wraps(fn)
        def wrapped(self, request):
            body = request.body if isinstance(request.body, dict) else {}
            rows = len(body.get("sightings", [])) if "sightings" in body else 1
            counts[f"{request.method} {request.path} x{rows}"] += 1
            return fn(self, request)

        return wrapped

    Router.dispatch = dispatch(Router.dispatch)
    for attr in ("device_room_at", "snapshot", "record_history"):
        setattr(ShardedBmsService, attr,
                counting(f"detection loop: {attr}", getattr(ShardedBmsService, attr)))
    periods = args.duration / SystemConfig().scan_period_s
    for label, uplink, batch_size in UPLINKS:
        counts.clear()
        report = FleetLoadGenerator(
            devices=args.devices,
            duration_s=args.duration,
            batch_size=batch_size,
            uplink=uplink,
            seed=args.seed,
            service_shards=4,
            columnar=True,
        ).run()
        print(f"{label}: {args.devices} devices x {periods:.0f} scan periods, "
              f"delivery {report.delivery_ratio:.4f}")
        for key, n in sorted(counts.items(), key=lambda kv: -kv[1]):
            print(f"  {key:<44} {n:>7}  {n / args.devices / periods:.3f} per device-period")
    return 0


if __name__ == "__main__":
    sys.exit(main())
