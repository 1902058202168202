"""Per-layer tracing from the benchmark's side.

The benchmark never edits ``src/``.  For the traced repetition it
replaces public functions and methods of each layer with wrappers that
record a span (name, layer, start, end, parent span, run id) in memory,
runs the repetition, and restores every original.  Hot leaf calls
(positions, energy charges) keep only a count and a self-time total.

A span's self time is its duration minus the time its child spans and
leaf calls took, so the self times of all spans and leaves plus the
root span's own remainder (``trace.unattributed_s``) add up exactly to
the traced wall time.  Wrappers must therefore be installed before the
objects they time are built: bound methods captured earlier would
escape them.  Calls made while no root span is open are not recorded,
so only the traced repetition's phases count.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: A hook sees (recorder, args, kwargs, result) of a successful call and
#: bumps the recorder's counters.
Hook = Callable[["SpanRecorder", tuple, dict, Any], None]


class SpanRecorder:
    """In-memory span store of one traced run.

    ``spans`` holds ``(span_id, parent_id, name, layer, start, end,
    child_s)`` tuples; ``leaves`` maps a leaf name to ``[layer, calls,
    self_s]``; ``counts`` holds the hook counters.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Tuple[int, Optional[int], str, str, float, float, float]] = []
        self.leaves: Dict[str, list] = {}
        self.counts: Dict[str, float] = {}
        # Open frames: [child_seconds, span_id].
        self.stack: List[list] = []
        self._next_id = 0

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def span(self, layer: str, name: str, fn: Callable, hook: Optional[Hook] = None):
        """Wrap ``fn`` so each call records one span."""
        recorder = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = recorder.stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = recorder._next_id
            recorder._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(recorder, args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                parent[0] += end - start
                recorder.spans.append(
                    (
                        span_id,
                        parent[1],
                        name,
                        layer,
                        start,
                        end,
                        frame[0],
                    )
                )

        return wrapped

    def leaf(self, layer: str, name: str, fn: Callable):
        """Wrap a hot call: a count and a self-time total, no span."""
        recorder = self
        agg = recorder.leaves.setdefault(name, [layer, 0, 0.0])

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = recorder.stack
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                agg[1] += 1
                agg[2] += elapsed - frame[0]

        return wrapped

    @contextlib.contextmanager
    def root(self, name: str = "trace.root"):
        """The run's root span (layer ``trace``); only calls inside it count."""
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((span_id, None, name, "trace", start, end, frame[0]))

    # ------------------------------------------------------------------
    def layer_self_times(self) -> Tuple[Dict[str, float], float, float]:
        """Per-layer self time, the root remainder and the root's wall."""
        busy: Dict[str, float] = {}
        wall = unattributed = 0.0
        for _, _, _, layer, start, end, child in self.spans:
            if layer == "trace":
                wall += end - start
                unattributed += end - start - child
                continue
            busy[layer] = busy.get(layer, 0.0) + (end - start - child)
        for layer, _, self_s in self.leaves.values():
            busy[layer] = busy.get(layer, 0.0) + self_s
        return busy, unattributed, wall

    def layer_calls(self) -> Dict[str, int]:
        """Layer -> calls recorded (spans and leaf calls)."""
        calls: Dict[str, int] = {}
        for _, _, _, layer, _, _, _ in self.spans:
            calls[layer] = calls.get(layer, 0) + 1
        for layer, count, _ in self.leaves.values():
            calls[layer] = calls.get(layer, 0) + count
        return calls

    def by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        out: Dict[str, list] = {}
        for _, _, name, _, start, end, child in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        for name, (_, calls, self_s) in self.leaves.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[2] += self_s
        return {name: tuple(v) for name, v in out.items()}

    def write_jsonl(self, path: Path) -> None:
        """Write every span (and the leaf totals) out, one JSON per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, name, layer, start, end, child in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "self_s": end - start - child,
                        }
                    )
                    + "\n"
                )
            for name, (layer, calls, self_s) in sorted(self.leaves.items()):
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "leaf": name,
                            "layer": layer,
                            "calls": calls,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )


class Patches:
    """Replace attributes and put the originals back, in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ----------------------------------------------------------------------
# Counting hooks
# ----------------------------------------------------------------------
def _hook_links(rec, args, kwargs, result):
    rec.count("radio.links", len(result.received))
    rec.count("radio.received", float(result.received.sum()))


def _hook_scan(rec, args, kwargs, result):
    rec.count("phone.cycles")
    rec.count("phone.received", result.received_count)
    rec.count("phone.surfaced", result.surfaced_count)


def _hook_app(rec, args, kwargs, result):
    if result is not None:
        rec.count("phone.reports")


def _counter(key: str) -> Hook:
    def hook(rec, args, kwargs, result):
        rec.count(key)

    return hook


def _hook_dispatch(rec, args, kwargs, result):
    rec.count("server.rest.requests")
    if not 200 <= result.status < 300:
        rec.count("server.rest.failed")
    if result.status == 429:
        rec.count("server.rest.rejected")


def _hook_drain(rec, args, kwargs, result):
    if result.count:
        rec.count("server.sharded.drains")
        rec.count("server.sharded.rows", result.count)


def _hook_ingest_sighting(rec, args, kwargs, result):
    rec.count("server.bms.ingest_calls")
    rec.count("server.bms.sightings")


def _hook_ingest_batch(rec, args, kwargs, result):
    rec.count("server.bms.ingest_calls")
    rec.count("server.bms.sightings", len(result))


def _hook_predict(rec, args, kwargs, result):
    rec.count("ml.predict_calls")
    rec.count("ml.predict_rows", len(result))


def _hook_refresh(rec, args, kwargs, result):
    stats = getattr(args[0], "refresh_stats_", {}) or {}
    refitted = float(stats.get("refitted_pairs", 0))
    reused = float(stats.get("reused_pairs", 0))
    rec.count("ml.refresh_refitted", refitted)
    rec.count("ml.refresh_pairs", refitted + reused)


def _hook_replay(rec, args, kwargs, result):
    report = result[1] if isinstance(result, tuple) else result
    rec.count("server.replay.records", report.records)
    rec.count("server.replay.sightings", report.sightings)


def install(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every timed public call of the pipeline's layers."""
    from repro.ble.air import AirInterface
    from repro.building.mobility import RandomWaypoint
    from repro.building.occupant import Occupant
    from repro.comms.bt_relay import BluetoothRelayUplink
    from repro.comms.uplink import Uplink
    from repro.core import calibration as core_calibration
    from repro.core import system as core_system
    from repro.energy.meter import EnergyMeter
    from repro.filters.tracker import BeaconTracker
    from repro.fleet import columnar
    from repro.ml.datasets import FingerprintVectorizer
    from repro.ml.scaling import StandardScaler
    from repro.ml.svm import SupportVectorClassifier
    from repro.phone.app import OccupancyApp
    from repro.phone.scanner import Scanner
    from repro.radio.channel import ChannelModel
    from repro.radio.shadowing import ShadowingField
    from repro.server import persistence, replay
    from repro.server.bms import BuildingManagementServer
    from repro.server.rest import Router
    from repro.server.sharded import ShardedBmsService
    from repro.sim.engine import Simulator
    from repro.traces.wal import SightingWal

    import pace
    import stream

    def span(owner, attr, layer, hook=None, name=None):
        label = name or f"{layer}.{attr}"
        patches.replace(owner, attr, lambda fn: recorder.span(layer, label, fn, hook))

    def leaf(owner, attr, layer):
        patches.replace(owner, attr, lambda fn: recorder.leaf(layer, f"{layer}.{attr}", fn))

    def sim_run_hook(rec, args, kwargs, result):
        rec.count("sim.events", args[0].events_processed)

    # sim: the event loop and the per-cycle glue it calls.
    span(core_system.OccupancyDetectionSystem, "run", "sim", name="sim.system_run")
    span(Simulator, "run", "sim", sim_run_hook)
    # building: trajectory queries (hot leaves).
    leaf(Occupant, "position_at", "building")
    leaf(Occupant, "room_at", "building")
    leaf(RandomWaypoint, "positions_at", "building")
    # radio, ble, phone, filters.
    span(ChannelModel, "link_budget_many", "radio", _hook_links)
    leaf(ShadowingField, "sample_many", "radio")
    span(AirInterface, "observe", "ble", _counter("ble.windows"))
    span(Scanner, "scan_cycle", "phone", _hook_scan)
    span(OccupancyApp, "run_cycle", "phone", _hook_app)
    span(BeaconTracker, "update", "filters", _counter("filters.updates"))
    # energy (hot leaves).
    for attr in ("charge_power", "charge_energy", "advance"):
        leaf(EnergyMeter, attr, "energy")
    # comms: both uplink implementations.
    span(Uplink, "queue_report", "comms", _counter("comms.reports"))
    span(Uplink, "flush", "comms")
    for owner in (Uplink, BluetoothRelayUplink):
        span(owner, "send_report", "comms", _counter("comms.requests"))
        span(owner, "send_batch", "comms", _counter("comms.requests"))
    # fleet.columnar: the vectorised drive.
    span(columnar, "run_columnar", "fleet.columnar")
    # server.rest: routing; the sharded front door's route handlers are
    # registered through Router.route and count as server.sharded.
    span(Router, "dispatch", "server.rest", _hook_dispatch)

    def route(original):
        def wrapped_route(self, method, pattern):
            register = original(self, method, pattern)

            def decorator(handler):
                if handler.__qualname__.startswith("ShardedBmsService."):
                    register(
                        recorder.span(
                            "server.sharded",
                            f"server.sharded.{handler.__name__}",
                            handler,
                        )
                    )
                    return handler
                return register(handler)

            return decorator

        return wrapped_route

    patches.replace(Router, "route", route)
    # server.sharded: drain, merged reads, fan-outs.
    span(ShardedBmsService, "drain", "server.sharded", _hook_drain)
    for attr in (
        "snapshot",
        "record_history",
        "merged_history",
        "refresh",
        "add_fingerprint",
        "train",
        "device_room",
        "device_room_at",
    ):
        span(ShardedBmsService, attr, "server.sharded")
    # server.bms: ingest, reads, history and the rest of its surface.
    span(BuildingManagementServer, "ingest_sighting", "server.bms", _hook_ingest_sighting,
         name="server.bms.ingest")
    span(BuildingManagementServer, "ingest_batch", "server.bms", _hook_ingest_batch,
         name="server.bms.ingest")
    span(BuildingManagementServer, "snapshot", "server.bms", _counter("server.bms.reads"),
         name="server.bms.read")
    for attr in ("device_room", "device_room_at"):
        span(BuildingManagementServer, attr, "server.bms",
             _counter("server.bms.reads"), name="server.bms.read")
    span(BuildingManagementServer, "record_history", "server.bms", name="server.bms.history")
    for attr in ("train", "refresh", "add_fingerprint"):
        span(BuildingManagementServer, attr, "server.bms")
    # ml.
    span(SupportVectorClassifier, "predict", "ml", _hook_predict, name="ml.predict")
    span(SupportVectorClassifier, "fit", "ml", name="ml.fit")
    span(SupportVectorClassifier, "refresh", "ml", _hook_refresh, name="ml.refresh")
    span(FingerprintVectorizer, "transform", "ml", name="ml.featurize")
    patches.replace(
        FingerprintVectorizer, "transform_one",
        lambda fn: recorder.leaf("ml", "ml.featurize", fn),
    )
    span(StandardScaler, "transform", "ml", name="ml.featurize")
    # traces.wal.
    for attr in ("append_sighting", "append_batch", "append_history_mark", "append_refresh"):
        span(SightingWal, attr, "traces.wal", _counter("traces.wal.records"),
             name="traces.wal.append")
    span(SightingWal, "flush", "traces.wal", name="traces.wal.append")
    span(SightingWal, "compact", "traces.wal", name="traces.wal.compact")
    # server.replay: module functions, looked up as globals by their
    # callers, so patching the module attribute reaches every call.
    span(replay, "replay_wal", "server.replay", _hook_replay)
    span(replay, "replay_sharded", "server.replay")
    span(replay, "server_from_manifest", "server.replay")
    # server.persistence (replay imported load_calibration by name).
    span(persistence, "save_calibration", "server.persistence")
    span(persistence, "load_calibration", "server.persistence")
    span(replay, "load_calibration", "server.persistence",
         name="server.persistence.load_calibration")
    # core: the calibration walk's own glue (the walk itself runs the
    # radio/ble/phone/filters stack, timed above).
    span(core_calibration, "run_calibration", "core", name="core.calibration")
    span(core_system, "run_calibration", "core", name="core.calibration")
    span(core_system.OccupancyDetectionSystem, "calibrate", "core", name="core.calibration")
    # loadgen: the open-loop generator's waits for due times.
    span(stream.OpenLoop, "wait_until", "loadgen", name="loadgen.wait")
    # pace: the benchmark's reference task, timed beside every phase.
    span(pace.Pace, "sample", "pace", name="pace.sample")
