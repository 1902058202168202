"""The sharded BMS ingestion service: a hash-routed front door.

The paper's Section IV.B server is one Flask process with one
in-memory store.  :class:`ShardedBmsService` takes that design to
production shape while keeping every request in-process:

- **K shards**: the service owns ``shards``
  :class:`~repro.server.bms.BuildingManagementServer` stores.
  Every device is pinned to one shard by a *stable* hash of its
  ``device_id`` (:func:`shard_for`), so a device's occupancy state
  always lives in exactly one store.  Requests that carry a
  ``building`` key route by the building instead (all devices of one
  building co-locate), optionally pinned explicitly through
  ``route_overrides``.
- **Bounded ingress queues**: every shard has a bounded queue in
  front of its :meth:`~repro.server.bms.BuildingManagementServer.ingest_batch`.
  A full queue rejects the request with **429** and a
  ``retry_after_s`` hint — explicit backpressure instead of
  unbounded memory growth.  :class:`~repro.server.client.BmsClient`
  and the :mod:`repro.comms` uplinks honor the hint with bounded
  retries.  A batch with more rows for one shard than its queue holds
  could never be accepted, so it is a **413**, with no hint.
- **Coalescing**: loose ``POST /sightings`` posts and incoming
  batches are packed per shard into ``coalesce_max``-sized batch
  ingests, so every drain rides the vectorised batch predict instead
  of the per-row loop.
- **One model, K books**: the door holds one
  :class:`~repro.server.bms.RoomModel` (the calibration fingerprints
  and the fitted classifier) that every shard classifies with, so
  ``train`` and ``refresh`` fit once whatever K is.  Each shard keeps
  its own occupancy state, WAL and ``server.*`` counters, and books
  every refresh in them.
- **Serial drain**: queues drain in-process, in shard order, and the
  *result* is invariant to the shard count (every shard classifies
  with the same model).  Throughput comes from coalescing, not from
  parallelism.
- **Merged reads**: ``GET /occupancy``, ``/history/<room>`` and
  telemetry fan out over all shards and merge — telemetry through
  the mergeable :meth:`~repro.obs.metrics.MetricsRegistry.state` /
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` protocol.

The service is a drop-in for the single-store BMS inside
:class:`~repro.core.system.OccupancyDetectionSystem`: it exposes the
same coordination surface (``router``, ``model``, ``device_timeout_s``,
``add_fingerprint``, ``train``, ``trained``, ``refresh``, ``snapshot``,
``record_history``, ``merged_history``, ``device_room``,
``device_room_at``, ``wals``),
and `FleetLoadGenerator(service_shards=K)` swaps it in for fleet runs.
Its REST surface is the store's table
(:func:`~repro.server.bms.register_routes`) with the door's two
sighting handlers, plus ``GET /shards`` and ``GET /telemetry``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ml.datasets import MISSING_DISTANCE_M
from repro.obs.metrics import MetricsRegistry
from repro.server.bms import (
    DEFAULT_DEVICE_TIMEOUT_S,
    BuildingManagementServer,
    OccupancySnapshot,
    RoomModel,
    batch_sightings,
    normalise_sighting,
    register_routes,
)
from repro.traces.wal import SightingWal
from repro.server.history import OccupancyHistory
from repro.server.rest import HttpError, Request, Response, Router

__all__ = ["DrainResult", "ShardedBmsService", "shard_for"]

#: Valid drain policies (when queued sightings are processed).
DRAIN_POLICIES = ("immediate", "watermark", "manual")


def shard_for(key: str, shards: int) -> int:
    """Stable shard index of a routing key.

    CRC-32 based, so the mapping survives process restarts and never
    depends on Python's salted ``hash()``.

    Raises:
        ValueError: ``shards < 1``.
    """
    if shards < 1:
        raise ValueError(f"need >= 1 shard, got {shards}")
    return zlib.crc32(key.encode("utf-8")) % shards


@dataclass(frozen=True)
class DrainResult:
    """Outcome of one queue drain.

    Attributes:
        entries: ``(seq, device_id, room)`` per processed sighting,
            sorted by the front-door sequence number — so the result
            is comparable across shard counts, where per-shard
            processing order differs but the global enqueue order does
            not.
    """

    entries: Tuple[Tuple[int, str, str], ...]

    @property
    def count(self) -> int:
        """Sightings processed by this drain."""
        return len(self.entries)

    def rooms_by_seq(self) -> Dict[int, str]:
        """seq -> estimated room, for response assembly."""
        return {seq: room for seq, _, room in self.entries}


class ShardedBmsService:
    """Hash-routed front door over K per-shard BMS instances.

    Args:
        beacon_ids: the building's installed beacons (feature space,
            shared by every shard).
        shards: number of BMS stores, each with its own occupancy book.
        classifier_factory: zero-argument callable building the
            shared model's classifier, called once; defaults to the
            SVM of ``svm_c``/``svm_gamma``.  Every shard classifies
            with that one model, so ingest results are identical
            across shard counts.
        missing_value: vectoriser fill for unseen beacons.
        device_timeout_s: drop devices silent for this long.
        svm_c / svm_gamma: default-SVM hyperparameters.
        registry: front-door telemetry registry (``server.shard.*``,
            ``server.backpressure.*``, ``server.frontdoor.*``).  Each
            shard keeps its *own* registry, chained to this one's
            clock; read them merged via :meth:`merged_telemetry`.
        queue_maxsize: bounded ingress-queue capacity per shard; a
            request that would overflow any target shard is rejected
            whole with 429, or with 413 when its rows for one shard
            exceed the capacity even of an empty queue.
        coalesce_max: maximum sightings per coalesced batch ingest.
        drain_policy: ``"immediate"`` drains the target shard after
            every accepted post (write-through — the drop-in mode for
            fleet runs), ``"watermark"`` drains a shard once its queue
            holds ``coalesce_max`` sightings, ``"manual"`` only drains
            on explicit :meth:`drain` calls.
        retry_after_s: the backpressure hint returned with 429s.
        route_overrides: building -> shard index pins, consulted
            before the hash for requests that carry a ``building``.
        wal_dir: optional directory for durable write-ahead logs; each
            shard writes through its own ``shard-NN`` sub-log (on its
            own registry), which :func:`repro.server.replay.replay_sharded`
            folds back into a fresh service shard by shard.
    """

    def __init__(
        self,
        beacon_ids: List[str],
        *,
        shards: int = 4,
        classifier_factory: Optional[Callable[[], Any]] = None,
        missing_value: float = MISSING_DISTANCE_M,
        device_timeout_s: float = DEFAULT_DEVICE_TIMEOUT_S,
        svm_c: float = 10.0,
        svm_gamma: float = 0.5,
        registry: Optional[MetricsRegistry] = None,
        queue_maxsize: int = 4096,
        coalesce_max: int = 256,
        drain_policy: str = "watermark",
        retry_after_s: float = 1.0,
        route_overrides: Optional[Mapping[str, int]] = None,
        wal_dir=None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need >= 1 shard, got {shards}")
        if queue_maxsize < 1:
            raise ValueError(f"queue_maxsize must be >= 1, got {queue_maxsize}")
        if coalesce_max < 1:
            raise ValueError(f"coalesce_max must be >= 1, got {coalesce_max}")
        if drain_policy not in DRAIN_POLICIES:
            raise ValueError(
                f"unknown drain policy {drain_policy!r}; pick from {DRAIN_POLICIES}"
            )
        if retry_after_s < 0.0:
            raise ValueError(f"retry_after_s must be >= 0, got {retry_after_s}")
        self.shards = int(shards)
        self.queue_maxsize = int(queue_maxsize)
        self.coalesce_max = int(coalesce_max)
        self.drain_policy = drain_policy
        self.retry_after_s = float(retry_after_s)
        self.route_overrides = dict(route_overrides or {})
        for building, index in self.route_overrides.items():
            if not 0 <= index < self.shards:
                raise ValueError(
                    f"route override {building!r} -> {index} outside "
                    f"[0, {self.shards})"
                )
        self.obs = registry if registry is not None else MetricsRegistry()
        #: The one room model every shard classifies with.
        self.model = RoomModel(
            beacon_ids,
            classifier=classifier_factory() if classifier_factory else None,
            missing_value=missing_value,
            svm_c=svm_c,
            svm_gamma=svm_gamma,
        )
        self.device_timeout_s = float(device_timeout_s)
        self._shards: List[BuildingManagementServer] = []
        for index in range(self.shards):
            shard_registry = MetricsRegistry(clock=self.obs.now)
            wal = (
                SightingWal(
                    Path(wal_dir) / f"shard-{index:02d}",
                    registry=shard_registry,
                )
                if wal_dir is not None
                else None
            )
            self._shards.append(
                BuildingManagementServer(
                    beacon_ids,
                    device_timeout_s=device_timeout_s,
                    registry=shard_registry,
                    wal=wal,
                    model=self.model,
                )
            )
        #: Per-shard ingress queues of (seq, normalised sighting).
        self._queues: List[List[Tuple[int, Dict[str, Any]]]] = [
            [] for _ in range(self.shards)
        ]
        self._seq = 0
        #: device_id -> shard it was last routed to (needed for reads
        #: when a building override moved it off its hash shard).
        self._device_shard: Dict[str, int] = {}
        # Front-door telemetry.  server.frontdoor.* mirrors the
        # single-store server.batches/batch_size semantics (one count
        # per arriving request, whatever the shard fan-out behind it),
        # so fleet reports stay invariant to the shard count.
        self._c_loose = self.obs.counter("server.frontdoor.sightings")
        self._c_batches = self.obs.counter("server.frontdoor.batches")
        self._h_batch_size = self.obs.histogram(
            "server.frontdoor.batch_size",
            buckets=(1.0, 4.0, 16.0, 64.0, 256.0, 1024.0),
        )
        self._c_enqueued = self.obs.counter("server.shard.enqueued")
        self._c_drained = self.obs.counter("server.shard.drained")
        self._c_coalesced = self.obs.counter("server.shard.coalesced_batches")
        self._g_depth = self.obs.gauge("server.shard.queue_depth")
        self._c_rejected = self.obs.counter("server.backpressure.rejected")
        self._c_rejected_sightings = self.obs.counter(
            "server.backpressure.rejected_sightings"
        )
        self.router = Router()
        self.router.tracer = self.obs.tracer
        self._register_routes()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_index_for(
        self, device_id: str, building: Optional[str] = None
    ) -> int:
        """The shard a sighting routes to.

        Precedence: explicit ``route_overrides[building]``, then the
        stable hash of ``building`` (co-locating a building's devices),
        then the stable hash of ``device_id``.
        """
        if building:
            override = self.route_overrides.get(building)
            if override is not None:
                return override
            return shard_for(str(building), self.shards)
        return shard_for(device_id, self.shards)

    def _read_shard_for(self, device_id: str) -> BuildingManagementServer:
        """The shard holding a device's state (honours past routing)."""
        index = self._device_shard.get(device_id)
        if index is None:
            index = shard_for(device_id, self.shards)
        return self._shards[index]

    # ------------------------------------------------------------------
    # Calibration surface: one model, booked on every shard
    # ------------------------------------------------------------------
    def add_fingerprint(
        self, room: str, beacons: Mapping[str, float], time: float = 0.0
    ) -> int:
        """Store one calibration sample in the shared model; returns its row id."""
        return self.model.add_fingerprint(room, beacons, time)

    def train(self) -> float:
        """Fit the shared model once, whatever the shard count.

        Returns:
            The training accuracy.
        """
        return self.model.fit()

    @property
    def trained(self) -> bool:
        """Whether the shared model is trained."""
        return self.model.trained

    def refresh(self, fingerprints: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
        """Refit the shared model once and book the refresh on every shard.

        The rows are validated once, before anything is stored, and
        absorbed by one :meth:`~repro.server.bms.RoomModel.refit`
        (its Gram-cache traffic counted on :attr:`obs`).  Every shard
        then books it (:meth:`~repro.server.bms.BuildingManagementServer.book_refresh`):
        its ``server.refreshes`` count and its own WAL refresh record,
        which :func:`repro.server.replay.replay_sharded` steps the shard
        logs by.

        Returns:
            The refit's report.
        """
        rows = self.model.check_refresh(fingerprints)
        with self.obs.tracer.span("server.refresh", fingerprints=len(rows)):
            report = self.model.refit(rows, self.obs)
            for shard in self._shards:
                shard.book_refresh(rows, report)
        return report

    def wals(self) -> List[SightingWal]:
        """The shards' attached write-ahead logs, in shard order."""
        return [shard.wal for shard in self._shards if shard.wal is not None]

    def close_wals(self) -> None:
        """Seal every shard's write-ahead log (no-op when none attached)."""
        for wal in self.wals():
            wal.close()

    def classify(self, beacons: Mapping[str, float]) -> str:
        """Predict the room for one fingerprint (the shared model)."""
        return self.model.classify(beacons)

    def classify_batch(
        self, beacons_batch: Sequence[Mapping[str, float]]
    ) -> List[str]:
        """Predict rooms for many fingerprints (the shared model)."""
        return self.model.classify_batch(beacons_batch)

    # ------------------------------------------------------------------
    # Ingestion pipeline
    # ------------------------------------------------------------------
    def queue_depth(self, shard: Optional[int] = None) -> int:
        """Sightings awaiting a drain (one shard, or all)."""
        if shard is not None:
            return len(self._queues[shard])
        return sum(len(queue) for queue in self._queues)

    def _capacity_error(self, shard_index: int, rejected: int) -> None:
        self._c_rejected.inc(shard=shard_index)
        self._c_rejected_sightings.inc(rejected, shard=shard_index)
        raise HttpError(
            429,
            f"shard {shard_index} ingress queue full "
            f"({self.queue_maxsize}); retry after {self.retry_after_s}s",
            extra={"retry_after_s": self.retry_after_s, "shard": shard_index},
        )

    def _enqueue(self, shard_index: int, sighting: Dict[str, Any]) -> int:
        """Append one normalised sighting; returns its sequence number."""
        seq = self._seq
        self._seq += 1
        self._queues[shard_index].append((seq, sighting))
        self._device_shard[sighting["device_id"]] = shard_index
        self._c_enqueued.inc(shard=shard_index)
        self._g_depth.set(float(len(self._queues[shard_index])), shard=shard_index)
        return seq

    def _pop_chunks(
        self, shard_index: int
    ) -> List[List[Tuple[int, Dict[str, Any]]]]:
        """Take a shard's whole queue, coalesced into bounded chunks."""
        queue = self._queues[shard_index]
        if not queue:
            return []
        self._queues[shard_index] = []
        return [
            queue[start : start + self.coalesce_max]
            for start in range(0, len(queue), self.coalesce_max)
        ]

    def _apply_chunks(
        self,
        shard_index: int,
        chunks: List[List[Tuple[int, Dict[str, Any]]]],
    ) -> List[Tuple[int, str, str]]:
        """Ingest a shard's coalesced chunks; returns (seq, device, room)."""
        shard = self._shards[shard_index]
        entries: List[Tuple[int, str, str]] = []
        for chunk in chunks:
            labels = shard.ingest_batch([sighting for _, sighting in chunk])
            self._c_coalesced.inc(shard=shard_index)
            self._c_drained.inc(float(len(chunk)), shard=shard_index)
            entries.extend(
                (seq, sighting["device_id"], label)
                for (seq, sighting), label in zip(chunk, labels)
            )
        self._g_depth.set(
            float(len(self._queues[shard_index])), shard=shard_index
        )
        return entries

    def drain(self, *, shard: Optional[int] = None) -> DrainResult:
        """Process queued sightings through the per-shard stores.

        Shards drain serially, in index order.

        Args:
            shard: drain only this shard (used by the write-through
                policies); default drains every shard.

        Returns:
            A :class:`DrainResult` with entries sorted by front-door
            sequence number — byte-identical across shard counts.
        """
        indices = range(self.shards) if shard is None else (shard,)
        entries: List[Tuple[int, str, str]] = []
        for i in indices:
            chunks = self._pop_chunks(i)
            if chunks:
                entries.extend(self._apply_chunks(i, chunks))
        entries.sort(key=lambda entry: entry[0])
        return DrainResult(entries=tuple(entries))

    # ------------------------------------------------------------------
    # Merged reads
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Latest sighting time seen by any shard."""
        return max(shard.now for shard in self._shards)

    def snapshot(self, now: Optional[float] = None) -> OccupancySnapshot:
        """Merged occupancy estimate across every shard.

        Devices are disjoint across shards (each routes to exactly
        one), so the merge is a union; per-room counts are recomputed
        from the union.  ``now`` defaults to the global latest
        sighting time so per-shard expiry applies one consistent
        cutoff — exactly the single-store behaviour.
        """
        resolved = self.now if now is None else float(now)
        devices: Dict[str, str] = {}
        for shard in self._shards:
            devices.update(shard.snapshot(resolved).devices)
        devices = dict(sorted(devices.items()))
        rooms: Dict[str, int] = {}
        for room in devices.values():
            rooms[room] = rooms.get(room, 0) + 1
        rooms = dict(sorted(rooms.items()))
        return OccupancySnapshot(time=resolved, devices=devices, rooms=rooms)

    def record_history(self, now: Optional[float] = None) -> OccupancySnapshot:
        """Record the current snapshot into every shard's history.

        Each shard records its local room counts at one shared
        timestamp; :meth:`merged_history` sums them back per time.

        Returns:
            The merged snapshot at that timestamp.
        """
        resolved = self.now if now is None else float(now)
        for shard in self._shards:
            shard.record_history(resolved)
        return self.snapshot(resolved)

    def merged_history(self) -> OccupancyHistory:
        """Per-room occupancy history summed across shards.

        All shards record at the same timestamps (fan-out from
        :meth:`record_history`), so the merge sums room counts per
        timestamp; statistics (peak, mean, utilisation) are computed
        on the summed series, matching the single-store numbers.
        """
        by_time: Dict[float, Dict[str, int]] = {}
        for shard in self._shards:
            for entry in shard.history._entries:
                rooms = by_time.setdefault(entry.time, {})
                for room, count in sorted(entry.rooms.items()):
                    rooms[room] = rooms.get(room, 0) + count
        merged = OccupancyHistory()
        for time in sorted(by_time):
            merged.record(time, dict(sorted(by_time[time].items())))
        return merged

    def device_room(self, device_id: str) -> Optional[str]:
        """Last estimated room of ``device_id``, or ``None``."""
        return self._read_shard_for(device_id).device_room(device_id)

    def device_room_at(self, device_id: str, now: float) -> Optional[str]:
        """One device's estimate at ``now`` (shard-local expiry applied)."""
        return self._read_shard_for(device_id).device_room_at(device_id, now)

    @property
    def sighting_count(self) -> int:
        """Sighting reports stored across every shard."""
        return sum(shard.sighting_count for shard in self._shards)

    # ------------------------------------------------------------------
    # Merged telemetry
    # ------------------------------------------------------------------
    def shard_telemetry_states(self) -> List[Dict[str, object]]:
        """Every shard registry's mergeable state, in shard order."""
        return [shard.obs.state() for shard in self._shards]

    def merge_telemetry_into(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Fold every shard's telemetry into ``registry`` (shard order).

        The front door's own ``server.shard.*`` / ``server.frontdoor.*``
        metrics already live on :attr:`obs`; this adds the per-shard
        ``server.*`` aggregates (sightings, classifications, batches).
        """
        for state in self.shard_telemetry_states():
            registry.merge(state)
        return registry

    def merged_telemetry(self) -> MetricsRegistry:
        """A fresh registry holding front-door + all-shard telemetry."""
        merged = MetricsRegistry()
        merged.merge(self.obs.state())
        return self.merge_telemetry_into(merged)

    # ------------------------------------------------------------------
    # REST front door
    # ------------------------------------------------------------------
    def _normalise_sighting(
        self, body: Any, default_time: float
    ) -> Tuple[int, Dict[str, Any]]:
        """Validate one sighting body; returns (shard index, sighting).

        Rows are validated here, at the door, so a malformed report is
        a 400 before it is queued — never a failure inside a later
        drain, which would drop the good rows queued beside it.
        """
        try:
            sighting = normalise_sighting(body, self.model.known_beacons, default_time)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        building = body.get("building")
        if building is not None and not isinstance(building, str):
            raise HttpError(400, f"building must be a string, got {building!r}")
        return self.shard_index_for(sighting["device_id"], building), sighting

    def _drain_after_enqueue(self, shard_indices: Sequence[int]) -> DrainResult:
        """Apply the drain policy after accepting new sightings."""
        if self.drain_policy == "manual":
            return DrainResult(entries=())
        entries: List[Tuple[int, str, str]] = []
        for index in sorted(set(shard_indices)):
            if (
                self.drain_policy == "immediate"
                or len(self._queues[index]) >= self.coalesce_max
            ):
                entries.extend(self.drain(shard=index).entries)
        entries.sort(key=lambda entry: entry[0])
        return DrainResult(entries=tuple(entries))

    # The rest of the surface is the store's table (register_routes).
    def post_sighting(self, request: Request, params: Dict[str, str]):
        """``POST /sightings``: the room once drained, else a 202 ticket."""
        shard_index, sighting = self._normalise_sighting(request.body, request.time)
        if not self.trained:
            raise HttpError(409, "BMS classifier is not trained; call train()")
        if len(self._queues[shard_index]) + 1 > self.queue_maxsize:
            self._capacity_error(shard_index, 1)
        self._c_loose.inc()
        seq = self._enqueue(shard_index, sighting)
        drained = self._drain_after_enqueue([shard_index])
        room = drained.rooms_by_seq().get(seq)
        if room is not None:
            return {"room": room, "shard": shard_index}
        return Response(202, {"queued": True, "shard": shard_index, "seq": seq})

    def post_sighting_batch(self, request: Request, params: Dict[str, str]):
        """``POST /sightings/batch``: the rooms once drained, else a 202.

        A batch whose rows for one shard exceed ``queue_maxsize`` can
        never be queued: it is a 413, before anything is queued or
        counted.  One that fits an empty queue but not the current one
        is a 429 with the retry hint.
        """
        routed = [
            self._normalise_sighting(sighting, request.time)
            for sighting in batch_sightings(request)
        ]
        if not self.trained:
            raise HttpError(409, "BMS classifier is not trained; call train()")
        # All-or-nothing capacity check: a partially accepted batch
        # would make the client's bounded retry re-send duplicates.
        incoming: Dict[int, int] = {}
        for shard_index, _ in routed:
            incoming[shard_index] = incoming.get(shard_index, 0) + 1
        for shard_index in sorted(incoming):
            if incoming[shard_index] > self.queue_maxsize:
                # Not backpressure: no retry could ever fit these rows.
                raise HttpError(
                    413,
                    f"{incoming[shard_index]} rows for shard {shard_index} "
                    f"exceed its ingress queue ({self.queue_maxsize})",
                )
        for shard_index in sorted(incoming):
            if (
                len(self._queues[shard_index]) + incoming[shard_index]
                > self.queue_maxsize
            ):
                self._capacity_error(shard_index, len(routed))
        self._c_batches.inc()
        self._h_batch_size.observe(float(len(routed)))
        seqs = [
            self._enqueue(shard_index, sighting)
            for shard_index, sighting in routed
        ]
        drained = self._drain_after_enqueue([index for index, _ in routed])
        rooms_by_seq = drained.rooms_by_seq()
        if all(seq in rooms_by_seq for seq in seqs):
            rooms = [rooms_by_seq[seq] for seq in seqs]
            return {"rooms": rooms, "count": len(rooms)}
        return Response(202, {"queued": len(seqs), "shards": sorted(incoming)})

    def _register_routes(self) -> None:
        register_routes(self)

        @self.router.route("GET", "/shards")
        def get_shards(request: Request, params: Dict[str, str]):
            return {
                "shards": self.shards,
                "drain_policy": self.drain_policy,
                "queue_maxsize": self.queue_maxsize,
                "queued": [len(queue) for queue in self._queues],
                "sightings": [shard.sighting_count for shard in self._shards],
            }

        @self.router.route("GET", "/telemetry")
        def get_telemetry(request: Request, params: Dict[str, str]):
            return {"metrics": self.merged_telemetry().snapshot()}
