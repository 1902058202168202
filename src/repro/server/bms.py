"""The Building Management System server.

Implements the server of Section IV.B as an in-process component: it
ingests sighting reports from phones, stores calibration fingerprints,
trains the Scene Analysis classifier (SVM-RBF by default), answers
occupancy queries per device and per room, and exposes the whole thing
over the REST-like :class:`~repro.server.rest.Router` so the uplink
models can deliver real requests.
"""

from __future__ import annotations

import math
import numbers
from collections import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.ml import gram_cache
from repro.ml.datasets import FingerprintVectorizer, MISSING_DISTANCE_M
from repro.ml.kernels import RbfKernel
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SupportVectorClassifier
from repro.obs.metrics import MetricsRegistry
from repro.server.database import Database
from repro.server.fingerprints import FingerprintStore
from repro.server.history import OccupancyHistory
from repro.server.rest import HttpError, Request, Router

__all__ = ["BuildingManagementServer", "OccupancySnapshot", "normalise_sighting"]

#: A device that has not reported for this long is dropped from the
#: occupancy state (it left the building or its battery died).
DEFAULT_DEVICE_TIMEOUT_S = 30.0


_INF = math.inf


def _real(value: Any, name: str, low: Optional[float] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def normalise_sighting(report: Any, default_time: float = 0.0) -> Dict[str, Any]:
    """Validate one sighting report into the row every layer stores.

    The row is ``{"device_id": str, "beacons": {str: float}, "time":
    float}``: a non-empty string device id, a mapping from beacon-id
    strings to finite non-negative distances, and a finite time
    (``default_time`` when the report has none).  Integers widen to
    floats; anything else — NaN, infinities, a negative distance, a
    non-number — is rejected, so storage, the WAL and replay all see
    one type per field and every stored device can expire.
    Idempotent on its own output.

    Raises:
        ValueError: the report is malformed (the REST routes answer 400).
    """
    if not isinstance(report, (dict, abc.Mapping)) or "device_id" not in report:
        raise ValueError("sighting needs device_id and beacons")
    device_id, beacons = report["device_id"], report.get("beacons")
    if not isinstance(device_id, str) or not device_id:
        raise ValueError(f"device_id must be a non-empty string, got {device_id!r}")
    if not isinstance(beacons, (dict, abc.Mapping)):
        raise ValueError(f"beacons must map beacon ids to numbers, got {beacons!r}")
    distances = {}
    for beacon_id, value in beacons.items():
        if not isinstance(beacon_id, str):
            raise ValueError(f"beacon ids must be strings, got {beacon_id!r}")
        # Exact finite non-negative floats, the common case, pass on
        # one chained comparison (NaN fails it).
        distances[beacon_id] = (
            value
            if type(value) is float and 0.0 <= value < _INF
            else _real(value, "beacon distance", 0.0)
        )
    time = report.get("time", default_time)
    return {
        "device_id": device_id,
        "beacons": distances,
        "time": (
            time
            if type(time) is float and -_INF < time < _INF
            else _real(time, "time")
        ),
    }


@dataclass(frozen=True)
class OccupancySnapshot:
    """Occupancy state at one instant.

    Attributes:
        time: snapshot time, seconds.
        devices: device_id -> estimated room label.
        rooms: room label -> number of devices estimated there.
    """

    time: float
    devices: Dict[str, str]
    rooms: Dict[str, int]

    def count(self, room: str) -> int:
        """Estimated occupant count in ``room``."""
        return self.rooms.get(room, 0)

    @property
    def total_occupants(self) -> int:
        """Total devices currently placed in any room."""
        return sum(self.rooms.values())  # repro: noqa[numeric-dict-reduction] integer counts, order-free


class BuildingManagementServer:
    """BMS: fingerprint store + classifier + live occupancy state.

    Args:
        beacon_ids: the building's installed beacons (feature space).
        classifier: any estimator with ``fit(X, y)``/``predict(X)``;
            defaults to the paper's SVM with RBF kernel.
        missing_value: vectoriser fill for unseen beacons.
        device_timeout_s: drop devices silent for this long.
        svm_c: box constraint of the default SVM.
        svm_gamma: RBF gamma of the default SVM.
        registry: telemetry registry; defaults to a no-op one.
        wal: optional :class:`repro.traces.wal.SightingWal` the server
            writes through on every state-changing ingest operation
            (see :meth:`attach_wal`).
    """

    def __init__(
        self,
        beacon_ids: List[str],
        *,
        classifier=None,
        missing_value: float = MISSING_DISTANCE_M,
        device_timeout_s: float = DEFAULT_DEVICE_TIMEOUT_S,
        svm_c: float = 10.0,
        svm_gamma: float = 0.5,
        registry: Optional[MetricsRegistry] = None,
        wal=None,
    ) -> None:
        if not beacon_ids:
            raise ValueError("the building needs at least one beacon")
        if device_timeout_s <= 0.0:
            raise ValueError(f"device timeout must be positive, got {device_timeout_s}")
        self.db = Database()
        self.db.create_table("sightings", ["time", "device_id", "beacons"])
        self.fingerprints = FingerprintStore(self.db)
        self.vectorizer = FingerprintVectorizer(beacon_ids, missing_value=missing_value)
        self.scaler = StandardScaler()
        self.classifier = (
            classifier
            if classifier is not None
            else SupportVectorClassifier(c=svm_c, kernel=RbfKernel(gamma=svm_gamma))
        )
        self.device_timeout_s = float(device_timeout_s)
        self.history = OccupancyHistory()
        self.trained = False
        self._device_rooms: Dict[str, str] = {}
        self._device_last_seen: Dict[str, float] = {}
        self._now = 0.0
        self.obs = registry if registry is not None else MetricsRegistry()
        self._c_sightings = self.obs.counter("server.sightings")
        self._c_classifications = self.obs.counter("server.classifications")
        self._c_expired = self.obs.counter("server.expired_devices")
        self._c_batches = self.obs.counter("server.batches")
        self._h_batch_size = self.obs.histogram(
            "server.batch_size", buckets=(1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)
        )
        self._g_devices = self.obs.gauge("server.tracked_devices")
        self.wal = wal
        self.router = Router()
        # Request-level tracing: dispatches run in server.request spans
        # on the BMS registry's tracer (silent under a NullSink).
        self.router.tracer = self.obs.tracer
        self._register_routes()

    # ------------------------------------------------------------------
    # Core operations (also reachable over the REST router)
    # ------------------------------------------------------------------
    def add_fingerprint(
        self, room: str, beacons: Mapping[str, float], time: float = 0.0
    ) -> int:
        """Store one calibration sample; returns its row id."""
        return self.fingerprints.add(room, beacons, time)

    def train(self) -> float:
        """Fit the classifier on all stored fingerprints.

        Returns:
            Training-set accuracy (a sanity indicator, not the
            evaluation metric).

        Raises:
            RuntimeError: fewer than two labelled rooms stored.
        """
        data = self.fingerprints.dataset()
        if len(data.classes) < 2:
            raise RuntimeError(
                f"need fingerprints for >= 2 labels, have {data.classes}"
            )
        X, y, _ = data.to_matrix(self.vectorizer)
        if self._wants_scaling:
            X = self.scaler.fit_transform(X)
        self.classifier.fit(X, y)
        self.trained = True
        return float(np.mean(self.classifier.predict(X) == y))

    def refresh(self, fingerprints: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
        """Absorb new calibration fingerprints without a cold refit.

        The new rows are stored, vectorised, pushed through the
        *frozen* scaler (refitting it would shift every previously
        learned feature, forfeiting the incremental path — the scaler
        keeps the statistics of the original calibration) and handed
        to the classifier's ``refresh`` fast path: Gram extension plus
        affected-pair refits, byte-identical to a cold fit on the
        concatenated scaled dataset.  Classifiers without ``refresh``
        (kNN, proximity, naive Bayes) fall back to a full
        :meth:`train`, as does an untrained server.

        Args:
            fingerprints: mappings with ``room``, ``beacons`` and
                optional ``time`` keys, one per calibration sample.

        Returns:
            A report dict: ``mode`` (``"refresh"`` or ``"retrain"``),
            ``added`` rows, and in refresh mode the classifier's
            refitted/reused pair counts.
        """
        rows = []
        for fingerprint in fingerprints:
            room = str(fingerprint.get("room", ""))
            beacons = fingerprint.get("beacons") or {}
            if not room:
                raise ValueError("each fingerprint needs a room label")
            rows.append(
                {
                    "room": room,
                    "beacons": {str(k): float(v) for k, v in beacons.items()},
                    "time": float(fingerprint.get("time", 0.0)),
                }
            )
        if not rows:
            raise ValueError("refresh needs at least one fingerprint")
        with self.obs.tracer.span("server.refresh", fingerprints=len(rows)):
            for row in rows:
                self.add_fingerprint(row["room"], row["beacons"], row["time"])
            if self.trained and hasattr(self.classifier, "refresh"):
                X_new = self.vectorizer.transform([r["beacons"] for r in rows])
                if self._wants_scaling:
                    X_new = self.scaler.transform(X_new)
                y_new = np.asarray([r["room"] for r in rows])
                with gram_cache.observed(self.obs):
                    self.classifier.refresh(X_new, y_new)
                stats = getattr(self.classifier, "refresh_stats_", {})
                report = {
                    "mode": "refresh",
                    "added": len(rows),
                    "refitted_pairs": int(stats.get("refitted_pairs", 0)),
                    "reused_pairs": int(stats.get("reused_pairs", 0)),
                }
            else:
                self.train()
                report = {"mode": "retrain", "added": len(rows)}
            self.obs.counter("server.refreshes").inc(mode=report["mode"])
            if self.wal is not None:
                self.wal.append_refresh(rows, self._now)
        return report

    @property
    def _wants_scaling(self) -> bool:
        """Scale-sensitive classifiers get standardised features;
        classifiers that key on the raw missing-value sentinel (the
        proximity baseline) opt out via ``wants_scaling = False``."""
        return getattr(self.classifier, "wants_scaling", True)

    def classify(self, beacons: Mapping[str, float]) -> str:
        """Predict the room for one fingerprint.

        Raises:
            RuntimeError: the classifier has not been trained.
        """
        if not self.trained:
            raise RuntimeError("BMS classifier is not trained; call train()")
        row = self.vectorizer.transform_one(beacons).reshape(1, -1)
        if self._wants_scaling:
            row = self.scaler.transform(row)
        return str(self.classifier.predict(row)[0])

    def classify_batch(
        self, beacons_batch: Sequence[Mapping[str, float]]
    ) -> List[str]:
        """Predict rooms for many fingerprints with one model call.

        All fingerprints are vectorised into a single ``(N, d)``
        matrix, scaled once, and pushed through a single
        ``classifier.predict`` — the Gram matrix against the support
        vectors is computed once for the whole batch instead of once
        per row.  Predictions are identical to calling
        :meth:`classify` per fingerprint.

        Raises:
            RuntimeError: the classifier has not been trained.
        """
        if not self.trained:
            raise RuntimeError("BMS classifier is not trained; call train()")
        if not beacons_batch:
            return []
        X = self.vectorizer.transform(beacons_batch)
        if self._wants_scaling:
            X = self.scaler.transform(X)
        return [str(label) for label in self.classifier.predict(X)]

    def attach_wal(self, wal) -> None:
        """Write every future ingest through ``wal`` (``None`` detaches).

        Attaching starts durability from *now*: sightings, batches,
        history marks and refreshes are appended as they are applied,
        so :func:`repro.server.replay.replay_wal` can rebuild this
        server's state byte-identically after a crash.  Calibration
        fingerprints are not logged — persist them separately with
        :func:`repro.server.persistence.save_calibration`.
        """
        self.wal = wal

    def ingest_sighting(
        self,
        device_id: str,
        beacons: Mapping[str, float],
        time: float,
        *,
        room: Optional[str] = None,
    ) -> str:
        """Store one loose sighting report: a 1-row :meth:`ingest_batch`.

        It is logged as a WAL ``sighting`` record and, unlike a batch,
        does not count in ``server.batches``/``server.batch_size``.

        Args:
            device_id: reporting device.
            beacons: its beacon distance estimates.
            time: report time, seconds.
            room: pre-computed room label (replay classifies in
                vectorised chunks and hands each label back here);
                must equal what :meth:`classify` would return.

        Returns:
            The estimated room label for the device.

        Raises:
            ValueError: the report is malformed (see
                :func:`normalise_sighting`).
            RuntimeError: the classifier has not been trained.
        """
        report = {"device_id": device_id, "beacons": beacons, "time": time}
        return self._ingest([report], None if room is None else [room], loose=True)[0]

    def ingest_batch(
        self,
        sightings: Sequence[Mapping[str, Any]],
        *,
        rooms: Optional[Sequence[str]] = None,
    ) -> List[str]:
        """Store many sighting reports and classify them in one pass.

        All or nothing: every report is validated and classified
        before anything is stored, logged or counted.

        Args:
            sightings: mappings with ``device_id``, ``beacons`` and
                ``time`` keys (one per report; ``time`` defaults to 0).
                Reports are applied in order, so a device appearing
                twice ends up where its last report puts it — exactly
                as if each report had been ingested individually.
            rooms: pre-computed room labels, one per sighting (replay
                classifies in vectorised chunks and hands the labels
                back here, so the bookkeeping still happens exactly
                once, in order).  Must match what
                :meth:`classify_batch` would return.

        Returns:
            The estimated room labels, one per sighting, in order.

        Raises:
            ValueError: a report is malformed (see
                :func:`normalise_sighting`), or ``rooms`` has the
                wrong length.
            RuntimeError: the classifier has not been trained.
        """
        return self._ingest(sightings, rooms, loose=False)

    def _ingest(
        self,
        sightings: Sequence[Mapping[str, Any]],
        rooms: Optional[Sequence[str]],
        *,
        loose: bool,
    ) -> List[str]:
        """Validate and classify every row, then log, then book."""
        rows = [normalise_sighting(sighting) for sighting in sightings]
        if not rows:
            return []
        if rooms is None:
            rooms = self.classify_batch([row["beacons"] for row in rows])
        else:
            if not self.trained:
                raise RuntimeError("BMS classifier is not trained; call train()")
            if len(rooms) != len(rows):
                raise ValueError(
                    f"got {len(rooms)} precomputed rooms for {len(rows)} sightings"
                )
            rooms = [str(room) for room in rooms]
        if self.wal is not None:
            # One record per ingest: replay re-applies it through the
            # same method, so the batch counters rebuild exactly.
            if loose:
                self.wal.append_sighting(**rows[0])
            else:
                self.wal.append_batch(rows)
        table = self.db.table("sightings")
        for row, room in zip(rows, rooms):
            device_id = row["device_id"]
            table.insert(row)
            self._c_sightings.inc(device=device_id)
            self._c_classifications.inc(room=room)
            self._device_rooms[device_id] = room
            self._device_last_seen[device_id] = row["time"]
            self._now = max(self._now, row["time"])
        if not loose:
            self._c_batches.inc()
            self._h_batch_size.observe(float(len(rows)))
        self._g_devices.set(float(len(self._device_rooms)))
        return rooms

    def _expire_devices(self, now: float) -> None:
        cutoff = now - self.device_timeout_s
        for device_id in list(self._device_last_seen):
            if self._device_last_seen[device_id] < cutoff:
                del self._device_last_seen[device_id]
                del self._device_rooms[device_id]
                self._c_expired.inc(device=device_id)

    def snapshot(self, now: Optional[float] = None) -> OccupancySnapshot:
        """Current occupancy estimate (devices silent too long dropped)."""
        now = self._now if now is None else float(now)
        self._expire_devices(now)
        rooms: Dict[str, int] = {}
        for room in self._device_rooms.values():
            rooms[room] = rooms.get(room, 0) + 1
        return OccupancySnapshot(
            time=now, devices=dict(self._device_rooms), rooms=rooms
        )

    def record_history(self, now: Optional[float] = None) -> OccupancySnapshot:
        """Append the current snapshot to the occupancy history.

        Returns:
            The snapshot that was recorded.
        """
        snap = self.snapshot(now)
        self.history.record(snap.time, snap.rooms)
        if self.wal is not None:
            # Snapshots expire silent devices, so history marks are
            # state-changing and must replay at the same instant; log
            # the resolved time (``now=None`` resolves to the server
            # clock, which replay re-derives from earlier records).
            self.wal.append_history_mark(snap.time)
        return snap

    def device_room(self, device_id: str) -> Optional[str]:
        """Last estimated room of ``device_id``, or ``None``."""
        return self._device_rooms.get(device_id)

    def device_room_at(self, device_id: str, now: float) -> Optional[str]:
        """One device's estimate at ``now``, applying the silence timeout.

        Exactly ``snapshot(now).devices.get(device_id)`` — including
        the expiry side effect on devices silent past the timeout —
        but without building the full snapshot dictionaries, so a
        fleet-scale caller asking about M devices pays O(M) per sweep
        instead of O(M^2).
        """
        self._expire_devices(float(now))
        return self._device_rooms.get(device_id)

    @property
    def sighting_count(self) -> int:
        """Number of sighting reports stored."""
        return len(self.db.table("sightings"))

    @property
    def now(self) -> float:
        """Latest sighting time this server has seen (its local clock).

        The sharded front door takes the max across shards to build a
        globally consistent snapshot time.
        """
        return self._now

    # ------------------------------------------------------------------
    # REST interface (Section IV.B's Flask endpoints)
    # ------------------------------------------------------------------
    def _register_routes(self) -> None:
        @self.router.route("POST", "/fingerprints")
        def post_fingerprint(request: Request, params: Dict[str, str]):
            body = request.body or {}
            try:
                row_id = self.add_fingerprint(
                    body.get("room", ""), body.get("beacons", {}),
                    body.get("time", request.time),
                )
            except ValueError as exc:
                raise HttpError(400, str(exc))
            return {"id": row_id}

        @self.router.route("POST", "/train")
        def post_train(request: Request, params: Dict[str, str]):
            try:
                train_accuracy = self.train()
            except RuntimeError as exc:
                raise HttpError(409, str(exc))
            return {"train_accuracy": train_accuracy}

        # A report without a time takes the request's; ingest validates
        # the rest (normalise_sighting), and a ValueError is a 400.
        @self.router.route("POST", "/sightings")
        def post_sighting(request: Request, params: Dict[str, str]):
            body = request.body if isinstance(request.body, dict) else {}
            try:
                room = self.ingest_sighting(
                    body.get("device_id"),
                    body.get("beacons"),
                    body.get("time", request.time),
                )
            except ValueError as exc:
                raise HttpError(400, str(exc))
            except RuntimeError as exc:
                raise HttpError(409, str(exc))
            return {"room": room}

        @self.router.route("POST", "/sightings/batch")
        def post_sighting_batch(request: Request, params: Dict[str, str]):
            body = request.body or {}
            sightings = body.get("sightings")
            if not isinstance(sightings, list) or not sightings:
                raise HttpError(400, "batch needs a non-empty 'sightings' list")
            try:
                rooms = self.ingest_batch(
                    [
                        {"time": request.time, **s} if isinstance(s, dict) else s
                        for s in sightings
                    ]
                )
            except ValueError as exc:
                raise HttpError(400, str(exc))
            except RuntimeError as exc:
                raise HttpError(409, str(exc))
            return {"rooms": rooms, "count": len(rooms)}

        @self.router.route("GET", "/occupancy")
        def get_occupancy(request: Request, params: Dict[str, str]):
            snap = self.snapshot(request.time if request.time > 0 else None)
            return {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices}

        @self.router.route("GET", "/occupancy/<room>")
        def get_room(request: Request, params: Dict[str, str]):
            snap = self.snapshot(request.time if request.time > 0 else None)
            return {"room": params["room"], "count": snap.count(params["room"])}

        @self.router.route("GET", "/devices/<device_id>/location")
        def get_device(request: Request, params: Dict[str, str]):
            room = self.device_room(params["device_id"])
            if room is None:
                raise HttpError(404, f"unknown device {params['device_id']!r}")
            return {"device_id": params["device_id"], "room": room}

        @self.router.route("GET", "/history/<room>")
        def get_history(request: Request, params: Dict[str, str]):
            room = params["room"]
            return {
                "room": room,
                "series": self.history.series(room),
                "peak": self.history.peak(room),
                "mean_occupancy": self.history.mean_occupancy(room),
                "utilisation": self.history.utilisation(room),
            }

        @self.router.route("POST", "/model/refresh")
        def post_refresh(request: Request, params: Dict[str, str]):
            body = request.body or {}
            fingerprints = body.get("fingerprints")
            if not isinstance(fingerprints, list) or not fingerprints:
                raise HttpError(
                    400, "refresh needs a non-empty 'fingerprints' list"
                )
            try:
                return self.refresh(fingerprints)
            except (TypeError, ValueError) as exc:
                raise HttpError(400, str(exc))
            except RuntimeError as exc:
                raise HttpError(409, str(exc))

        @self.router.route("GET", "/wal")
        def get_wal(request: Request, params: Dict[str, str]):
            if self.wal is None:
                return {"attached": False}
            return {"attached": True, **self.wal.describe()}

        @self.router.route("POST", "/wal/compact")
        def post_wal_compact(request: Request, params: Dict[str, str]):
            if self.wal is None:
                raise HttpError(409, "no WAL attached")
            return {"compacted": self.wal.compact()}
