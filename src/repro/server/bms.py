"""The Building Management System server.

Implements the server of Section IV.B as an in-process component: it
ingests sighting reports from phones, stores calibration fingerprints,
trains the Scene Analysis classifier (SVM-RBF by default), answers
occupancy queries per device and per room, and exposes the whole thing
over the REST-like :class:`~repro.server.rest.Router` so the uplink
models can deliver real requests.  :class:`RoomModel` holds the
fingerprints and the fitted classifier, once for every store that
classifies with it; :func:`register_routes` is the route table, shared
with the sharded front door (:mod:`repro.server.sharded`), and
:func:`normalise_sighting` and :func:`normalise_fingerprint` validate
everything it accepts.
"""

from __future__ import annotations

import math
import numbers
from collections import abc
from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Sequence

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

__all__ = [
    "BuildingManagementServer",
    "OccupancySnapshot",
    "RoomModel",
    "normalise_fingerprint",
    "normalise_sighting",
    "register_routes",
]

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


def _beacon_values(beacons: Any, name: str, low: float) -> Dict[str, float]:
    """``beacons`` as ``{str: float}``, every value finite and >= ``low``."""
    if not isinstance(beacons, (dict, abc.Mapping)):
        raise ValueError(f"beacons must map beacon ids to numbers, got {beacons!r}")
    values = {}
    for beacon_id, value in beacons.items():
        if not isinstance(beacon_id, str):
            raise ValueError(f"beacon ids must be strings, got {beacon_id!r}")
        # Exact finite floats above ``low``, the common case, pass on
        # one chained comparison (NaN fails it); the rest take _real.
        values[beacon_id] = (
            value
            if type(value) is float and low < value < _INF
            else _real(value, name, low)
        )
    return values


def _mapping(report: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(report, (dict, abc.Mapping)):
        raise ValueError(f"{what} must be a JSON object, got {report!r}")
    return report


def normalise_sighting(
    report: Any, beacon_ids: AbstractSet[str], default_time: float = 0.0
) -> Dict[str, Any]:
    """Validate one sighting report into the row every layer stores.

    The row is ``{"device_id": str, "beacons": {str: float}, "time":
    float}``: a non-empty string device id, a mapping from beacon-id
    strings to finite non-negative distances, and a finite time
    (``default_time`` when the report has none).  Integers widen to
    floats; anything else — NaN, infinities, a negative distance, a
    non-number — is rejected, so storage, the WAL and replay all see
    one type per field and every stored device can expire.  The map
    must name at least one of the server's ``beacon_ids``: an empty
    map, or one of unknown ids only, could only be classified from an
    all-missing vector.  Unknown ids beside a known one are kept (the
    vectoriser ignores them).  Idempotent on its own output.

    Raises:
        ValueError: the report is malformed (the REST routes answer 400).
    """
    device_id = _mapping(report, "sighting").get("device_id")
    if not isinstance(device_id, str) or not device_id:
        raise ValueError(f"device_id must be a non-empty string, got {device_id!r}")
    beacons = _beacon_values(report.get("beacons"), "beacon distance", 0.0)
    if beacon_ids.isdisjoint(beacons):
        raise ValueError(
            f"sighting names none of the building's beacons, got {sorted(beacons)}"
        )
    time = report.get("time", default_time)
    if not (type(time) is float and -_INF < time < _INF):
        time = _real(time, "time")
    return {"device_id": device_id, "beacons": beacons, "time": time}


def normalise_fingerprint(
    fingerprint: Any, default_time: float = 0.0
) -> Dict[str, Any]:
    """Validate one calibration fingerprint into the row the store keeps.

    The row is ``{"room": str, "beacons": {str: float}, "time":
    float}``, checked and widened as :func:`normalise_sighting` does,
    except that the room must be a non-empty string, the beacon map
    must not be empty and values may be negative (RSSI-feature
    calibration stores dBm).

    Raises:
        ValueError: the fingerprint is malformed (the REST routes answer 400).
    """
    room = _mapping(fingerprint, "fingerprint").get("room")
    if not isinstance(room, str) or not room:
        raise ValueError(f"room must be a non-empty string, got {room!r}")
    beacons = _beacon_values(fingerprint.get("beacons"), "beacon value", -_INF)
    if not beacons:
        raise ValueError("fingerprint must contain at least one beacon")
    time = _real(fingerprint.get("time", default_time), "time")
    return {"room": room, "beacons": beacons, "time": time}


def _require_two_labels(labels: Sequence[str]) -> None:
    if len(labels) < 2:
        raise RuntimeError(f"need fingerprints for >= 2 labels, have {sorted(labels)}")


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


class RoomModel:
    """The calibration fingerprints and the room classifier fitted on them.

    It holds the fingerprint table, the vectoriser, the scaler, the
    classifier and the trained flag, so every fit and refit happens
    once however many stores classify with it: a
    :class:`BuildingManagementServer` builds its own, and the shards of
    a :class:`~repro.server.sharded.ShardedBmsService` share the door's.

    Args:
        beacon_ids: the building's installed beacons (feature space).
        classifier: any estimator with ``fit(X, y)``/``predict(X)``;
            defaults to the paper's SVM with RBF kernel.
        missing_value: vectoriser fill for unseen beacons.
        svm_c: box constraint of the default SVM.
        svm_gamma: RBF gamma of the default SVM.
    """

    def __init__(
        self,
        beacon_ids: List[str],
        *,
        classifier=None,
        missing_value: float = MISSING_DISTANCE_M,
        svm_c: float = 10.0,
        svm_gamma: float = 0.5,
    ) -> None:
        if not beacon_ids:
            raise ValueError("the building needs at least one beacon")
        self.db = Database()
        self.fingerprints = FingerprintStore(self.db)
        self.vectorizer = FingerprintVectorizer(beacon_ids, missing_value=missing_value)
        #: The beacon ids a sighting must name at least one of.
        self.known_beacons = frozenset(self.vectorizer.beacon_ids)
        self.scaler = StandardScaler()
        self.classifier = (
            classifier
            if classifier is not None
            else SupportVectorClassifier(c=svm_c, kernel=RbfKernel(gamma=svm_gamma))
        )
        self.trained = False

    def add_fingerprint(
        self, room: str, beacons: Mapping[str, float], time: float = 0.0
    ) -> int:
        """Store one calibration sample; returns its row id.

        A malformed sample (:func:`normalise_fingerprint`) is a ``ValueError``.
        """
        row = normalise_fingerprint({"room": room, "beacons": beacons, "time": time})
        return self.fingerprints.add(**row)

    def fit(self) -> float:
        """Fit the classifier on all stored fingerprints.

        Returns:
            Training-set accuracy (a sanity indicator, not the
            evaluation metric).

        Raises:
            RuntimeError: fewer than two labelled rooms stored.
        """
        data = self.fingerprints.dataset()
        _require_two_labels(data.classes)
        X, y, _ = data.to_matrix(self.vectorizer)
        if self._wants_scaling:
            X = self.scaler.fit_transform(X)
        self.classifier.fit(X, y)
        self.trained = True
        return float(np.mean(self.classifier.predict(X) == y))

    def check_refresh(
        self, fingerprints: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Validate a refresh's fingerprints into the rows :meth:`refit` takes.

        Raises:
            ValueError: a malformed row, or none at all.
            RuntimeError: the refresh would retrain on fewer than two
                labels.
        """
        rows = [normalise_fingerprint(fingerprint) for fingerprint in fingerprints]
        if not rows:
            raise ValueError("refresh needs at least one fingerprint")
        if not self._incremental:
            _require_two_labels(
                set(self.fingerprints.rooms() + [row["room"] for row in rows])
            )
        return rows

    def refit(
        self, rows: Sequence[Mapping[str, Any]], registry: MetricsRegistry
    ) -> Dict[str, Any]:
        """Store :meth:`check_refresh`'s rows and absorb them into the model.

        The rows are vectorised, pushed through the *frozen* scaler
        (refitting it would shift every previously learned feature,
        forfeiting the incremental path — the scaler keeps the
        statistics of the original calibration) and handed to the
        classifier's ``refresh`` fast path: Gram extension plus
        affected-pair refits, byte-identical to a cold fit on the
        concatenated scaled dataset.  Classifiers without ``refresh``
        (kNN, proximity, naive Bayes) fall back to a full :meth:`fit`,
        as does an untrained model.  The fast path's Gram-cache traffic
        is counted on ``registry``.

        Returns:
            A report dict: ``mode`` (``"refresh"`` or ``"retrain"``),
            ``added`` rows, and in refresh mode the classifier's
            refitted/reused pair counts.
        """
        incremental = self._incremental
        for row in rows:
            self.fingerprints.add(**row)
        if not incremental:
            self.fit()
            return {"mode": "retrain", "added": len(rows)}
        X_new = self.vectorizer.transform([row["beacons"] for row in rows])
        if self._wants_scaling:
            X_new = self.scaler.transform(X_new)
        y_new = np.asarray([row["room"] for row in rows])
        with gram_cache.observed(registry):
            self.classifier.refresh(X_new, y_new)
        stats = getattr(self.classifier, "refresh_stats_", {})
        return {
            "mode": "refresh",
            "added": len(rows),
            "refitted_pairs": int(stats.get("refitted_pairs", 0)),
            "reused_pairs": int(stats.get("reused_pairs", 0)),
        }

    @property
    def _incremental(self) -> bool:
        return self.trained and hasattr(self.classifier, "refresh")

    @property
    def _wants_scaling(self) -> bool:
        """Scale-sensitive classifiers get standardised features;
        classifiers that key on the raw missing-value sentinel (the
        proximity baseline) opt out via ``wants_scaling = False``."""
        return getattr(self.classifier, "wants_scaling", True)

    def classify(self, beacons: Mapping[str, float]) -> str:
        """Predict the room for one fingerprint: a 1-row :meth:`classify_batch`.

        Raises:
            RuntimeError: the classifier has not been trained.
        """
        return self.classify_batch([beacons])[0]

    def classify_batch(
        self, beacons_batch: Sequence[Mapping[str, float]]
    ) -> List[str]:
        """Predict rooms for many fingerprints with one model call.

        All fingerprints are vectorised into a single ``(N, d)``
        matrix, scaled once, and pushed through a single
        ``classifier.predict``.  Predictions are identical to calling
        :meth:`classify` per fingerprint.  The labels become ``str``
        in one conversion, whether the classifier answers with an
        array (the SVM) or a list.

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
        return np.asarray(self.classifier.predict(X), dtype=str).tolist()


class BuildingManagementServer:
    """BMS: a room model + live occupancy state.

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
        model: a :class:`RoomModel` shared with other stores (the
            sharded door's shards share one).  It then supplies the
            feature space and the classifier: ``beacon_ids`` must equal
            its own, and ``classifier``, ``missing_value``, ``svm_c``
            and ``svm_gamma`` must be left at their defaults.  By
            default the store builds its own from them.

    Raises:
        ValueError: no beacons, a non-positive ``device_timeout_s``, or
            a ``model`` passed with model settings that disagree with
            it.
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
        model: Optional[RoomModel] = None,
    ) -> None:
        if model is None:
            model = RoomModel(
                beacon_ids,
                classifier=classifier,
                missing_value=missing_value,
                svm_c=svm_c,
                svm_gamma=svm_gamma,
            )
        elif (
            list(beacon_ids) != model.vectorizer.beacon_ids
            or classifier is not None
            or (missing_value, svm_c, svm_gamma) != (MISSING_DISTANCE_M, 10.0, 0.5)
        ):
            raise ValueError(
                "a shared model supplies the feature space and the "
                "classifier: pass its beacon_ids and no classifier, "
                "missing_value, svm_c or svm_gamma"
            )
        if device_timeout_s <= 0.0:
            raise ValueError(f"device timeout must be positive, got {device_timeout_s}")
        self.model = model
        self.db = Database()
        self.db.create_table("sightings", ["time", "device_id", "beacons"])
        self.db.attach(model.db.table(FingerprintStore.TABLE))
        self.device_timeout_s = float(device_timeout_s)
        self.history = OccupancyHistory()
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
        register_routes(self)

    # ------------------------------------------------------------------
    # Core operations (also reachable over the REST router)
    # ------------------------------------------------------------------
    def add_fingerprint(
        self, room: str, beacons: Mapping[str, float], time: float = 0.0
    ) -> int:
        """Store one calibration sample (:meth:`RoomModel.add_fingerprint`)."""
        return self.model.add_fingerprint(room, beacons, time)

    def train(self) -> float:
        """Fit the classifier on all stored fingerprints (:meth:`RoomModel.fit`)."""
        return self.model.fit()

    def refresh(self, fingerprints: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
        """Absorb new calibration fingerprints without a cold refit.

        :meth:`RoomModel.refit` on the validated rows, then
        :meth:`book_refresh`.  All or nothing: a malformed row (or none
        at all) is a ``ValueError``, and a retrain that could not fit
        (fewer than two labels) a ``RuntimeError``, both raised before
        any row is stored.

        Args:
            fingerprints: mappings with ``room``, ``beacons`` and
                optional ``time`` keys, one per calibration sample.

        Returns:
            :meth:`RoomModel.refit`'s report.
        """
        rows = self.model.check_refresh(fingerprints)
        with self.obs.tracer.span("server.refresh", fingerprints=len(rows)):
            report = self.model.refit(rows, self.obs)
            self.book_refresh(rows, report)
        return report

    def book_refresh(
        self, rows: Sequence[Mapping[str, Any]], report: Mapping[str, Any]
    ) -> None:
        """Book one applied model refresh on this store: its
        ``server.refreshes`` count and its WAL ``refresh`` record."""
        self.obs.counter("server.refreshes").inc(mode=report["mode"])
        if self.wal is not None:
            self.wal.append_refresh(rows, self._now)

    def classify(self, beacons: Mapping[str, float]) -> str:
        """Predict the room for one fingerprint (:meth:`RoomModel.classify`)."""
        return self.model.classify(beacons)

    def classify_batch(
        self, beacons_batch: Sequence[Mapping[str, float]]
    ) -> List[str]:
        """Predict rooms for many fingerprints (:meth:`RoomModel.classify_batch`)."""
        return self.model.classify_batch(beacons_batch)

    @property
    def trained(self) -> bool:
        """Whether the model is trained."""
        return self.model.trained

    @property
    def fingerprints(self) -> FingerprintStore:
        """The model's calibration fingerprints."""
        return self.model.fingerprints

    @property
    def vectorizer(self) -> FingerprintVectorizer:
        """The model's vectoriser."""
        return self.model.vectorizer

    @property
    def scaler(self) -> StandardScaler:
        """The model's feature scaler."""
        return self.model.scaler

    @property
    def classifier(self):
        """The model's classifier."""
        return self.model.classifier

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
        before anything is stored, logged or counted.  The store has
        no ingress queue and no row cap: a batch of any size is
        accepted whole, and the classifier decides it in row blocks
        (:data:`repro.ml.svm.PREDICT_BLOCK` for the SVM).

        Args:
            sightings: mappings with ``device_id``, ``beacons`` and
                ``time`` keys (one per report; ``time`` defaults to 0).
                Reports are applied in order, so a device appearing
                twice ends up where its latest report (by time; the
                last one on a tie) puts it — exactly as if each report
                had been ingested individually.
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
        """Validate and classify every row, then log, then book.

        A row older than its device's last report (a late arrival,
        also after the device has expired) is stored, counted and
        logged like any other, but moves neither the device's room nor
        its last-seen time, so it can neither rewind the device, book
        an expired one again nor expire it early.  Equal times keep
        arrival order: the later row wins.
        """
        known = self.model.known_beacons
        rows = [normalise_sighting(sighting, known) for sighting in sightings]
        if not rows:
            return []
        if rooms is None:
            rooms = self.model.classify_batch([row["beacons"] for row in rows])
        else:
            if not self.model.trained:
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
        last_seen = self._device_last_seen
        for row, room in zip(rows, rooms):
            device_id, time = row["device_id"], row["time"]
            table.insert(row)
            self._c_sightings.inc(device=device_id)
            self._c_classifications.inc(room=room)
            if time >= last_seen.get(device_id, -_INF):
                self._device_rooms[device_id] = room
                last_seen[device_id] = time
            self._now = max(self._now, time)
        if not loose:
            self._c_batches.inc()
            self._h_batch_size.observe(float(len(rows)))
        self._g_devices.set(float(len(self._device_rooms)))
        return rooms

    def _expire_devices(self, now: float) -> None:
        """Drop the room of every device silent past the timeout.

        The device's last-seen time stays, so a report older than it
        that arrives after expiry is still late and books nothing.  The
        sweep walks only the devices that have a room.
        """
        cutoff = now - self.device_timeout_s
        last_seen = self._device_last_seen
        for device_id in [d for d in self._device_rooms if last_seen[d] < cutoff]:
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

    def merged_history(self) -> OccupancyHistory:
        """The occupancy history (one store: nothing to merge)."""
        return self.history

    def wals(self) -> List[Any]:
        """The attached write-ahead logs: none or one."""
        return [] if self.wal is None else [self.wal]

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
    # REST sighting handlers (the rest of the surface: register_routes)
    # ------------------------------------------------------------------
    def post_sighting(self, request: Request, params: Dict[str, str]):
        """``POST /sightings``: ingest one loose report."""
        body = _json_body(request)
        try:
            room = self.ingest_sighting(
                body.get("device_id"),
                body.get("beacons"),
                body.get("time", request.time),
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        except RuntimeError as exc:
            raise HttpError(409, str(exc)) from None
        return {"room": room}

    def post_sighting_batch(self, request: Request, params: Dict[str, str]):
        """``POST /sightings/batch``: ingest every report, all or nothing,
        whatever the batch size (:meth:`ingest_batch`)."""
        sightings = batch_sightings(request)
        try:
            rooms = self.ingest_batch(
                [
                    {"time": request.time, **s} if isinstance(s, dict) else s
                    for s in sightings
                ]
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        except RuntimeError as exc:
            raise HttpError(409, str(exc)) from None
        return {"rooms": rooms, "count": len(rooms)}


def _json_body(request: Request) -> Mapping[str, Any]:
    """A POST body: a JSON object, ``{}`` when there is none; else 400."""
    if request.body is not None and not isinstance(request.body, dict):
        raise HttpError(400, f"body must be a JSON object, got {request.body!r}")
    return request.body or {}


def batch_sightings(request: Request) -> List[Any]:
    """The non-empty ``sightings`` list of a batch post; else 400."""
    sightings = _json_body(request).get("sightings")
    if not isinstance(sightings, list) or not sightings:
        raise HttpError(400, "batch needs a non-empty 'sightings' list")
    return sightings


def register_routes(server) -> None:
    """Register the BMS REST surface (Section IV.B's Flask endpoints).

    One table for the single store and the sharded front door: each
    brings its ``router`` and its two sighting handlers, the one thing
    they do differently; every other route runs over operations both
    expose.  Malformed input (a non-object body too) is a 400.
    """
    route = server.router.route
    route("POST", "/sightings")(server.post_sighting)
    route("POST", "/sightings/batch")(server.post_sighting_batch)

    @route("POST", "/fingerprints")
    def post_fingerprint(request: Request, params: Dict[str, str]):
        body = _json_body(request)
        try:
            row_id = server.add_fingerprint(
                body.get("room"), body.get("beacons"), body.get("time", request.time)
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        return {"id": row_id}

    @route("POST", "/train")
    def post_train(request: Request, params: Dict[str, str]):
        try:
            return {"train_accuracy": server.train()}
        except RuntimeError as exc:
            raise HttpError(409, str(exc)) from None

    @route("GET", "/occupancy")
    def get_occupancy(request: Request, params: Dict[str, str]):
        snap = server.snapshot(request.time if request.time > 0 else None)
        return {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices}

    @route("GET", "/occupancy/<room>")
    def get_room(request: Request, params: Dict[str, str]):
        snap = server.snapshot(request.time if request.time > 0 else None)
        return {"room": params["room"], "count": snap.count(params["room"])}

    @route("GET", "/devices/<device_id>/location")
    def get_device(request: Request, params: Dict[str, str]):
        room = server.device_room(params["device_id"])
        if room is None:
            raise HttpError(404, f"unknown device {params['device_id']!r}")
        return {"device_id": params["device_id"], "room": room}

    @route("GET", "/history/<room>")
    def get_history(request: Request, params: Dict[str, str]):
        room, history = params["room"], server.merged_history()
        return {
            "room": room,
            "series": history.series(room),
            "peak": history.peak(room),
            "mean_occupancy": history.mean_occupancy(room),
            "utilisation": history.utilisation(room),
        }

    @route("POST", "/model/refresh")
    def post_refresh(request: Request, params: Dict[str, str]):
        fingerprints = _json_body(request).get("fingerprints")
        if not isinstance(fingerprints, list) or not fingerprints:
            raise HttpError(400, "refresh needs a non-empty 'fingerprints' list")
        try:
            return server.refresh(fingerprints)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        except RuntimeError as exc:
            raise HttpError(409, str(exc)) from None

    @route("GET", "/wal")
    def get_wal(request: Request, params: Dict[str, str]):
        described = [wal.describe() for wal in server.wals()]
        return {"attached": bool(described), "shards": described}

    @route("POST", "/wal/compact")
    def post_wal_compact(request: Request, params: Dict[str, str]):
        wals = server.wals()
        if not wals:
            raise HttpError(409, "no WAL attached")
        return {"compacted": [wal.compact() for wal in wals]}
