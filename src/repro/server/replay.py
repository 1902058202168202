"""Deterministic BMS state recovery from the sighting WAL.

Crash recovery for the occupancy pipeline: the WAL
(:mod:`repro.traces.wal`) holds every state-changing operation the
live server applied, in apply order, so folding it back through the
same ingest code rebuilds the occupancy state *byte for byte* —
snapshots, merged history, sighting counts, and the ``server.*``
telemetry counters all come out equal to the live run's.

The fold is one loop over one record shape: consecutive
``sighting``/``batch`` records gather into runs of up to about
:data:`REPLAY_CHUNK` rows, each run is classified through
``classify_batch`` in chunks of at most that many rows (one Gram
against the support-vector bank per chunk instead of one per
report), and each record is then applied with its labels through the
method that applied it live — ``ingest_sighting(room=...)`` or
``ingest_batch(rooms=...)`` — so storage, counters and occupancy
state book exactly as they did live.  History marks and refreshes end
a run and apply in place.  Chunking is invisible to the result: the
batch predict path is pinned row-pure, so the chunk size only moves
the wall clock (the replay benchmark holds it at or above 90x
real time).

A sharded service's shards classify with one model, so
:func:`replay_sharded` folds the shard logs in lockstep: each log is
cut at its refresh records, the segments before refresh ``i`` fold
shard by shard through the same fold, and refresh ``i`` then refits
the model once and books on every shard.  The WAL format does not
change: every shard still logs its own refresh record.

A WAL directory written by the fleet driver additionally carries a
``manifest.json`` (server construction parameters) and a
``calibration.json`` (:func:`repro.server.persistence.save_calibration`
at initial-train time), so :func:`server_from_manifest` can rebuild
the server from nothing but the directory.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.server.bms import BuildingManagementServer
from repro.server.persistence import load_calibration
from repro.server.sharded import ShardedBmsService
from repro.traces.wal import SIGHTING_KINDS, WalRecord, read_wal_records

__all__ = [
    "ReplayReport",
    "load_manifest",
    "replay_sharded",
    "replay_wal",
    "server_from_manifest",
    "write_manifest",
]

PathLike = Union[str, Path]

#: Fleet WAL-directory layout: construction parameters + calibration.
MANIFEST_NAME = "manifest.json"
CALIBRATION_NAME = "calibration.json"
MANIFEST_FORMAT = 1

#: Sighting rows classified per vectorised replay chunk.
REPLAY_CHUNK = 256


@dataclass(frozen=True)
class ReplayReport:
    """What a replay applied.

    Attributes:
        records: WAL records applied.
        sightings: individual sighting reports re-ingested (from both
            loose-sighting and batch records).
        batches: batch records re-ingested.
        history_marks: occupancy-history marks re-applied.
        refreshes: online model refreshes re-applied.
        first_time: earliest record time, or ``None`` for an empty log.
        last_time: latest record time, or ``None`` for an empty log.
    """

    records: int
    sightings: int
    batches: int
    history_marks: int
    refreshes: int
    first_time: Optional[float]
    last_time: Optional[float]

    @property
    def span_s(self) -> float:
        """Simulated seconds the log covers (0 for empty logs)."""
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (for the fleet CLI)."""
        return {
            "records": self.records,
            "sightings": self.sightings,
            "batches": self.batches,
            "history_marks": self.history_marks,
            "refreshes": self.refreshes,
            "first_time": self.first_time,
            "last_time": self.last_time,
            "span_s": self.span_s,
        }


class _LogTally:
    """Running counts of one log's records, for :class:`ReplayReport`."""

    def __init__(self) -> None:
        self.records = 0
        self.kinds: Counter = Counter()
        self.sightings = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def add(self, record: WalRecord) -> None:
        self.records += 1
        self.kinds[record.kind] += 1
        self.sightings += len(record.sightings)
        if self.first_time is None:
            self.first_time = record.time
        self.last_time = record.time


def _report(tallies: List[_LogTally]) -> ReplayReport:
    """One report over logs: counts summed, times over each log's ends."""
    kinds = sum((tally.kinds for tally in tallies), Counter())
    firsts = [t.first_time for t in tallies if t.first_time is not None]
    lasts = [t.last_time for t in tallies if t.last_time is not None]
    return ReplayReport(
        records=sum(tally.records for tally in tallies),
        sightings=sum(tally.sightings for tally in tallies),
        batches=kinds["batch"],
        history_marks=kinds["history"],
        refreshes=kinds["refresh"],
        first_time=min(firsts) if firsts else None,
        last_time=max(lasts) if lasts else None,
    )


def _check_target(server: BuildingManagementServer, directory: Path) -> None:
    if server.wal is not None and Path(server.wal.directory) == directory:
        raise ValueError(
            "replay target writes its WAL into the directory being "
            "replayed; attach a different log (or none)"
        )


def _fold(
    server: BuildingManagementServer,
    records: Iterator[WalRecord],
    tally: _LogTally,
) -> Optional[WalRecord]:
    """Apply ``records`` to ``server`` up to the next refresh record.

    Returns that refresh record, not yet applied, or ``None`` once the
    log ends.  Every record taken is counted on ``tally``.
    """
    run: List[WalRecord] = []
    rows: List[Dict[str, Any]] = []

    def apply_run() -> None:
        rooms: List[str] = []
        for start in range(0, len(rows), REPLAY_CHUNK):
            part = rows[start : start + REPLAY_CHUNK]
            rooms.extend(server.classify_batch([row["beacons"] for row in part]))
        labels = iter(rooms)
        for record in run:
            if record.kind == "sighting":
                server.ingest_sighting(**record.sightings[0], room=next(labels))
            else:
                part_rooms = list(islice(labels, len(record.sightings)))
                server.ingest_batch(record.sightings, rooms=part_rooms)
        run.clear()
        rows.clear()

    for record in records:
        tally.add(record)
        if record.kind in SIGHTING_KINDS:
            # Defer: consecutive sighting rows classify together, a
            # chunk's worth at a time so memory stays bounded.
            run.append(record)
            rows.extend(record.sightings)
            if len(rows) >= REPLAY_CHUNK:
                apply_run()
            continue
        apply_run()
        if record.kind != "history":
            return record
        server.record_history(record.time)
    apply_run()
    return None


def replay_wal(
    server: BuildingManagementServer, directory: PathLike
) -> ReplayReport:
    """Re-apply a WAL into ``server`` (trained, calibration loaded).

    The server must be constructed and trained exactly as the live one
    was before its first logged operation (same beacons, classifier,
    calibration — see :func:`server_from_manifest`); the replayed
    state is then byte-identical to the live server's.

    Args:
        server: the rebuild target.
        directory: the WAL directory to fold back.

    Raises:
        ValueError: ``server`` writes its own WAL into the directory
            being replayed (the reader and appender would race).
    """
    directory = Path(directory)
    _check_target(server, directory)
    tally = _LogTally()
    records = iter(read_wal_records(directory))
    with server.obs.tracer.span("server.replay", directory=str(directory)):
        refresh = _fold(server, records, tally)
        while refresh is not None:
            server.refresh(list(refresh.fingerprints))
            refresh = _fold(server, records, tally)
    return _report([tally])


def replay_sharded(service: ShardedBmsService, directory: PathLike) -> ReplayReport:
    """Re-apply per-shard WALs into a fresh sharded service.

    Each ``shard-NN`` sub-log replays into the matching shard store
    (shard WALs record each store's applied operations in its apply
    order), in lockstep, because the shards share one model: every
    log is cut at its refresh records, segment ``i`` of each log folds
    into its shard in shard order, then refresh ``i`` refits the model
    once and books on every shard (:meth:`ShardedBmsService.refresh`).
    The front-door routing table is rebuilt so device reads keep
    honouring past routing decisions.  Merged snapshots, history and
    per-shard telemetry come out byte-identical to the live
    service's.

    Every log carries the same refresh records in the same order, but
    a log may end early (a crash between the shards' appends of one
    refresh); a refresh that reached any log is applied and booked on
    every shard.

    Raises:
        ValueError: the directory's shard count does not match
            ``service.shards``, a shard log directory's suffix is not
            numeric, the numeric suffixes are not exactly
            ``0..shards-1`` (lexicographic order would misroute
            ``shard-100`` before ``shard-11``, so logs pair with
            stores by parsed index, never by sort position), a shard
            writes its own WAL into its log, or two logs carry
            different refresh records at the same position.
    """
    directory = Path(directory)

    def shard_suffix(path: Path) -> int:
        try:
            return int(path.name[len("shard-") :])
        except ValueError:
            raise ValueError(
                f"unrecognised shard log directory {path.name!r} "
                f"in {directory}"
            ) from None

    shard_dirs = sorted(
        (path for path in directory.glob("shard-*") if path.is_dir()),
        key=shard_suffix,
    )
    if len(shard_dirs) != service.shards:
        raise ValueError(
            f"WAL directory has {len(shard_dirs)} shard logs but the "
            f"service has {service.shards} shards"
        )
    for index, shard_dir in enumerate(shard_dirs):
        if shard_suffix(shard_dir) != index:
            raise ValueError(
                f"shard log {shard_dir.name!r} does not match shard "
                f"index {index}; expected suffixes 0..{service.shards - 1}"
            )
        _check_target(service._shards[index], shard_dir)
    #: Shard index -> its log's unread records, while the log lasts.
    logs = {index: iter(read_wal_records(d)) for index, d in enumerate(shard_dirs)}
    tallies = [_LogTally() for _ in shard_dirs]
    with service.obs.tracer.span("server.replay", directory=str(directory)):
        for position in count():
            carried = []
            for index in list(logs):
                shard = service._shards[index]
                refresh = _fold(shard, logs[index], tallies[index])
                if refresh is None:
                    del logs[index]
                else:
                    carried.append(refresh)
            if not carried:
                break
            rows = carried[0].fingerprints
            if any(refresh.fingerprints != rows for refresh in carried):
                raise ValueError(
                    f"shard logs in {directory} disagree on refresh {position}"
                )
            service.refresh(list(rows))
    for index, shard in enumerate(service._shards):
        # Rebuild the routing table from the replayed sightings: every
        # device logged by this shard was last routed here.
        for row in shard.db.table("sightings"):
            service._device_shard[row["device_id"]] = index
    return _report(tallies)


# ----------------------------------------------------------------------
# Fleet WAL-directory manifest
# ----------------------------------------------------------------------
def write_manifest(
    directory: PathLike,
    *,
    beacon_ids: List[str],
    missing_value: float,
    device_timeout_s: float,
    svm_c: float,
    svm_gamma: float,
    seed: int,
    shards: int = 1,
) -> Path:
    """Record the server construction parameters next to the log.

    Together with the ``calibration.json`` the fleet driver saves at
    initial-train time, the manifest makes the WAL directory
    self-contained: :func:`server_from_manifest` rebuilds the exact
    live server with no other inputs.

    Returns:
        The manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    document = {
        "format": MANIFEST_FORMAT,
        "beacon_ids": list(beacon_ids),
        "missing_value": float(missing_value),
        "device_timeout_s": float(device_timeout_s),
        "svm_c": float(svm_c),
        "svm_gamma": float(svm_gamma),
        "seed": int(seed),
        "shards": int(shards),
    }
    path.write_text(
        json.dumps(document, indent=1, sort_keys=True), encoding="utf-8"
    )
    return path


def load_manifest(directory: PathLike) -> Dict[str, Any]:
    """Read and validate a WAL directory's manifest.

    Raises:
        ValueError: no manifest, or an unsupported format version.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise ValueError(f"{path} not found; was this WAL written by fleet?")
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"unsupported manifest format {document.get('format')!r}"
        )
    return document


def server_from_manifest(directory: PathLike, *, registry=None):
    """Rebuild and replay the server a fleet WAL directory describes.

    Constructs the server (single-store, or sharded when the manifest
    says ``shards > 1``) with the manifest's parameters, loads and
    trains on the saved calibration, then replays the log.  Either way
    the model is fitted once and refreshed once per logged refresh.

    Returns:
        ``(server, report)`` — the rebuilt server (a
        :class:`BuildingManagementServer` or
        :class:`ShardedBmsService`) and the :class:`ReplayReport`.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    calibration = directory / CALIBRATION_NAME
    if not calibration.exists():
        raise ValueError(
            f"{calibration} not found; was this WAL written by fleet?"
        )

    def make_classifier():
        return SupportVectorClassifier(
            c=manifest["svm_c"],
            kernel=RbfKernel(gamma=manifest["svm_gamma"]),
            seed=manifest["seed"],
        )

    shards = int(manifest.get("shards", 1))
    if shards > 1:
        service = ShardedBmsService(
            beacon_ids=list(manifest["beacon_ids"]),
            shards=shards,
            classifier_factory=make_classifier,
            missing_value=manifest["missing_value"],
            device_timeout_s=manifest["device_timeout_s"],
            registry=registry,
            drain_policy="immediate",
        )
        load_calibration(service, calibration)
        return service, replay_sharded(service, directory)
    server = BuildingManagementServer(
        beacon_ids=list(manifest["beacon_ids"]),
        classifier=make_classifier(),
        missing_value=manifest["missing_value"],
        device_timeout_s=manifest["device_timeout_s"],
        registry=registry,
    )
    load_calibration(server, calibration)
    return server, replay_wal(server, directory / "shard-00")
