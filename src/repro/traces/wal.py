"""Durable sighting write-ahead log: segmented, CRC-stamped, replayable.

A production BMS must survive restarts: the in-memory occupancy state
dies with the process, but the stream of accepted operations does not
have to.  :class:`SightingWal` is an append-only log of exactly the
operations the server applied — loose sightings, coalesced batches
(one line per batch, preserving the batch boundaries the telemetry
counts), occupancy-history marks, and online model refreshes — in
apply order.  :mod:`repro.server.replay` folds the log back through
the server's ingest path and rebuilds the live state byte for byte.

Layout: a directory of ``segment-NNNNNN`` files.  The active segment
is JSONL — a CRC-stamped header line followed by one compact JSON
record per line — and rotates on a size threshold.  A ``sighting``
and a ``batch`` record differ only in their kind tag: both carry
their rows in one columnar layout at every row count (beacon names
once, base64 of the raw float64 times and values, a presence mask,
device ids as a JSON list).  Sealed segments can be *compacted* into
numpy-backed ``.npz`` files (one flat row table plus per-operation
index arrays) built by the same row/column helpers; float64 values
round-trip bit-exactly in both encodings.  The reader tolerates a
torn trailing line on the active segment (a crash mid-append) but
treats any other corruption — bad header CRC, malformed interior
line — as an error.  Reopening a directory repairs the previous
active segment first — the torn bytes were never durable, so
truncating them keeps the log readable end to end across any number
of crash/resume cycles.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.obs import profiling
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SightingWal",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "read_wal_records",
    "wal_segment_paths",
]

PathLike = Union[str, Path]

#: On-disk format version, stamped into every segment header.
WAL_FORMAT = 2

#: Record kinds, in the order `.npz` compaction numbers them.
RECORD_KINDS = ("sighting", "batch", "history", "refresh")

#: The kinds whose records carry sighting rows.
SIGHTING_KINDS = ("sighting", "batch")

#: Default active-segment rotation threshold, bytes.
DEFAULT_SEGMENT_BYTES = 256 * 1024

_SEGMENT_PREFIX = "segment-"
_ACTIVE_SUFFIX = ".jsonl"
_SEALED_SUFFIX = ".npz"


def _to_columns(
    beacon_maps: Sequence[Mapping[str, float]],
) -> Tuple[List[str], List[float], List[bool]]:
    """Rows of ``{beacon: value}`` as columns.

    Returns the sorted beacon names plus row-major flat value and
    presence lists (``len(rows) * len(names)`` long each); an absent
    beacon holds 0.0 and a false presence flag, so ragged rows
    round-trip exactly through :func:`_from_columns`.
    """
    names = sorted({b for beacons in beacon_maps for b in beacons})
    values = [beacons.get(b, 0.0) for beacons in beacon_maps for b in names]
    present = [b in beacons for beacons in beacon_maps for b in names]
    return names, values, present


def _from_columns(
    rows: int,
    names: Sequence[str],
    values: Sequence[float],
    present: Sequence[Any],
) -> List[Dict[str, float]]:
    """Inverse of :func:`_to_columns`: one ``{beacon: value}`` per row."""
    width = len(names)
    return [
        dict(
            compress(
                zip(names, values[i * width : (i + 1) * width]),
                present[i * width : (i + 1) * width],
            )
        )
        for i in range(rows)
    ]


#: One compact encoder for every record line; ``json.dumps`` would
#: build a new one per append.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _b64(data: bytes) -> str:
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def _pack(values: Sequence[float]) -> str:
    """Base64 of the little-endian float64 bytes of ``values``."""
    return _b64(struct.pack(f"<{len(values)}d", *values))


def _unpack(text: str) -> Tuple[float, ...]:
    data = base64.b64decode(text, validate=True)
    return struct.unpack(f"<{len(data) // 8}d", data)


def _sighting_line(
    kind: str, sightings: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """The one line layout of a ``sighting`` or ``batch`` record."""
    if not sightings:
        raise ValueError(f"a {kind} record needs at least one sighting")
    names, values, present = _to_columns([s["beacons"] for s in sightings])
    times = [s["time"] for s in sightings]
    return {
        "kind": kind,
        "time": times[-1],
        "beacon_names": names,
        "devices": [s["device_id"] for s in sightings],
        "t64": _pack(times),
        "v64": _pack(values),
        "m64": _b64(bytes(present)),
    }


class WalError(Exception):
    """Base class for WAL failures."""


class WalCorruptionError(WalError):
    """A segment failed its CRC or structural validation."""


@dataclass(frozen=True)
class WalRecord:
    """One logged operation, in apply order.

    Attributes:
        kind: ``"sighting"`` (one report), ``"batch"`` (one coalesced
            batch ingest — the boundary matters: it replays the batch
            counter and size histogram exactly), ``"history"`` (an
            occupancy-history mark, which carries the expiry side
            effects of its snapshot), or ``"refresh"`` (an online
            model refresh with new calibration fingerprints).
        seq: per-log monotonically increasing record number.
        time: the operation's resolved time.
        sightings: the reports of a sighting/batch record, each a
            mapping with ``device_id``, ``beacons`` and ``time``.
        fingerprints: the calibration rows of a refresh record, each a
            mapping with ``room``, ``beacons`` and ``time``.
    """

    kind: str
    seq: int
    time: float
    sightings: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)
    fingerprints: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)


def _header_payload(segment: int, base_seq: int) -> Dict[str, Any]:
    return {
        "kind": "wal-header",
        "format": WAL_FORMAT,
        "segment": int(segment),
        "base_seq": int(base_seq),
    }


def _header_crc(payload: Mapping[str, Any]) -> int:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def _validate_header(header: Dict[str, Any], origin: str) -> Dict[str, Any]:
    if header.get("kind") != "wal-header":
        raise WalCorruptionError(f"{origin}: missing wal-header line")
    crc = header.pop("crc", None)
    if crc != _header_crc(header):
        raise WalCorruptionError(
            f"{origin}: header CRC mismatch (stamped {crc!r})"
        )
    if header.get("format") != WAL_FORMAT:
        raise WalError(
            f"{origin}: unsupported WAL format {header.get('format')!r}"
        )
    return header


def _segment_index(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX) : -len(path.suffix)])


def wal_segment_paths(directory: PathLike) -> List[Path]:
    """Every segment file under ``directory``, in log order.

    Raises:
        WalCorruptionError: a segment index appears both sealed and
            active (the compactor removes the JSONL only after the npz
            is written, so duplicates mean a crashed compaction — the
            caller should remove the ``.npz`` and retry).
    """
    directory = Path(directory)
    paths: Dict[int, Path] = {}
    for path in sorted(directory.glob(f"{_SEGMENT_PREFIX}*")):
        if path.suffix not in (_ACTIVE_SUFFIX, _SEALED_SUFFIX):
            continue
        index = _segment_index(path)
        if index in paths:
            raise WalCorruptionError(
                f"{directory}: segment {index} exists as both "
                f"{paths[index].name} and {path.name}"
            )
        paths[index] = path
    return [paths[index] for index in sorted(paths)]


def _sighting_record(row: Dict[str, Any], origin: str) -> WalRecord:
    """Decode a line written by :func:`_sighting_line`."""
    try:
        devices = row["devices"]
        times = _unpack(row["t64"])
        values = _unpack(row["v64"])
        present = base64.b64decode(row["m64"], validate=True)
        cells = len(devices) * len(row["beacon_names"])
        if len(times) != len(devices) or not len(values) == len(present) == cells:
            raise ValueError("column lengths disagree")
        beacons = _from_columns(len(devices), row["beacon_names"], values, present)
        return WalRecord(
            kind=row["kind"],
            seq=int(row["seq"]),
            time=float(row["time"]),
            sightings=tuple(
                {"device_id": device, "beacons": b, "time": t}
                for device, b, t in zip(devices, beacons, times)
            ),
        )
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise WalCorruptionError(
            f"{origin}: malformed {row['kind']} record"
        ) from exc


def _record_from_dict(row: Dict[str, Any], origin: str) -> WalRecord:
    kind = row.get("kind")
    if kind not in RECORD_KINDS:
        raise WalCorruptionError(f"{origin}: unknown record kind {kind!r}")
    if kind in SIGHTING_KINDS:
        return _sighting_record(row, origin)
    return WalRecord(
        kind=kind,
        seq=int(row["seq"]),
        time=float(row["time"]),
        fingerprints=tuple(
            {
                "room": f["room"],
                "beacons": dict(f["beacons"]),
                "time": float(f["time"]),
            }
            for f in row.get("fingerprints", ())
        ),
    )


def _read_jsonl_segment(
    path: Path, *, tolerate_torn_tail: bool
) -> Iterator[WalRecord]:
    origin = str(path)
    header: Optional[Dict[str, Any]] = None
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            if header is None:
                try:
                    header = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise WalCorruptionError(
                        f"{origin}: unreadable header line"
                    ) from exc
                _validate_header(header, origin)
                continue
            try:
                row = json.loads(stripped)
            except json.JSONDecodeError:
                # A malformed *final* line of the active segment is the
                # signature of a crash mid-append: drop it.  Malformed
                # interior lines (content follows) are real corruption.
                if tolerate_torn_tail and fh.read(1) == "":
                    return
                raise WalCorruptionError(f"{origin}: malformed record line")
            yield _record_from_dict(row, origin)
    if header is None:
        raise WalCorruptionError(f"{origin}: empty segment (no header)")


def _read_npz_segment(path: Path) -> Iterator[WalRecord]:
    origin = str(path)
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        _validate_header(header, origin)
        ops = zip(
            data["op_kind"].tolist(),
            data["op_seq"].tolist(),
            data["op_time"].tolist(),
            data["op_row_count"].tolist(),
        )
        devices = data["row_device"].tolist()
        rooms = data["row_room"].tolist()
        times = data["row_time"].tolist()
        beacons = _from_columns(
            len(times),
            data["beacon_names"].tolist(),
            data["row_values"].ravel().tolist(),
            data["row_mask"].ravel().tolist(),
        )
    start = 0
    for kind_index, seq, time, count in ops:
        kind = RECORD_KINDS[kind_index]
        span = range(start, start + count)
        start += count
        if kind in SIGHTING_KINDS:
            sightings = tuple(
                {"device_id": devices[r], "beacons": beacons[r], "time": times[r]}
                for r in span
            )
            yield WalRecord(kind=kind, seq=seq, time=time, sightings=sightings)
        else:
            fingerprints = tuple(
                {"room": rooms[r], "beacons": beacons[r], "time": times[r]}
                for r in span
            )
            yield WalRecord(kind=kind, seq=seq, time=time, fingerprints=fingerprints)


def read_wal_records(directory: PathLike) -> Iterator[WalRecord]:
    """Every record in the log, in apply (sequence) order.

    Sealed ``.npz`` and JSONL segments interleave transparently; only
    the log's final JSONL segment may end in a torn line.
    """
    paths = wal_segment_paths(directory)
    for position, path in enumerate(paths):
        if path.suffix == _SEALED_SUFFIX:
            yield from _read_npz_segment(path)
        else:
            tail_ok = position == len(paths) - 1
            yield from _read_jsonl_segment(path, tolerate_torn_tail=tail_ok)


class SightingWal:
    """Segmented append-only log of applied BMS operations.

    Args:
        directory: log directory; created if missing.  Reopening a
            directory with existing segments resumes appending after
            the last durable record (a fresh segment is started, so a
            torn tail on the previous active segment is never written
            past).
        segment_bytes: rotate the active segment once it exceeds this
            many bytes.
        fsync: when true, ``os.fsync`` after every append so
            acknowledged records survive an OS/power failure too.
            When false (the default) every append is still flushed to
            the OS — the durability window is a *kernel* crash, not a
            process crash: an acknowledged record can only be lost if
            the whole machine dies before the page cache hits disk.
        registry: optional telemetry registry; the log maintains
            ``wal.records`` / ``wal.sightings`` / ``wal.segments_sealed``
            / ``wal.compacted_segments`` counters on it.  All counts
            are pure functions of the logged content, so telemetry
            stays deterministic.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if segment_bytes < 1:
            raise ValueError(
                f"segment_bytes must be >= 1, got {segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.fsync = bool(fsync)
        self._fh = None
        self._active_index: Optional[int] = None
        self._active_bytes = 0
        self._closed = False
        self.records_appended = 0
        self.sightings_appended = 0
        existing = wal_segment_paths(self.directory)
        if existing and existing[-1].suffix == _ACTIVE_SUFFIX:
            self._repair_torn_tail(existing[-1])
            existing = wal_segment_paths(self.directory)
        if existing:
            self._segment_counter = _segment_index(existing[-1]) + 1
            self._next_seq = self._scan_next_seq(existing[-1])
        else:
            self._segment_counter = 0
            self._next_seq = 0
        self._c_records = (
            registry.counter("wal.records") if registry is not None else None
        )
        self._c_sightings = (
            registry.counter("wal.sightings") if registry is not None else None
        )
        self._c_sealed = (
            registry.counter("wal.segments_sealed")
            if registry is not None
            else None
        )
        self._c_compacted = (
            registry.counter("wal.compacted_segments")
            if registry is not None
            else None
        )

    @staticmethod
    def _repair_torn_tail(last_segment: Path) -> None:
        """Truncate a torn trailing line left by a crash mid-append.

        Resuming opens a *new* segment, which turns the old active one
        into an interior segment — where a torn line reads as real
        corruption.  The torn bytes were never durable (the appender
        crashed before completing the line), so dropping them restores
        the durable prefix and keeps the whole log readable end to end.
        A segment whose *header* line is torn holds nothing durable at
        all and is removed outright.
        """
        data = last_segment.read_bytes()
        if not data.strip():
            last_segment.unlink()
            return
        offset = 0
        last_start = 0
        last_line = b""
        for line in data.splitlines(keepends=True):
            if line.strip():
                last_start = offset
                last_line = line
            offset += len(line)
        try:
            json.loads(last_line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            if last_start == 0:
                last_segment.unlink()
            else:
                with last_segment.open("r+b") as fh:
                    fh.truncate(last_start)

    @staticmethod
    def _scan_next_seq(last_segment: Path) -> int:
        last = -1
        if last_segment.suffix == _SEALED_SUFFIX:
            records: Iterator[WalRecord] = _read_npz_segment(last_segment)
        else:
            records = _read_jsonl_segment(last_segment, tolerate_torn_tail=True)
        for record in records:
            last = record.seq
        if last < 0:
            # A record-less segment: fall back to its header's base_seq.
            if last_segment.suffix == _SEALED_SUFFIX:
                with np.load(last_segment, allow_pickle=False) as data:
                    header = _validate_header(
                        json.loads(str(data["header"])), str(last_segment)
                    )
                return int(header["base_seq"])
            with last_segment.open("r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        header = _validate_header(
                            json.loads(line), str(last_segment)
                        )
                        return int(header["base_seq"])
            return 0
        return last + 1

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{index:06d}{_ACTIVE_SUFFIX}"

    def _open_segment(self) -> None:
        index = self._segment_counter
        self._segment_counter += 1
        path = self._segment_path(index)
        payload = _header_payload(index, self._next_seq)
        line = json.dumps(
            {**payload, "crc": _header_crc(payload)}, separators=(",", ":")
        )
        self._fh = path.open("w", encoding="utf-8")
        self._fh.write(line + "\n")
        self._active_index = index
        self._active_bytes = len(line) + 1

    def _seal_active(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._active_index = None
            self._active_bytes = 0
            if self._c_sealed is not None:
                self._c_sealed.inc()

    def _append_line(self, row: Dict[str, Any], sightings: int) -> int:
        if self._closed:
            raise WalError("append on a closed WAL")
        if self._fh is None:
            self._open_segment()
        seq = self._next_seq
        self._next_seq += 1
        line = _LINE_ENCODER.encode({"seq": seq, **row})
        self._fh.write(line + "\n")
        # Every acknowledged append reaches the OS before the caller
        # proceeds; otherwise acknowledged operations could sit in the
        # userspace buffer and vanish on a process crash — the exact
        # scenario the WAL exists to survive.
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._active_bytes += len(line.encode("utf-8")) + 1
        self.records_appended += 1
        self.sightings_appended += sightings
        if self._c_records is not None:
            self._c_records.inc(kind=row["kind"])
        if self._c_sightings is not None and sightings:
            self._c_sightings.inc(float(sightings))
        profiling.tick("traces.wal.record")
        if self._active_bytes >= self.segment_bytes:
            self._seal_active()
        return seq

    def append_sighting(
        self, device_id: str, beacons: Mapping[str, float], time: float
    ) -> int:
        """Log one accepted loose sighting; returns its seq."""
        row = {"device_id": device_id, "beacons": beacons, "time": time}
        return self._append_line(_sighting_line("sighting", [row]), sightings=1)

    def append_batch(self, sightings: Sequence[Mapping[str, Any]]) -> int:
        """Log one accepted batch ingest as a single record.

        One line per batch amortises the encoding cost across the
        batch and preserves the batch boundary, so replay reproduces
        the ``server.batches`` counter and ``server.batch_size``
        histogram exactly.  Returns the record's seq.
        """
        with profiling.measure("traces.wal.append_batch"):
            return self._append_line(
                _sighting_line("batch", sightings), sightings=len(sightings)
            )

    def append_history_mark(self, time: float) -> int:
        """Log an occupancy-history mark (with its expiry side effects)."""
        return self._append_line(
            {"kind": "history", "time": float(time)}, sightings=0
        )

    def append_refresh(
        self, fingerprints: Sequence[Mapping[str, Any]], time: float
    ) -> int:
        """Log an applied online model refresh."""
        if not fingerprints:
            raise ValueError("append_refresh needs at least one fingerprint")
        rows = [
            {
                "room": str(f["room"]),
                "beacons": {
                    str(b): float(v) for b, v in f["beacons"].items()
                },
                "time": float(f.get("time", 0.0)),
            }
            for f in fingerprints
        ]
        return self._append_line(
            {"kind": "refresh", "time": float(time), "fingerprints": rows},
            sightings=0,
        )

    def flush(self) -> None:
        """Flush the active segment to the OS (and disk when ``fsync``)."""
        if self._fh is not None:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Seal the active segment and stop accepting appends."""
        self._seal_active()
        self._closed = True

    def __enter__(self) -> "SightingWal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading and compaction
    # ------------------------------------------------------------------
    def records(self) -> Iterator[WalRecord]:
        """Every durable record, in order (flushes the active segment)."""
        self.flush()
        return read_wal_records(self.directory)

    def segment_paths(self) -> List[Path]:
        """Current segment files, in log order."""
        return wal_segment_paths(self.directory)

    def compact(self) -> int:
        """Rewrite sealed JSONL segments as columnar ``.npz`` files.

        The active segment is left alone.  Returns the number of
        segments compacted.  Lossless: float64 beacon values and times
        round-trip bit-exactly through the column arrays.
        """
        compacted = 0
        with profiling.measure("traces.wal.compact"):
            for path in self.segment_paths():
                if path.suffix != _ACTIVE_SUFFIX:
                    continue
                if (
                    self._active_index is not None
                    and _segment_index(path) == self._active_index
                ):
                    continue
                self._compact_segment(path)
                compacted += 1
        if self._c_compacted is not None and compacted:
            self._c_compacted.inc(float(compacted))
        return compacted

    @staticmethod
    def _compact_segment(path: Path) -> None:
        origin = str(path)
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline().strip()
        header = _validate_header(json.loads(header_line), origin)
        header["crc"] = _header_crc(header)
        records = list(_read_jsonl_segment(path, tolerate_torn_tail=False))
        rows = [
            row for record in records for row in record.sightings + record.fingerprints
        ]
        names, values, present = _to_columns([row["beacons"] for row in rows])
        shape = (len(rows), len(names))
        # String columns get numpy's inferred width: a fixed ``<U64``
        # would silently truncate longer device ids, rooms or beacon
        # names and break the lossless round-trip.
        np.savez(
            path.with_suffix(_SEALED_SUFFIX),
            header=np.asarray(json.dumps(header, separators=(",", ":"))),
            beacon_names=np.asarray(names, dtype=str),
            op_kind=np.asarray(
                [RECORD_KINDS.index(r.kind) for r in records], dtype=np.int8
            ),
            op_seq=np.asarray([r.seq for r in records], dtype=np.int64),
            op_time=np.asarray([r.time for r in records], dtype=np.float64),
            op_row_count=np.asarray(
                [len(r.sightings) + len(r.fingerprints) for r in records],
                dtype=np.int64,
            ),
            row_device=np.asarray([r.get("device_id", "") for r in rows], dtype=str),
            row_room=np.asarray([r.get("room", "") for r in rows], dtype=str),
            row_time=np.asarray([r["time"] for r in rows], dtype=np.float64),
            row_values=np.asarray(values, dtype=np.float64).reshape(shape),
            row_mask=np.asarray(present, dtype=bool).reshape(shape),
        )
        path.unlink()

    def describe(self) -> Dict[str, Any]:
        """Admin-endpoint view of the log's shape."""
        paths = self.segment_paths()
        return {
            "directory": str(self.directory),
            "format": WAL_FORMAT,
            "segments": len(paths),
            "compacted_segments": sum(
                1 for p in paths if p.suffix == _SEALED_SUFFIX
            ),
            "next_seq": self._next_seq,
            "records_appended": self.records_appended,
            "sightings_appended": self.sightings_appended,
            "active_bytes": self._active_bytes,
            "segment_bytes": self.segment_bytes,
        }
