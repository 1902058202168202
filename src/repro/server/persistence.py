"""Persisting the BMS's calibration state to disk.

A real deployment calibrates once and reuses the fingerprint database
across server restarts.  This module serialises the fingerprint store
(plus the beacon/feature configuration needed to interpret it) to a
JSON document and restores it into a fresh BMS — single-store or
sharded: both hold their calibration in one
:class:`~repro.server.bms.RoomModel` (a
:class:`~repro.server.sharded.ShardedBmsService` shares its one among
the shards), so one file saves and restores either, and loading trains
that model once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

__all__ = ["save_calibration", "load_calibration"]

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def save_calibration(bms, path: PathLike) -> int:
    """Write the BMS's fingerprints and feature config to JSON.

    Args:
        bms: a :class:`~repro.server.bms.BuildingManagementServer` or
            :class:`~repro.server.sharded.ShardedBmsService` (both
            save their :class:`~repro.server.bms.RoomModel`).
        path: JSON file to write.

    Returns:
        Number of fingerprints saved.
    """
    path = Path(path)
    model = bms.model
    rows = [
        {
            "time": row["time"],
            "room": row["room"],
            "beacons": row["beacons"],
        }
        for row in model.db.table("fingerprints")
    ]
    document = {
        "format": FORMAT_VERSION,
        "beacon_ids": model.vectorizer.beacon_ids,
        "missing_value": model.vectorizer.missing_value,
        "fingerprints": rows,
    }
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    return len(rows)


def load_calibration(bms, path: PathLike, *, train: bool = True) -> int:
    """Restore fingerprints saved by :func:`save_calibration`.

    Args:
        bms: a server (or sharded service) whose beacon set matches
            the saved document.
        path: JSON file to read.
        train: train the model after loading.

    Returns:
        Number of fingerprints loaded.

    Raises:
        ValueError: wrong format version or mismatched beacon set.
    """
    path = Path(path)
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported calibration format {document.get('format')!r}"
        )
    saved_beacons = list(document.get("beacon_ids", []))
    beacon_ids = bms.model.vectorizer.beacon_ids
    if saved_beacons != beacon_ids:
        raise ValueError(
            f"beacon set mismatch: saved {saved_beacons} vs server {beacon_ids}"
        )
    count = 0
    for row in document.get("fingerprints", []):
        bms.add_fingerprint(row["room"], row["beacons"], row.get("time", 0.0))
        count += 1
    if train and count:
        bms.train()
    return count
