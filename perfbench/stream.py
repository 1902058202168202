"""The ``bms-stream`` traffic: a precomputed schedule and its players.

The traffic is what the program's own uplinks emit, scaled to a fleet.
A device reports once per scan period.  Half of the devices run the
paper's uplink (``SystemConfig()``: a Bluetooth relay, one
``POST /sightings`` per report); the other half run the fleet's
(``repro.fleet`` defaults: Wi-Fi with ``BatchPolicy(16, 10 s)``), which
at a 2 s scan period flushes one 6-row ``POST /sightings/batch`` every
sixth period.  ``python3 perfbench/traffic.py`` measures both from
``repro.fleet`` runs.  Like the detection loop, every device reads its
room back once per scan period after it has posted
(``GET /devices/<id>/location``, the REST form of ``device_room_at``),
and the building's occupancy is marked into the history and read
(``GET /occupancy``) once per period.  After the last period every
room's history is read, as ``fleet --history`` does.

The simulator starts every phone's scan cycle at the same instant; here
each device has its own phase in the period, drawn from the seed, so
arrivals spread over the period instead of landing in one burst.

Devices post on an open-loop schedule: due times are fixed before
timing, and each request is timed from its due time, so a stall also
delays every request queued behind it.  The generator runs in the
caller's thread, as the server does; it waits for a due time with a
short sleep followed by a spin, and reports how late it started each
event and how many events were already due when it did.  Where the
wait is long enough it times a pace sample (``pace.py``) instead of
sleeping, so the host's speed is read while the schedule plays.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from pace import NOMINAL_S

perf_counter = time.perf_counter

#: The open loop takes a pace sample in a wait at least this long, at
#: the nominal pace.
PACE_GAP_S = 4 * NOMINAL_S
#: The closed loop takes a pace sample after every this many requests.
PACE_EVERY = 32

#: Event kinds of the open-loop schedule.
POST, LOCATION, OCCUPANCY, HISTORY_READ, MARK = (
    "post", "location", "occupancy", "history", "mark"
)


@dataclass(frozen=True)
class Event:
    """One scheduled operation.

    Attributes:
        due: wall offset from the phase start at the nominal pace, seconds.
        kind: ``post``, ``location``, ``occupancy``, ``history`` or ``mark``.
        time: logical time the operation carries.
        request: the prebuilt request (posts and reads), else ``None``.
        rows: sightings carried (posts only).
        first_row: index of the post's first sighting in the phase.
    """

    due: float
    kind: str
    time: float
    request: object = None
    rows: int = 0
    first_row: int = 0


@dataclass
class Posts:
    """One phase's posts, in order, and the sightings they carry."""

    requests: List[object]
    rows: List[int]
    times: List[float]
    beacons: List[Dict[str, float]]
    truth: List[str]

    @property
    def sightings(self) -> int:
        return len(self.beacons)


class Fleet:
    """The devices of the stream: uplink, scan phase and walk position.

    Each device walks the beacon-vector pool in order from its own
    cursor, so its successive sightings follow one path through the
    house.  A batched device flushes in the periods whose index modulo
    ``batch_rows`` equals its own offset, carrying its last
    ``batch_rows`` reports, one scan period apart.  The offsets are
    dealt evenly, so every period carries the same number of batches
    (to one) whatever the seed.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        devices: int,
        batched_share: float,
        batch_rows: int,
        scan_period_s: float,
        pool: int,
    ) -> None:
        self.ids = [f"dev-{d:05d}" for d in range(devices)]
        batched = rng.permutation(devices)[: int(round(devices * batched_share))]
        self.batched = np.zeros(devices, dtype=bool)
        self.batched[batched] = True
        self.flush_at = np.zeros(devices, dtype=int)
        self.flush_at[batched] = np.arange(len(batched)) % batch_rows
        self.phase_s = rng.uniform(0.0, scan_period_s, size=devices)
        self.cursor = rng.integers(pool, size=devices)
        self.order = np.argsort(self.phase_s, kind="stable")
        self.batch_rows = batch_rows
        self.scan_period_s = scan_period_s


def _post(posts: Posts, fleet: Fleet, device: int, stamps, pool_beacons, pool_truth,
          t: float, Request):
    rows = []
    for stamp in stamps:
        row = int(fleet.cursor[device] % len(pool_beacons))
        fleet.cursor[device] += 1
        rows.append({"device_id": fleet.ids[device], "beacons": pool_beacons[row], "time": stamp})
        posts.beacons.append(pool_beacons[row])
        posts.truth.append(pool_truth[row])
    if len(rows) == 1:
        request = Request("POST", "/sightings", body=rows[0], time=t)
    else:
        request = Request("POST", "/sightings/batch", body={"sightings": rows}, time=t)
    posts.requests.append(request)
    posts.rows.append(len(rows))
    posts.times.append(t)


def draw_traffic(
    fleet: Fleet,
    pool_beacons: Sequence[Dict[str, float]],
    pool_truth: Sequence[str],
    *,
    first_period: int,
    periods: int,
    start_time: float,
    logical_per_wall: float,
    rooms: Sequence[str],
    Request,
    reads: bool,
):
    """``periods`` scan periods of the fleet's traffic, from ``first_period``.

    Period ``k`` starts at logical time ``start_time + k * scan_period``;
    an operation's wall due time is its logical offset from the first
    period's start divided by ``logical_per_wall``.  With ``reads`` the
    schedule also holds the per-period history mark, ``GET /occupancy``
    and per-device location reads, and the closing history reads.

    Returns:
        The posts, and the schedule of every operation in due order.
    """
    period = fleet.scan_period_s
    posts = Posts([], [], [], [], [])
    events: List[Event] = []
    origin = start_time + first_period * period
    posted = np.zeros(len(fleet.ids), dtype=bool)

    def due(t: float) -> float:
        return (t - origin) / logical_per_wall

    for k in range(first_period, first_period + periods):
        boundary = start_time + k * period
        if reads:
            events.append(Event(due(boundary), MARK, boundary))
            events.append(Event(due(boundary), OCCUPANCY, boundary,
                                Request("GET", "/occupancy", time=boundary)))
        for d in fleet.order:
            d = int(d)
            t = boundary + float(fleet.phase_s[d])
            if not fleet.batched[d]:
                stamps = [t]
            elif k % fleet.batch_rows == fleet.flush_at[d]:
                stamps = [t - period * (fleet.batch_rows - 1 - j) for j in range(fleet.batch_rows)]
            else:
                stamps = []
            if stamps:
                first = posts.sightings
                _post(posts, fleet, d, stamps, pool_beacons, pool_truth, t, Request)
                events.append(Event(due(t), POST, t, posts.requests[-1], len(stamps), first))
                posted[d] = True
            if reads and posted[d]:
                path = f"/devices/{fleet.ids[d]}/location"
                events.append(Event(due(t), LOCATION, t, Request("GET", path, time=t)))
    if reads:
        end = start_time + (first_period + periods) * period
        for room in rooms:
            events.append(Event(due(end), HISTORY_READ, end,
                                Request("GET", f"/history/{room}", time=end)))
    return posts, events


@dataclass
class PhaseResult:
    """Timings and outputs of one traffic phase."""

    ingest_s: np.ndarray  # open loop: per sighting, from its due time
    read_s: np.ndarray  # location and occupancy reads, from due time
    late_s: np.ndarray  # per event: start - due
    backlog_max: int
    labels: List[Optional[str]]
    requests: int
    failed: int
    wall_s: float
    request_rows: np.ndarray = None  # closed loop: rows per request
    request_s: np.ndarray = None  # closed loop: seconds per request


def _labels_of(response, rows: int) -> List[str]:
    body = response.body
    return [body["room"]] if rows == 1 else list(body["rooms"])


class OpenLoop:
    """Plays a schedule against ``dispatch`` and ``record_history``."""

    def __init__(self, events: List[Event], sightings: int) -> None:
        self.events = events
        self.dues = [e.due for e in events]
        self.sightings = sightings

    def wait_until(self, deadline: float, pace, pace_gap: float) -> None:
        """Sleep to just short of ``deadline``, then spin to it.

        A wait longer than ``pace_gap`` starts with a pace sample.
        """
        gap = deadline - perf_counter()
        if gap > pace_gap:
            pace.sample()
            gap = deadline - perf_counter()
        if gap > 0.0005:
            time.sleep(gap - 0.0003)
        while perf_counter() < deadline:
            pass

    def run(self, dispatch, record_history, pace, stretch: float) -> PhaseResult:
        """Play the schedule, its due times multiplied by ``stretch``."""
        events, dues = self.events, self.dues
        ingest = np.empty(self.sightings)
        reads: List[float] = []
        late = np.empty(len(events))
        labels: List[Optional[str]] = [None] * self.sightings
        backlog_max = failed = requests = 0
        wait_until = self.wait_until
        pace_gap = PACE_GAP_S * stretch
        start = perf_counter()
        for i, event in enumerate(events):
            due = start + event.due * stretch
            if perf_counter() < due:
                wait_until(due, pace, pace_gap)
            begin = perf_counter()
            late[i] = begin - due
            backlog_max = max(
                backlog_max, bisect.bisect_right(dues, (begin - start) / stretch) - i
            )
            if event.kind == MARK:
                record_history(event.time)
                continue
            requests += 1
            try:
                response = dispatch(event.request)
                ok = 200 <= response.status < 300
            except Exception:  # noqa: BLE001 - a raised error is a failed request
                response, ok = None, False
            end = perf_counter()
            failed += not ok
            if event.kind == POST:
                stop = event.first_row + event.rows
                ingest[event.first_row : stop] = end - due
                if ok:
                    labels[event.first_row : stop] = _labels_of(response, event.rows)
            elif event.kind in (LOCATION, OCCUPANCY):
                reads.append(end - due)
        return PhaseResult(
            ingest_s=ingest,
            read_s=np.asarray(reads),
            late_s=late,
            backlog_max=backlog_max,
            labels=labels,
            requests=requests,
            failed=failed,
            wall_s=perf_counter() - start,
        )


def closed_loop(posts: Posts, dispatch, clock, pace) -> PhaseResult:
    """One client posting ``posts`` back to back, each timed on ``clock``.

    A pace sample is taken, untimed, after every ``PACE_EVERY`` requests.
    """
    request_s = np.empty(len(posts.requests))
    labels: List[Optional[str]] = [None] * posts.sightings
    failed = 0
    first = 0
    start = perf_counter()
    for i, (request, rows) in enumerate(zip(posts.requests, posts.rows)):
        if i % PACE_EVERY == 0:
            pace.sample()
        sent = clock()
        try:
            response = dispatch(request)
            ok = 200 <= response.status < 300
        except Exception:  # noqa: BLE001 - a raised error is a failed request
            response, ok = None, False
        request_s[i] = clock() - sent
        if ok:
            labels[first : first + rows] = _labels_of(response, rows)
        else:
            failed += 1
        first += rows
    return PhaseResult(
        ingest_s=np.empty(0),
        read_s=np.empty(0),
        late_s=np.empty(0),
        backlog_max=0,
        labels=labels,
        requests=len(posts.requests),
        failed=failed,
        wall_s=perf_counter() - start,
        request_rows=np.asarray(posts.rows, dtype=float),
        request_s=request_s,
    )
