"""A typed client for the BMS REST API.

What the phone app and the relay board would link against in a real
deployment: thin, validated wrappers over the REST routes, raising
:class:`BmsApiError` on non-2xx responses instead of leaking status
codes into application logic.

The client honours the sharded service's backpressure protocol: a
**429** response carrying a ``retry_after_s`` hint is retried up to
``max_backpressure_retries`` times, advancing the request's logical
time by the hint each attempt (the in-process stand-in for sleeping).
Exhausted retries surface as a :class:`BmsApiError` with status 429.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.server.rest import Request, Router

__all__ = ["BmsApiError", "BmsClient", "RoomHistory"]


class BmsApiError(RuntimeError):
    """A non-2xx response from the BMS."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"BMS returned {status}: {message}")
        self.status = status
        self.message = message


@dataclass(frozen=True)
class RoomHistory:
    """Typed view of one room's ``GET /history/<room>`` statistics."""

    room: str
    series: Tuple[Tuple[float, int], ...]
    peak: int
    mean_occupancy: float
    utilisation: float


class BmsClient:
    """Client-side view of the BMS REST interface.

    Args:
        router: the server's router (the in-process stand-in for the
            HTTP connection).
        max_backpressure_retries: bounded retries of a request the
            server rejected with 429 + ``retry_after_s``.
        on_backpressure: called as ``on_backpressure(next_time, attempt)``
            before each backpressure retry — the seam where a real
            client would sleep (and where tests drain the server).
    """

    def __init__(
        self,
        router: Router,
        *,
        max_backpressure_retries: int = 2,
        on_backpressure: Optional[Callable[[float, int], None]] = None,
    ) -> None:
        if max_backpressure_retries < 0:
            raise ValueError(
                f"max_backpressure_retries must be >= 0, "
                f"got {max_backpressure_retries}"
            )
        self.router = router
        self.max_backpressure_retries = int(max_backpressure_retries)
        self.on_backpressure = on_backpressure
        #: 429-triggered retries issued over this client's lifetime.
        self.backpressure_retries = 0

    @staticmethod
    def sighting_request(
        sighting: Mapping[str, Any],
        time: float = 0.0,
        headers: Optional[Dict[str, str]] = None,
    ) -> Request:
        """Build the canonical loose ``POST /sightings`` request."""
        return Request(
            method="POST",
            path="/sightings",
            body=dict(sighting),
            time=time,
            headers=headers or {},
        )

    @staticmethod
    def batch_request(
        sightings: Sequence[Mapping[str, Any]],
        time: float = 0.0,
        headers: Optional[Dict[str, str]] = None,
    ) -> Request:
        """Build the canonical ``POST /sightings/batch`` request.

        This and :meth:`sighting_request` are the only places the
        sighting wire format lives: the client, the uplinks and the
        relay board all send the requests they build.
        """
        return Request(
            method="POST",
            path="/sightings/batch",
            body={"sightings": [dict(sighting) for sighting in sightings]},
            time=time,
            headers=headers or {},
        )

    def _call(self, method: str, path: str, body=None, time: float = 0.0):
        return self._send(Request(method, path, body=body, time=time))

    def _send(self, request: Request):
        """Dispatch ``request``, retrying 429s; returns the 2xx body."""
        attempts = 0
        while True:
            response = self.router.dispatch(request)
            if response.ok:
                return response.body
            if (
                response.status == 429
                and attempts < self.max_backpressure_retries
            ):
                attempts += 1
                self.backpressure_retries += 1
                hint = float((response.body or {}).get("retry_after_s", 0.0))
                request = replace(request, time=request.time + hint)
                if self.on_backpressure is not None:
                    self.on_backpressure(request.time, attempts)
                continue
            message = ""
            if response.body and "error" in response.body:
                message = str(response.body["error"])
            raise BmsApiError(response.status, message)

    # ------------------------------------------------------------------
    # Calibration phase
    # ------------------------------------------------------------------
    def post_fingerprint(
        self, room: str, beacons: Mapping[str, float], time: float = 0.0
    ) -> int:
        """Store one labelled fingerprint; returns its row id."""
        body = self._call(
            "POST", "/fingerprints",
            body={"room": room, "beacons": dict(beacons), "time": time},
        )
        return int(body["id"])

    def train(self) -> float:
        """Trigger training; returns the training accuracy."""
        return float(self._call("POST", "/train")["train_accuracy"])

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def post_sighting(
        self, device_id: str, beacons: Mapping[str, float], time: float
    ) -> Optional[str]:
        """Upload one sighting; returns the estimated room.

        Returns ``None`` when the server accepted the sighting but
        deferred its classification (a sharded front door answering
        202-queued under a non-write-through drain policy).
        """
        body = self._send(
            self.sighting_request(
                {"device_id": device_id, "beacons": dict(beacons), "time": time},
                time=time,
            )
        )
        room = body.get("room")
        return str(room) if room is not None else None

    def post_sightings_batch(
        self, sightings: Sequence[Mapping[str, Any]], time: float = 0.0
    ) -> Optional[List[str]]:
        """Upload many sightings in one batch; returns estimated rooms.

        Each sighting is a mapping with ``device_id``, ``beacons`` and
        optionally ``time`` (defaulting server-side to the request
        time).  Returns ``None`` when the server accepted the batch
        but deferred classification (202-queued).

        Raises:
            BmsApiError: validation failure (400), untrained server
                (409), or backpressure past the bounded retries (429).
        """
        body = self._send(self.batch_request(sightings, time=time))
        rooms = body.get("rooms")
        if rooms is None:
            return None
        return [str(room) for room in rooms]

    def occupancy(self, time: float = 0.0) -> Dict[str, int]:
        """Current per-room occupant counts."""
        return dict(self._call("GET", "/occupancy", time=time)["rooms"])

    def room_count(self, room: str, time: float = 0.0) -> int:
        """Occupant count of one room."""
        return int(self._call("GET", f"/occupancy/{room}", time=time)["count"])

    def device_location(self, device_id: str) -> str:
        """Last estimated room of a device.

        Raises:
            BmsApiError: unknown device (404).
        """
        body = self._call("GET", f"/devices/{device_id}/location")
        return str(body["room"])

    def history(self, room: str) -> RoomHistory:
        """Typed history statistics of one room.

        Raises:
            BmsApiError: non-2xx response.
        """
        body = self._call("GET", f"/history/{room}")
        return RoomHistory(
            room=str(body["room"]),
            series=tuple((float(t), int(count)) for t, count in body["series"]),
            peak=int(body["peak"]),
            mean_occupancy=float(body["mean_occupancy"]),
            utilisation=float(body["utilisation"]),
        )

    def room_history(self, room: str) -> Dict:
        """History statistics of one room, as the raw response body.

        Prefer the typed :meth:`history`.
        """
        return self._call("GET", f"/history/{room}")
