"""Uplink: the one report-delivery loop, with energy and reliability accounting.

A transport is a table of class constants (:mod:`repro.comms.wifi`,
:mod:`repro.comms.bt_relay`); :class:`Uplink` holds the only delivery
loop.  Two send paths build a request and hand it to that loop:

- :meth:`Uplink.send_report` posts one report per request (the paper's
  original per-scan upload);
- :meth:`Uplink.send_batch` posts many reports in a single
  ``POST /sightings/batch`` request, paying the radio's per-burst
  energy **once per batch attempt** instead of once per report — the
  amortisation that makes fleet-scale traffic viable.

A :class:`BatchPolicy` turns an uplink into a store-and-forward queue:
:meth:`Uplink.queue_report` buffers reports and flushes when the batch
is full or the oldest buffered report has waited ``max_delay_s``
simulation seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TRACEPARENT_HEADER
from repro.phone.app import SightingReport
from repro.server.client import BmsClient
from repro.server.rest import Request, Response, Router

__all__ = ["BatchPolicy", "DeliveryStats", "Uplink"]


@dataclass(frozen=True)
class BatchPolicy:
    """Flush policy for batched report delivery.

    Attributes:
        max_size: flush as soon as this many reports are buffered.
        max_delay_s: flush when the oldest buffered report has been
            held for this long (simulation seconds).
    """

    max_size: int = 16
    max_delay_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")
        if self.max_delay_s < 0.0:
            raise ValueError(f"max_delay_s must be >= 0, got {self.max_delay_s}")


@dataclass
class DeliveryStats:
    """Counters accumulated by an uplink."""

    attempts: int = 0
    delivered: int = 0
    failed: int = 0
    retries: int = 0
    bytes_sent: int = 0
    energy_j: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        """Delivered / attempted reports (1.0 when nothing attempted)."""
        if self.attempts == 0:
            return 1.0
        return self.delivered / self.attempts


class Uplink:
    """Delivers sighting reports to the BMS over a radio channel.

    Args:
        router: the BMS REST router.
        rng: random stream for delivery-failure draws.
        max_retries: retransmissions attempted after a radio failure.
        registry: telemetry registry; defaults to a no-op one.  Emitted
            events carry ``transport`` (:attr:`TRANSPORT`) and
            ``device`` attributes.
        batch_policy: when set, :meth:`queue_report` buffers reports
            and delivers them in batches under this policy; when
            ``None`` (the default), :meth:`queue_report` degenerates to
            the per-report :meth:`send_report`.

    A subclass is the channel's table of constants (overridable per
    instance):

    Attributes:
        TRANSPORT: telemetry label of the channel.
        LOSS_PROBABILITY: per-attempt failure rate of the phone's radio.
        BURST_ENERGY_J: fixed energy of one transmission burst (radio
            wake and tail, or connection setup and teardown).
        ENERGY_PER_BYTE_J: marginal transmit energy.
        IDLE_POWER_W: standing power the channel costs while the app
            runs (e.g. keeping the Wi-Fi adapter associated).
        RADIO_LEG: ``leg`` label of a radio-leg failure; ``None`` adds
            no label.
        RELAY_LOSS_PROBABILITY: failure rate of the relay hop a request
            crosses after a successful radio leg (final, not retried);
            ``None`` when the channel has no relay hop, which then
            makes no draw.  Relay-hop failures and 429 drops are
            labelled ``leg="relay"``.

    Backpressure: a sharded BMS front door may answer **429** with a
    ``retry_after_s`` hint when its ingress queue is full.  The uplink
    honours the hint with up to :attr:`max_backpressure_retries`
    retransmissions (each re-paying radio bytes/energy, advancing the
    request's logical time by the hint), counted under
    ``uplink.backpressure_retries``; a still-rejected request is
    dropped, its reports booked as failed and counted under
    ``uplink.backpressure_dropped``.  The :attr:`on_backpressure` seam
    (``f(request, attempt)``) fires before each retry — where a real
    radio would sleep, and where tests drain the server.

    Only a 2xx answer books reports as delivered.  Any other final
    status (a 400, or a 409 from an untrained store) means the server
    stored nothing: the reports are booked as failed with
    ``leg="server"``.
    """

    TRANSPORT = "uplink"
    LOSS_PROBABILITY: float
    BURST_ENERGY_J: float
    ENERGY_PER_BYTE_J: float
    IDLE_POWER_W: float
    RADIO_LEG: Optional[str] = None
    RELAY_LOSS_PROBABILITY: Optional[float] = None

    #: Bounded retries of a 429-rejected request (class default;
    #: override per instance).
    max_backpressure_retries = 2

    def __init__(
        self,
        router: Router,
        rng: Optional[np.random.Generator] = None,
        max_retries: int = 1,
        registry: Optional[MetricsRegistry] = None,
        batch_policy: Optional[BatchPolicy] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.router = router
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.max_retries = int(max_retries)
        self.batch_policy = batch_policy
        self._pending: List[SightingReport] = []
        self._batch_opened_at: Optional[float] = None
        self.stats = DeliveryStats()
        self.on_backpressure: Optional[Callable[[Request, int], None]] = None
        self.obs = registry if registry is not None else MetricsRegistry()
        self._c_reports = self.obs.counter("uplink.reports")
        self._c_delivered = self.obs.counter("uplink.delivered")
        self._c_failed = self.obs.counter("uplink.failed")
        self._c_retries = self.obs.counter("uplink.retries")
        self._c_bytes = self.obs.counter("uplink.bytes")
        self._c_bp_retries = self.obs.counter("uplink.backpressure_retries")
        self._c_bp_dropped = self.obs.counter("uplink.backpressure_dropped")

    def _obs_attrs(self, report: SightingReport) -> dict:
        """Telemetry attributes for one report's events."""
        return {"transport": self.TRANSPORT, "device": report.device_id}

    def _trace_headers(self) -> dict:
        """Request headers propagating the current trace context.

        Empty until the registry's tracer has joined a trace — and
        always behaviour-neutral: headers never count towards
        :attr:`~repro.server.rest.Request.size_bytes`, so traced and
        untraced runs burn identical energy.
        """
        context = self.obs.tracer.context()
        if context is None:
            return {}
        return {TRACEPARENT_HEADER: context.to_header()}

    def energy_per_message_j(self, size_bytes: int) -> float:
        """Radio energy of one burst carrying ``size_bytes``."""
        return self.BURST_ENERGY_J + self.ENERGY_PER_BYTE_J * size_bytes

    # -- delivery -------------------------------------------------------
    def send_report(self, report: SightingReport) -> Optional[Response]:
        """Deliver one report as a loose ``POST /sightings``.

        Returns the server's response, or ``None`` when the radio or
        relay leg lost it (see :meth:`_deliver`).
        """
        request = BmsClient.sighting_request(
            report.to_sighting(), time=report.time, headers=self._trace_headers()
        )
        return self._deliver(request, [report], self._obs_attrs(report))

    def send_batch(self, reports: Sequence[SightingReport]) -> Optional[Response]:
        """Deliver many reports in one ``POST /sightings/batch``.

        The whole batch rides one radio burst, so the per-burst energy
        is paid once per attempt rather than once per report — only
        the marginal per-byte cost scales with the batch.  All reports
        in the batch share one delivery fate.  ``None`` for an empty
        batch or a lost one.
        """
        reports = list(reports)
        if not reports:
            return None
        request = BmsClient.batch_request(
            [r.to_sighting() for r in reports],
            time=max(r.time for r in reports),
            headers=self._trace_headers(),
        )
        return self._deliver(
            request, reports, {"transport": self.TRANSPORT, "batched": True}
        )

    def _deliver(
        self, request: Request, reports: List[SightingReport], attrs: dict
    ) -> Optional[Response]:
        """The delivery loop every send path shares.

        Each radio attempt pays bytes and burst energy — failed
        transmissions still burn the battery — and draws the radio
        loss, with up to :attr:`max_retries` retransmissions.  A
        request past the radio leg crosses the relay hop when the
        channel has one, then dispatches honouring 429 hints.  The
        reports are booked together: delivered on a 2xx answer,
        failed otherwise.

        Returns:
            The final response (a 429 when backpressure outlasted the
            retries, any other non-2xx status when the server refused
            it), or ``None`` when the radio or relay leg lost it.
        """
        per_report = [self._obs_attrs(r) for r in reports]
        self.stats.attempts += len(reports)
        for labels in per_report:
            self._c_reports.inc(**labels)
        for attempt in range(self.max_retries + 1):
            self._transmit(request, attrs)
            if self.rng.random() >= self.LOSS_PROBABILITY:
                break
            if attempt == self.max_retries:
                self._book_failed(per_report, self.RADIO_LEG)
                return None
            self.stats.retries += 1
            self._c_retries.inc(**attrs)
        relay_leg = None
        if self.RELAY_LOSS_PROBABILITY is not None:
            # Board -> server over HTTP: mains powered, so no phone
            # energy; losses are rare but final.
            relay_leg = "relay"
            if self.rng.random() < self.RELAY_LOSS_PROBABILITY:
                self._book_failed(per_report, relay_leg)
                return None
        response = self._dispatch_honouring_backpressure(request, attrs)
        if response.status == 429:
            self._c_bp_dropped.inc(float(len(reports)), **attrs)
            self._book_failed(per_report, relay_leg)
            return response
        if not 200 <= response.status < 300:
            self._book_failed(per_report, "server")
            return response
        self.stats.delivered += len(reports)
        for labels in per_report:
            self._c_delivered.inc(**labels)
        return response

    def _transmit(self, request: Request, attrs: dict) -> None:
        """Pay one radio transmission of ``request``: bytes and energy."""
        size = request.size_bytes
        self.stats.bytes_sent += size
        self._c_bytes.inc(size, **attrs)
        self.stats.energy_j += self.energy_per_message_j(size)

    def _book_failed(self, per_report: List[dict], leg: Optional[str]) -> None:
        """Book every report of a lost request as failed on ``leg``."""
        self.stats.failed += len(per_report)
        leg_label = {} if leg is None else {"leg": leg}
        for labels in per_report:
            self._c_failed.inc(**leg_label, **labels)

    def _dispatch_honouring_backpressure(
        self, request: Request, attrs: dict
    ) -> Response:
        """Dispatch a radio-delivered request, honouring 429 hints.

        Each backpressure retry is a fresh transmission: it re-pays
        bytes and energy (on the relay, the status comes back to the
        phone and the phone re-sends over BT), and advances the
        request's logical time by the server's ``retry_after_s`` hint.
        Returns the final response (still 429 when the bounded retries
        are exhausted).
        """
        response = self.router.dispatch(request)
        attempt = 0
        while (
            response.status == 429 and attempt < self.max_backpressure_retries
        ):
            attempt += 1
            self.stats.retries += 1
            self._c_bp_retries.inc(**attrs)
            hint = float((response.body or {}).get("retry_after_s", 0.0))
            request = replace(request, time=request.time + hint)
            if self.on_backpressure is not None:
                self.on_backpressure(request, attempt)
            self._transmit(request, attrs)
            response = self.router.dispatch(request)
        return response

    def queue_report(self, report: SightingReport) -> Optional[Response]:
        """Buffer a report under the batch policy; deliver when due.

        Without a :attr:`batch_policy` this is exactly
        :meth:`send_report`.  With one, the report joins the pending
        batch, which is flushed once it holds ``max_size`` reports or
        the oldest buffered report is ``max_delay_s`` sim-seconds old.

        Returns:
            The flush's response when this call triggered one, else
            ``None`` (buffered, or flush failed).
        """
        if self.batch_policy is None:
            return self.send_report(report)
        if not self._pending:
            self._batch_opened_at = report.time
        self._pending.append(report)
        held_s = report.time - (self._batch_opened_at or 0.0)
        if (
            len(self._pending) >= self.batch_policy.max_size
            or held_s >= self.batch_policy.max_delay_s
        ):
            return self.flush()
        return None

    def flush(self) -> Optional[Response]:
        """Deliver any buffered reports now; ``None`` when idle/failed."""
        if not self._pending:
            return None
        reports, self._pending = self._pending, []
        self._batch_opened_at = None
        return self.send_batch(reports)

    @property
    def pending_reports(self) -> int:
        """Reports currently buffered awaiting a flush."""
        return len(self._pending)

    def discard_pending(self) -> int:
        """Drop buffered reports without sending; returns the count."""
        dropped = len(self._pending)
        self._pending.clear()
        self._batch_opened_at = None
        return dropped

    def charge_idle(self, duration_s: float) -> float:
        """Account the channel's standing energy for ``duration_s``.

        Returns:
            The energy charged, joules.
        """
        if duration_s < 0.0:
            raise ValueError(f"duration must be >= 0, got {duration_s}")
        energy = self.IDLE_POWER_W * duration_s
        self.stats.energy_j += energy
        return energy
