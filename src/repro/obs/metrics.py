"""Metric instruments and the registry that owns them.

The :class:`MetricsRegistry` is the single object an instrumented
component needs: it hands out named counters, gauges and fixed-bucket
histograms, stamps every emission with the *injected* clock (the
simulation clock in a run — never the wall clock), and forwards the
event to its sink.  Aggregates are maintained even with the event log
disabled, so a Prometheus-style scrape works either way.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.events import COUNTER, GAUGE, HISTOGRAM, TelemetryEvent
from repro.obs.sinks import MemorySink, NullSink, Sink

__all__ = [
    "AttrKey",
    "ClockFn",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Write",
    "attr_key",
]

#: A zero-argument callable yielding the current simulation time.
ClockFn = Callable[[], float]

#: Attribute sets are keyed by their sorted item tuple.
AttrKey = Tuple[Tuple[str, object], ...]

#: One keyed write: ``(value, series key, attributes)``.
Write = Tuple[float, AttrKey, Mapping[str, object]]

#: Default histogram bucket upper bounds (seconds-ish scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)


def attr_key(attrs: Mapping[str, object]) -> AttrKey:
    """The series key of a write under ``attrs``.

    A component that books many writes under one attribute set works
    its key out once and hands it to the keyed writes
    (:meth:`Counter.inc_many`, :meth:`Gauge.set_many`).
    """
    # One label, the common case, is already in order.
    if len(attrs) == 1:
        return tuple(attrs.items())
    return tuple(sorted(attrs.items()))


def _gauge_write_wins(incoming, current) -> bool:
    """Whether a merged ``(value, time)`` write supersedes the current.

    Last write by sim time; equal-time writes fall back to the larger
    value so that gauge merging stays commutative and associative.
    """
    if current[0] is None:
        return True
    return (incoming[1], incoming[0]) > (current[1], current[0])


class _Instrument:
    """Shared plumbing: name, registry backref, event emission."""

    kind = ""

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        if not name:
            raise ValueError("instrument name must not be empty")
        self.name = name
        self._registry = registry

    def _emit(self, value: float, attrs: Mapping[str, object]) -> None:
        """Send one event to the sink; callers first check that it is
        ``enabled``, so a disabled sink costs one attribute test."""
        self._registry.sink.emit(
            TelemetryEvent(
                time=self._registry.now(),
                kind=self.kind,
                name=self.name,
                value=float(value),
                attrs=dict(attrs),
            )
        )


class Counter(_Instrument):
    """Monotonically increasing total, optionally split by attributes.

    ``inc(3, phone="alice")`` adds to both the grand total and the
    ``phone=alice`` series.
    """

    kind = COUNTER

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self._total = 0.0
        self._by_attrs: Dict[AttrKey, float] = {}

    def inc(self, value: float = 1.0, **attrs: object) -> None:
        """Add ``value`` (must be >= 0) to the counter: the one-write
        case of :meth:`inc_many`.

        Raises:
            ValueError: on a negative increment.
        """
        self._add(value, attr_key(attrs) if attrs else (), attrs)

    def inc_many(self, writes: Iterable[Write]) -> None:
        """Add each ``(value, key, attrs)`` write, in order.

        The keyed many-series write: the same as ``inc(value,
        **attrs)`` per write, with the series ``key`` worked out by the
        caller (:func:`attr_key` of ``attrs``; ``()`` adds to the grand
        total only).  The grand total adds the values left to right, so
        it rounds as those one-write calls would, and a recording sink
        gets one event per write carrying its ``attrs``.

        Raises:
            ValueError: on a negative increment; the writes before it
                stand.
        """
        add = self._add
        for value, key, attrs in writes:
            add(value, key, attrs)

    def _add(self, value: float, key: AttrKey, attrs: Mapping[str, object]) -> None:
        """One keyed write: the rule both ``inc`` forms apply."""
        if value < 0.0:
            raise ValueError(f"counter increment must be >= 0, got {value}")
        self._total += value
        if key:
            self._by_attrs[key] = self._by_attrs.get(key, 0.0) + value
        if self._registry.sink.enabled:
            self._emit(value, attrs)

    @property
    def value(self) -> float:
        """Grand total across all attribute sets."""
        return self._total

    def value_for(self, **attrs: object) -> float:
        """Total accumulated under exactly this attribute set."""
        return self._by_attrs.get(attr_key(attrs), 0.0)

    @property
    def series(self) -> Dict[AttrKey, float]:
        """Per-attribute-set totals (copy)."""
        return dict(self._by_attrs)


class Gauge(_Instrument):
    """Last-written value, optionally split by attributes.

    Every write is stamped with the registry clock so that gauges from
    independent shard registries can be merged with last-write-by-sim-
    time semantics (see :meth:`MetricsRegistry.merge`).
    """

    kind = GAUGE

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self._value: Optional[float] = None
        self._updated_at: Optional[float] = None
        self._by_attrs: Dict[AttrKey, Tuple[float, float]] = {}

    def set(self, value: float, **attrs: object) -> None:
        """Record the current level of the observed quantity: the
        one-write case of :meth:`set_many`."""
        self._put(value, attr_key(attrs) if attrs else (), attrs, self._registry.now())

    def set_many(self, writes: Iterable[Write]) -> None:
        """Record each ``(value, key, attrs)`` write, in order.

        The keyed many-series write of a gauge: the same as
        ``set(value, **attrs)`` per write (keys as in
        :meth:`Counter.inc_many`), all stamped with one clock reading.
        """
        now = self._registry.now()
        put = self._put
        for value, key, attrs in writes:
            put(value, key, attrs, now)

    def _put(
        self, value: float, key: AttrKey, attrs: Mapping[str, object], now: float
    ) -> None:
        """One keyed write at ``now``: the rule both ``set`` forms apply."""
        level = float(value)
        self._value = level
        self._updated_at = now
        if key:
            self._by_attrs[key] = (level, now)
        if self._registry.sink.enabled:
            self._emit(value, attrs)

    @property
    def value(self) -> Optional[float]:
        """Most recent value, or ``None`` if never set."""
        return self._value

    @property
    def updated_at(self) -> Optional[float]:
        """Sim time of the most recent write, or ``None`` if unset."""
        return self._updated_at

    def value_for(self, **attrs: object) -> Optional[float]:
        """Most recent value written under this attribute set."""
        entry = self._by_attrs.get(attr_key(attrs))
        return entry[0] if entry is not None else None


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative, Prometheus-style).

    Args:
        name: instrument name.
        registry: owning registry.
        buckets: strictly increasing upper bounds; an implicit +inf
            bucket catches the rest.
    """

    kind = HISTOGRAM

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float, **attrs: object) -> None:
        """Record one observation."""
        value = float(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[i] += 1
                break
        else:
            self._counts[-1] += 1
        self._sum += value
        self._count += 1
        if self._registry.sink.enabled:
            self._emit(value, attrs)

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative counts keyed by upper bound (``"+Inf"`` last)."""
        out: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.bounds, self._counts):
            running += n
            out[f"{bound:g}"] = running
        out["+Inf"] = running + self._counts[-1]
        return out


class MetricsRegistry:
    """Factory and directory for instruments, clock and sink in one.

    Args:
        sink: event destination; defaults to the free
            :class:`~repro.obs.sinks.NullSink`.
        clock: sim-time source; defaults to a constant 0.0 until a
            simulator binds its clock via :meth:`bind_clock`.
    """

    def __init__(
        self, sink: Optional[Sink] = None, clock: Optional[ClockFn] = None
    ) -> None:
        self.sink: Sink = sink if sink is not None else NullSink()
        self._clock: ClockFn = clock if clock is not None else (lambda: 0.0)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._tracer: Optional[object] = None

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        """Current time of the bound clock."""
        return self._clock()

    def bind_clock(self, clock: ClockFn) -> None:
        """Re-point the registry at a (new) simulation clock.

        The engine calls this when a run starts so that every
        instrument — wherever it was created — stamps events with that
        run's simulation time.
        """
        self._clock = clock

    # -- instrument factories (get-or-create, keyed by name) ------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name, self)
        return inst

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name, self)
        return inst

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed at
        first creation)."""
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, self, buckets)
        return inst

    @property
    def tracer(self):
        """The registry's tracer (created on first use)."""
        if self._tracer is None:
            # Deferred to break the metrics <-> tracing import cycle.
            from repro.obs.tracing import Tracer

            self._tracer = Tracer(self)
        return self._tracer

    # -- introspection --------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether the sink records events."""
        return self.sink.enabled

    @property
    def events(self) -> List[TelemetryEvent]:
        """The collected event log (empty unless the sink keeps one)."""
        if isinstance(self.sink, MemorySink):
            return list(self.sink.events)
        return []

    @property
    def counters(self) -> Dict[str, Counter]:
        """All counters by name (copy)."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        """All gauges by name (copy)."""
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """All histograms by name (copy)."""
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Aggregate state of every instrument, JSON-friendly."""
        out: Dict[str, Dict[str, object]] = {}
        for name, c in sorted(self._counters.items()):
            out[name] = {"kind": COUNTER, "value": c.value}
        for name, g in sorted(self._gauges.items()):
            out[name] = {"kind": GAUGE, "value": g.value}
        for name, h in sorted(self._histograms.items()):
            out[name] = {
                "kind": HISTOGRAM,
                "count": h.count,
                "sum": h.sum,
                "buckets": h.bucket_counts(),
            }
        return out

    # -- mergeable state (the shard-to-parent transport) ----------------
    def state(self) -> Dict[str, object]:
        """Full mergeable state of the registry, picklable.

        Unlike :meth:`snapshot` (a lossy human/exporter view), the
        state keeps everything :meth:`merge` needs to fold one
        registry into another losslessly: per-attribute counter
        series, gauge write timestamps, raw histogram bucket counts,
        and — when the sink records one — the event log.  This is the
        object a shard worker returns across the process boundary.
        """
        counters = {
            name: {"total": c._total, "series": dict(c._by_attrs)}
            for name, c in self._counters.items()
        }
        gauges = {
            name: {
                "value": g._value,
                "updated_at": g._updated_at,
                "series": dict(g._by_attrs),
            }
            for name, g in self._gauges.items()
        }
        histograms = {
            name: {
                "bounds": h.bounds,
                "counts": list(h._counts),
                "sum": h._sum,
                "count": h._count,
            }
            for name, h in self._histograms.items()
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "events": self.events,
        }

    def merge(self, other: object) -> "MetricsRegistry":
        """Fold another registry (or its :meth:`state`) into this one.

        Merge semantics per instrument family:

        - **counters** sum — the grand total and every per-attribute
          series;
        - **gauges** keep the last write by sim time (ties broken by
          the larger value, which keeps the merge commutative);
        - **histograms** add bucket-wise; both sides must share bucket
          bounds.

        Events are appended to this registry's sink when it keeps a
        log (a :class:`~repro.obs.sinks.MemorySink`) and re-sorted by
        time, so a merged timeline reads like one serial run.  Merging
        mutates aggregates directly and emits no new instrument
        events.

        Args:
            other: a :class:`MetricsRegistry` or a :meth:`state` dict.

        Returns:
            ``self``, for chaining over shard results.

        Raises:
            ValueError: a histogram exists on both sides with
                different bucket bounds.
        """
        state = other.state() if isinstance(other, MetricsRegistry) else other
        if not isinstance(state, Mapping):
            raise TypeError(
                f"merge() needs a MetricsRegistry or state dict, got {other!r}"
            )
        # repro: noqa[numeric-dict-reduction] each counter accumulates
        # independently per name; callers merge shards in index order
        for name, payload in state.get("counters", {}).items():
            counter = self.counter(name)
            counter._total += payload["total"]
            for key, value in payload["series"].items():
                counter._by_attrs[key] = counter._by_attrs.get(key, 0.0) + value
        for name, payload in state.get("gauges", {}).items():
            gauge = self.gauge(name)
            if payload["value"] is not None:
                incoming = (payload["value"], payload["updated_at"])
                if _gauge_write_wins(incoming, (gauge._value, gauge._updated_at)):
                    gauge._value, gauge._updated_at = incoming
            for key, entry in payload["series"].items():
                current = gauge._by_attrs.get(key)
                if current is None or _gauge_write_wins(entry, current):
                    gauge._by_attrs[key] = entry
        # repro: noqa[numeric-dict-reduction] each histogram accumulates
        # independently per name; callers merge shards in index order
        for name, payload in state.get("histograms", {}).items():
            hist = self.histogram(name, buckets=payload["bounds"])
            if hist.bounds != tuple(payload["bounds"]):
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ: "
                    f"{hist.bounds} vs {tuple(payload['bounds'])}"
                )
            for i, n in enumerate(payload["counts"]):
                hist._counts[i] += n
            hist._sum += payload["sum"]
            hist._count += payload["count"]
        events = state.get("events") or []
        if events and isinstance(self.sink, MemorySink):
            self.sink.events.extend(events)
            self.sink.events.sort(key=lambda e: e.time)
        return self
