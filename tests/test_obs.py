"""Unit tests for the repro.obs telemetry layer."""

import pytest

from repro.obs import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    SPAN_END,
    SPAN_START,
    MemorySink,
    MetricsRegistry,
    NullSink,
    TelemetryEvent,
    read_jsonl,
    render_prometheus,
    render_timeline,
    to_jsonl,
    write_jsonl,
)
from repro.obs.metrics import attr_key
from repro.obs.profiling import WallClockProfiler
from repro.obs.report import main as report_main
from repro.obs.report import summarise
from tests.registry_state import counter_books, event_log, gauge_books


def recording_registry(t0=0.0):
    clock = {"t": t0}
    registry = MetricsRegistry(sink=MemorySink(), clock=lambda: clock["t"])
    return registry, clock


class TestCounter:
    def test_accumulates_and_splits_by_attrs(self):
        registry = MetricsRegistry()
        counter = registry.counter("test.hits")
        counter.inc()
        counter.inc(2.0, phone="alice")
        counter.inc(3.0, phone="bob")
        counter.inc(4.0, phone="alice")
        assert counter.value == 10.0
        assert counter.value_for(phone="alice") == 6.0
        assert counter.value_for(phone="bob") == 3.0
        assert counter.value_for(phone="carol") == 0.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("test.hits").inc(-1.0)

    def test_emits_timestamped_events(self):
        registry, clock = recording_registry()
        counter = registry.counter("test.hits")
        counter.inc()
        clock["t"] = 5.0
        counter.inc(2.0, phone="alice")
        events = registry.events
        assert [e.kind for e in events] == [COUNTER, COUNTER]
        assert [e.time for e in events] == [0.0, 5.0]
        assert events[1].value == 2.0
        assert events[1].attrs == {"phone": "alice"}
        assert events[1].source == "test"

    def test_null_sink_emits_nothing_but_still_aggregates(self):
        registry = MetricsRegistry(sink=NullSink())
        registry.counter("test.hits").inc(7.0)
        assert registry.events == []
        assert registry.counter("test.hits").value == 7.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.counter("a.b") is not registry.counter("a.c")


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("test.depth")
        assert gauge.value is None
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_attr_series_tracked_separately(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("test.soc")
        gauge.set(0.9, device="alice")
        gauge.set(0.5, device="bob")
        assert gauge.value_for(device="alice") == 0.9
        assert gauge.value_for(device="bob") == 0.5
        assert gauge.value_for(device="carol") is None

    def test_emits_gauge_events(self):
        registry, _ = recording_registry()
        registry.gauge("test.depth").set(4.0)
        (event,) = registry.events
        assert event.kind == GAUGE
        assert event.value == 4.0


#: (instrument kind, value, attributes in keyword order) of one write.
_KEYED_WRITES = [
    ("counter", 1.0, {"room": "kitchen"}),
    ("counter", 2.0, {"room": "kitchen", "device": "d1"}),
    ("counter", 3.0, {"device": "d1", "room": "kitchen"}),
    ("counter", 4.0, {"device": "d2"}),
    ("gauge", 5.0, {"room": "hall"}),
    ("gauge", 6.0, {"room": "hall", "device": "d2"}),
    ("gauge", 7.0, {"device": "d2", "room": "hall"}),
    ("counter", 8.0, {"room": "kitchen"}),
    ("gauge", 9.0, {"room": "hall"}),
]


def _write(registry, kind, value, attrs):
    if kind == "counter":
        registry.counter("test.hits").inc(value, **attrs)
    else:
        registry.gauge("test.level").set(value, **attrs)


class TestAttributeKeys:
    """One- and two-label series are keyed by their labels sorted by
    name, whatever the keyword order of the write or the read."""

    def test_keyword_order_lands_in_one_series(self):
        registry, clock = recording_registry()
        for t, write in enumerate(_KEYED_WRITES):
            clock["t"] = float(t)
            _write(registry, *write)
        counter = registry.counter("test.hits")
        gauge = registry.gauge("test.level")
        assert counter.series == {
            (("room", "kitchen"),): 9.0,
            (("device", "d1"), ("room", "kitchen")): 5.0,
            (("device", "d2"),): 4.0,
        }
        assert counter.value == 18.0
        assert counter.value_for(room="kitchen") == 9.0
        assert counter.value_for(room="kitchen", device="d1") == 5.0
        assert counter.value_for(device="d1", room="kitchen") == 5.0
        assert counter.value_for(device="d1") == 0.0
        assert registry.state()["gauges"]["test.level"]["series"] == {
            (("room", "hall"),): (9.0, 8.0),
            (("device", "d2"), ("room", "hall")): (7.0, 6.0),
        }
        assert gauge.value_for(room="hall") == 9.0
        assert gauge.value_for(room="hall", device="d2") == 7.0
        assert gauge.value_for(device="d2", room="hall") == 7.0
        # The events keep each write's own attributes.
        assert [e.attrs for e in registry.events] == [a for _, _, a in _KEYED_WRITES]

    def test_merged_shard_states_equal_the_parent(self):
        """Writes split over shard registries merge to the totals and
        series of one registry that took them all."""
        parent, clock = recording_registry()
        shards = [MetricsRegistry(clock=lambda: clock["t"]) for _ in range(3)]
        for t, write in enumerate(_KEYED_WRITES):
            clock["t"] = float(t)
            _write(parent, *write)
            _write(shards[t % 3], *write)
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge(shard.state())
        expected = parent.state()
        got = merged.state()
        assert got["counters"] == expected["counters"]
        assert got["gauges"] == expected["gauges"]


#: (value, attributes in keyword order) of keyed writes: repeated,
#: reordered, one-label and unlabelled series, and values whose sum
#: depends on the order it is taken in.
_MANY_WRITES = [
    (0.1, {"component": "baseline", "device": "a"}),
    (0.2, {"phone": "b"}),
    (0.3, {}),
    (0.7, {"device": "a", "component": "baseline"}),
    (1e16, {"component": "ble_scan", "device": "c"}),
    (1.0, {"phone": "b"}),
    (0.0, {"component": "uplink_idle", "device": "a"}),
]


class TestKeyedWrites:
    """``inc_many``/``set_many`` against one-write calls in order, on
    twin registries that already hold some of the series."""

    def twins(self, recording):
        clock = {"t": 3.0}
        twins = []
        for _ in range(2):
            sink = MemorySink() if recording else NullSink()
            registry = MetricsRegistry(sink=sink, clock=lambda: clock["t"])
            registry.counter("test.hits").inc(0.3, component="baseline", device="a")
            registry.gauge("test.level").set(0.9, device="a")
            twins.append(registry)
        clock["t"] = 5.0
        return twins

    @staticmethod
    def keyed(writes):
        return [(value, attr_key(attrs), attrs) for value, attrs in writes]

    @pytest.mark.parametrize("recording", [False, True])
    def test_inc_many_is_inc_per_write(self, recording):
        one, many = self.twins(recording)
        for value, attrs in _MANY_WRITES:
            one.counter("test.hits").inc(value, **attrs)
        many.counter("test.hits").inc_many(self.keyed(_MANY_WRITES))
        assert counter_books(many, ["test.hits"]) == counter_books(one, ["test.hits"])
        assert event_log(many, ["test.hits"]) == event_log(one, ["test.hits"])
        assert len(event_log(many, ["test.hits"])) == (
            len(_MANY_WRITES) + 1 if recording else 0
        )
        # The total is the left-to-right sum of the writes.
        total = 0.3
        for value, _ in _MANY_WRITES:
            total += value
        assert repr(many.counter("test.hits").value) == repr(total)

    @pytest.mark.parametrize("recording", [False, True])
    def test_set_many_is_set_per_write(self, recording):
        one, many = self.twins(recording)
        for value, attrs in _MANY_WRITES:
            one.gauge("test.level").set(value, **attrs)
        many.gauge("test.level").set_many(self.keyed(_MANY_WRITES))
        assert gauge_books(many, ["test.level"]) == gauge_books(one, ["test.level"])
        assert event_log(many, ["test.level"]) == event_log(one, ["test.level"])
        assert many.gauge("test.level").updated_at == 5.0

    def test_events_carry_each_writes_attribute_order(self):
        _, many = self.twins(recording=True)
        many.counter("test.hits").inc_many(self.keyed(_MANY_WRITES))
        logged = [e.attrs for e in many.events if e.time == 5.0]
        assert [list(a) for a in logged] == [list(a) for _, a in _MANY_WRITES]

    @pytest.mark.parametrize("recording", [False, True])
    def test_a_negative_write_raises_after_the_writes_before_it(self, recording):
        writes = [(1.0, {"phone": "b"}), (-1.0, {"phone": "b"}), (2.0, {"phone": "b"})]
        one, many = self.twins(recording)
        with pytest.raises(ValueError, match="must be >= 0"):
            for value, attrs in writes:
                one.counter("test.hits").inc(value, **attrs)
        with pytest.raises(ValueError, match="must be >= 0"):
            many.counter("test.hits").inc_many(self.keyed(writes))
        assert counter_books(many, ["test.hits"]) == counter_books(one, ["test.hits"])
        assert event_log(many, ["test.hits"]) == event_log(one, ["test.hits"])

    def test_a_level_that_is_no_number_raises_after_the_writes_before_it(self):
        writes = [(0.5, {"device": "a"}), ("full", {"device": "b"}), (0.2, {})]
        one, many = self.twins(recording=True)
        with pytest.raises(ValueError):
            for value, attrs in writes:
                one.gauge("test.level").set(value, **attrs)
        with pytest.raises(ValueError):
            many.gauge("test.level").set_many(self.keyed(writes))
        assert gauge_books(many, ["test.level"]) == gauge_books(one, ["test.level"])
        assert event_log(many, ["test.level"]) == event_log(one, ["test.level"])

    def test_no_writes_change_nothing(self):
        one, many = self.twins(recording=True)
        many.counter("test.hits").inc_many([])
        many.gauge("test.level").set_many([])
        assert counter_books(many, ["test.hits"]) == counter_books(one, ["test.hits"])
        assert gauge_books(many, ["test.level"]) == gauge_books(one, ["test.level"])
        assert many.events == one.events


class TestHistogram:
    def test_bucketing_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("test.lat", buckets=[1.0, 5.0])
        for v in [0.5, 0.7, 3.0, 100.0]:
            hist.observe(v)
        assert hist.count == 4
        assert hist.sum == pytest.approx(104.2)
        assert hist.mean == pytest.approx(104.2 / 4)
        assert hist.bucket_counts() == {"1": 2, "5": 3, "+Inf": 4}

    def test_boundary_lands_in_lower_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("test.lat", buckets=[1.0, 5.0])
        hist.observe(1.0)
        assert hist.bucket_counts()["1"] == 1

    def test_invalid_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("test.bad", buckets=[])
        with pytest.raises(ValueError):
            registry.histogram("test.bad2", buckets=[2.0, 1.0])

    def test_emits_histogram_events(self):
        registry, _ = recording_registry()
        registry.histogram("test.lat", buckets=[1.0]).observe(0.3)
        (event,) = registry.events
        assert event.kind == HISTOGRAM
        assert event.value == 0.3


class TestSpans:
    def test_nesting_records_parents_and_durations(self):
        registry, clock = recording_registry()
        tracer = registry.tracer
        with tracer.span("outer.op", phone="alice") as outer:
            clock["t"] = 1.0
            with tracer.span("inner.op") as inner:
                clock["t"] = 3.0
            assert tracer.depth == 1
        assert tracer.depth == 0
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.duration == 2.0
        assert outer.duration == 3.0
        kinds = [e.kind for e in registry.events]
        assert kinds == [SPAN_START, SPAN_START, SPAN_END, SPAN_END]
        end_inner = registry.events[2]
        assert end_inner.name == "inner.op"
        assert end_inner.value == 2.0
        assert end_inner.attrs["parent_id"] == outer.span_id

    def test_out_of_order_close_raises(self):
        registry, _ = recording_registry()
        tracer = registry.tracer
        a = tracer.span("a.x")
        b = tracer.span("b.x")
        a.__enter__()
        b.__enter__()
        with pytest.raises(RuntimeError):
            a.__exit__(None, None, None)

    def test_empty_span_name_rejected(self):
        registry, _ = recording_registry()
        with pytest.raises(ValueError):
            registry.tracer.span("")

    def test_null_sink_spans_are_silent(self):
        registry = MetricsRegistry()
        with registry.tracer.span("quiet.op"):
            pass
        assert registry.events == []


class TestEventModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TelemetryEvent(time=0.0, kind="bogus", name="x", value=1.0)

    def test_dict_round_trip(self):
        event = TelemetryEvent(
            time=1.5, kind=COUNTER, name="a.b", value=2.0, attrs={"k": "v"}
        )
        assert TelemetryEvent.from_dict(event.to_dict()) == event


class TestExporters:
    def _sample_events(self):
        registry, clock = recording_registry()
        registry.counter("phone.scans").inc(3.0, phone="alice")
        clock["t"] = 2.0
        registry.gauge("sim.queue_depth").set(5.0)
        with registry.tracer.span("core.cycle"):
            clock["t"] = 4.0
        registry.histogram("server.lat", buckets=[1.0]).observe(0.5)
        return registry

    def test_jsonl_round_trip_in_memory(self):
        registry = self._sample_events()
        events = registry.events
        assert read_jsonl(to_jsonl(events).splitlines()) == events

    def test_jsonl_round_trip_via_file(self, tmp_path):
        registry = self._sample_events()
        path = tmp_path / "events.jsonl"
        count = write_jsonl(registry.events, path)
        assert count == len(registry.events)
        assert read_jsonl(path) == registry.events

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_prometheus_rendering(self):
        registry = self._sample_events()
        text = render_prometheus(registry)
        assert "# TYPE phone_scans counter" in text
        assert 'phone_scans_total{phone="alice"} 3' in text
        assert "sim_queue_depth 5" in text
        assert 'server_lat_bucket{le="+Inf"} 1' in text

    def test_timeline_lists_every_source(self):
        registry = self._sample_events()
        text = render_timeline(registry.events, width=20)
        for source in ("phone", "sim", "core", "server"):
            assert source in text

    def test_timeline_empty_log(self):
        assert "empty" in render_timeline([])

    def test_report_summarise_round_trip(self):
        registry = self._sample_events()
        text = summarise(registry.events, width=30)
        assert "phone.scans" in text
        assert "core.cycle" in text
        assert "mean_duration" in text

    def test_report_cli(self, tmp_path, capsys):
        registry = self._sample_events()
        path = tmp_path / "events.jsonl"
        write_jsonl(registry.events, path)
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "counters (total over run):" in out
        assert report_main([str(tmp_path / "missing.jsonl")]) == 2


class TestSnapshot:
    def test_snapshot_covers_every_instrument(self):
        registry, _ = recording_registry()
        registry.counter("a.c").inc(2.0)
        registry.gauge("a.g").set(1.0)
        registry.histogram("a.h", buckets=[1.0]).observe(0.5)
        snap = registry.snapshot()
        assert snap["a.c"] == {"kind": COUNTER, "value": 2.0}
        assert snap["a.g"] == {"kind": GAUGE, "value": 1.0}
        assert snap["a.h"]["count"] == 1

    def test_bind_clock_rebinds_existing_instruments(self):
        registry, _ = recording_registry()
        counter = registry.counter("a.c")
        registry.bind_clock(lambda: 42.0)
        counter.inc()
        assert registry.events[-1].time == 42.0


class TestWallClockProfiler:
    def test_accumulates_labelled_sections(self):
        profiler = WallClockProfiler()
        with profiler.measure("work"):
            pass
        with profiler.measure("work"):
            pass
        assert profiler.count("work") == 2
        assert profiler.totals()["work"] >= 0.0
        assert "work" in profiler.to_text()

    def test_empty_label_rejected(self):
        profiler = WallClockProfiler()
        with pytest.raises(ValueError):
            with profiler.measure(""):
                pass
