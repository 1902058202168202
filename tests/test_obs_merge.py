"""Tests for MetricsRegistry.merge() — the shard-telemetry fold.

Merge semantics per instrument family: counters sum, gauges keep the
last write by sim time, histograms add bucket-wise.  The hypothesis
property at the bottom is the contract the parallel engine relies on:
folding shard registries in *any* order reproduces the single-registry
serial run.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink


class ManualClock:
    """A settable sim-time source for deterministic gauge stamps."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def registry_at(t=0.0, sink=None):
    clock = ManualClock(t)
    reg = MetricsRegistry(sink=sink, clock=clock)
    return reg, clock


class TestCounterMerge:
    def test_totals_sum(self):
        a, _ = registry_at()
        b, _ = registry_at()
        a.counter("reqs").inc(3)
        b.counter("reqs").inc(4)
        a.merge(b)
        assert a.counter("reqs").value == 7.0

    def test_series_sum_per_attribute_set(self):
        a, _ = registry_at()
        b, _ = registry_at()
        a.counter("reqs").inc(1, phone="x")
        b.counter("reqs").inc(2, phone="x")
        b.counter("reqs").inc(5, phone="y")
        a.merge(b)
        assert a.counter("reqs").value_for(phone="x") == 3.0
        assert a.counter("reqs").value_for(phone="y") == 5.0

    def test_missing_counter_is_created(self):
        a, _ = registry_at()
        b, _ = registry_at()
        b.counter("only.b").inc(2)
        a.merge(b)
        assert a.counter("only.b").value == 2.0


class TestGaugeMerge:
    def test_later_write_wins(self):
        a, ca = registry_at()
        b, cb = registry_at()
        ca.t = 1.0
        a.gauge("level").set(10.0)
        cb.t = 2.0
        b.gauge("level").set(20.0)
        a.merge(b)
        assert a.gauge("level").value == 20.0
        assert a.gauge("level").updated_at == 2.0

    def test_earlier_write_does_not_overwrite(self):
        a, ca = registry_at()
        b, cb = registry_at()
        ca.t = 5.0
        a.gauge("level").set(10.0)
        cb.t = 2.0
        b.gauge("level").set(20.0)
        a.merge(b)
        assert a.gauge("level").value == 10.0
        assert a.gauge("level").updated_at == 5.0

    def test_tie_breaks_to_larger_value(self):
        a, ca = registry_at()
        b, cb = registry_at()
        ca.t = cb.t = 3.0
        a.gauge("level").set(10.0)
        b.gauge("level").set(20.0)
        a.merge(b)
        assert a.gauge("level").value == 20.0
        # And the merge is symmetric: the larger value wins either way.
        c, cc = registry_at()
        cc.t = 3.0
        c.gauge("level").set(20.0)
        d, cd = registry_at()
        cd.t = 3.0
        d.gauge("level").set(10.0)
        c.merge(d)
        assert c.gauge("level").value == 20.0

    def test_unset_incoming_gauge_leaves_value(self):
        a, ca = registry_at()
        b, _ = registry_at()
        ca.t = 1.0
        a.gauge("level").set(10.0)
        b.gauge("level")  # created but never set
        a.merge(b)
        assert a.gauge("level").value == 10.0

    def test_attribute_series_merge_by_time(self):
        a, ca = registry_at()
        b, cb = registry_at()
        ca.t = 1.0
        a.gauge("level").set(10.0, room="r1")
        cb.t = 2.0
        b.gauge("level").set(20.0, room="r1")
        b.gauge("level").set(30.0, room="r2")
        a.merge(b)
        assert a.gauge("level").value_for(room="r1") == 20.0
        assert a.gauge("level").value_for(room="r2") == 30.0


class TestHistogramMerge:
    def test_bucketwise_addition(self):
        a, _ = registry_at()
        b, _ = registry_at()
        bounds = (1.0, 5.0)
        for v in (0.5, 3.0):
            a.histogram("lat", buckets=bounds).observe(v)
        for v in (0.7, 99.0):
            b.histogram("lat", buckets=bounds).observe(v)
        a.merge(b)
        hist = a.histogram("lat", buckets=bounds)
        assert hist.count == 4
        assert hist.sum == pytest.approx(0.5 + 3.0 + 0.7 + 99.0)
        assert hist.bucket_counts() == {"1": 2, "5": 3, "+Inf": 4}

    def test_missing_histogram_created_with_incoming_bounds(self):
        a, _ = registry_at()
        b, _ = registry_at()
        b.histogram("lat", buckets=(2.0, 4.0)).observe(3.0)
        a.merge(b)
        assert a.histogram("lat").bounds == (2.0, 4.0)
        assert a.histogram("lat").count == 1

    def test_bound_mismatch_raises(self):
        a, _ = registry_at()
        b, _ = registry_at()
        a.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        b.histogram("lat", buckets=(3.0, 4.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge(b)


class TestMergeProtocol:
    def test_accepts_state_dict_and_returns_self(self):
        a, _ = registry_at()
        b, _ = registry_at()
        b.counter("reqs").inc(2)
        assert a.merge(b.state()) is a
        assert a.counter("reqs").value == 2.0

    def test_rejects_non_state_objects(self):
        a, _ = registry_at()
        with pytest.raises(TypeError):
            a.merge(42)

    def test_state_survives_pickling(self):
        b, cb = registry_at()
        cb.t = 3.0
        b.counter("reqs").inc(2, phone="x")
        b.gauge("level").set(7.0)
        b.histogram("lat", buckets=(1.0,)).observe(0.4)
        revived = pickle.loads(pickle.dumps(b.state()))
        a, _ = registry_at()
        a.merge(revived)
        assert a.counter("reqs").value_for(phone="x") == 2.0
        assert a.gauge("level").value == 7.0
        assert a.gauge("level").updated_at == 3.0
        assert a.histogram("lat").count == 1

    def test_events_append_and_resort(self):
        a, ca = registry_at(sink=MemorySink())
        b, cb = registry_at(sink=MemorySink())
        ca.t = 5.0
        a.counter("reqs").inc(1)
        cb.t = 2.0
        b.counter("reqs").inc(1)
        a.merge(b)
        assert [e.time for e in a.events] == [2.0, 5.0]

    def test_merge_emits_no_new_events(self):
        a, _ = registry_at(sink=MemorySink())
        b, _ = registry_at()  # NullSink: no event log travels
        b.counter("reqs").inc(3)
        b.gauge("level").set(1.0)
        a.merge(b)
        assert a.events == []


# -- the serial-equivalence property ------------------------------------

_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # shard index
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.sampled_from(["m1", "m2"]),
        # Integer-valued floats: sums are exact regardless of the
        # order shards fold in, so equality can be bitwise.
        st.integers(min_value=0, max_value=100).map(float),
    ),
    max_size=25,
)


@settings(deadline=None, max_examples=50)
@given(ops=_OPS, order=st.permutations([0, 1, 2]))
def test_merging_shards_in_any_order_equals_serial_run(ops, order):
    """Shard registries folded in any order == one serial registry.

    Each operation carries a unique sim time (its sequence index), so
    the serial run's last gauge write is well defined and last-write-
    by-time merging must reproduce it exactly.
    """
    serial, serial_clock = registry_at()
    shard_regs = []
    shard_clocks = []
    for _ in range(3):
        reg, clock = registry_at()
        shard_regs.append(reg)
        shard_clocks.append(clock)

    for t, (shard, kind, name, value) in enumerate(ops):
        serial_clock.t = float(t)
        shard_clocks[shard].t = float(t)
        for reg in (serial, shard_regs[shard]):
            if kind == "counter":
                reg.counter(name).inc(value)
            elif kind == "gauge":
                reg.gauge(name).set(value)
            else:
                reg.histogram(name, buckets=(10.0, 50.0)).observe(value)

    merged, _ = registry_at()
    for i in order:
        merged.merge(shard_regs[i].state())

    merged_state = merged.state()
    serial_state = serial.state()
    assert merged_state == serial_state
