"""Exact views of a metrics registry's books, for comparing two.

Floats are compared through ``repr`` (shortest round trip), so two
views are equal only when every total, level and time is bit for bit
the same.
"""


def counter_books(registry, names):
    """Each counter's grand total and per-series totals."""
    out = {}
    for name in names:
        counter = registry.counter(name)
        out[name] = (
            repr(counter.value),
            sorted((key, repr(value)) for key, value in counter.series.items()),
        )
    return out


def gauge_books(registry, names):
    """Each gauge's value, write time and per-series ``(value, time)``."""
    out = {}
    for name in names:
        gauge = registry.gauge(name)
        series = registry.state()["gauges"][name]["series"]
        out[name] = (
            repr(gauge.value),
            repr(gauge.updated_at),
            sorted((key, repr(level), repr(time)) for key, (level, time) in series.items()),
        )
    return out


def event_log(registry, names):
    """The recorded events of ``names``, in order."""
    return [
        (e.name, e.kind, repr(e.time), repr(e.value), tuple(e.attrs.items()))
        for e in registry.events
        if e.name in names
    ]
