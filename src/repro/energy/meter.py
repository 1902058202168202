"""Energy metering: per-component accounting over a simulated run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.energy.battery import Battery
from repro.obs.metrics import AttrKey, MetricsRegistry, attr_key

__all__ = ["EnergyBreakdown", "EnergyMeter", "charge_meters"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component over a metered interval.

    Attributes:
        duration_s: metered wall-clock (simulation) time.
        components_j: component name -> joules consumed.
    """

    duration_s: float
    components_j: Dict[str, float]

    @property
    def total_j(self) -> float:
        """Total energy across components."""
        # repro: noqa[numeric-dict-reduction] components are inserted in
        # the fixed order the meter charges them, identical every run
        return sum(self.components_j.values())

    @property
    def average_power_w(self) -> float:
        """Mean power over the interval."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.total_j / self.duration_s

    def fraction(self, component: str) -> float:
        """Share of total energy attributable to ``component``."""
        total = self.total_j
        if total <= 0.0:
            return 0.0
        return self.components_j.get(component, 0.0) / total

    def to_text(self) -> str:
        """ASCII table of the breakdown."""
        lines = [f"{'component':<16}{'J':>10}{'share':>8}"]
        for name in sorted(self.components_j, key=self.components_j.get, reverse=True):
            lines.append(
                f"{name:<16}{self.components_j[name]:>10.1f}{self.fraction(name):>8.1%}"
            )
        lines.append(f"{'TOTAL':<16}{self.total_j:>10.1f}{'':>8}")
        return "\n".join(lines)


class EnergyMeter:
    """Accumulates component energy, optionally draining a battery.

    Args:
        battery: drained in step with the metered energy when given.
        registry: telemetry registry; defaults to a no-op one.  Every
            charge emits an ``energy.joules`` counter sample split by
            component, and the battery level (when present) is tracked
            by the ``energy.battery_soc`` gauge.
        device: value of the ``device`` attribute on emitted telemetry.
    """

    def __init__(
        self,
        battery: Optional[Battery] = None,
        registry: Optional[MetricsRegistry] = None,
        device: str = "",
    ) -> None:
        self.battery = battery
        self._components: Dict[str, float] = {}
        self._duration_s = 0.0
        self.obs = registry if registry is not None else MetricsRegistry()
        self._c_joules = self.obs.counter("energy.joules")
        self._g_soc = self.obs.gauge("energy.battery_soc")
        # Telemetry attributes and series keys, worked out once: the
        # device's, and per component (component before device, the
        # attribute order the events carry).
        self._attrs = {"device": device} if device else {}
        self._key = attr_key(self._attrs)
        self._component_series: Dict[str, Tuple[AttrKey, Dict[str, object]]] = {}

    def charge_power(self, component: str, power_w: float, duration_s: float) -> None:
        """Account ``power_w`` drawn for ``duration_s`` seconds."""
        if power_w < 0.0:
            raise ValueError(f"power must be >= 0, got {power_w}")
        if duration_s < 0.0:
            raise ValueError(f"duration must be >= 0, got {duration_s}")
        self.charge_energy(component, power_w * duration_s)

    def charge_energy(self, component: str, energy_j: float) -> None:
        """Account a discrete energy cost (e.g. one radio burst): the
        one-meter, one-charge case of :func:`charge_meters`."""
        charge_meters((self,), 0.0, (((component, energy_j),),))

    def advance(self, duration_s: float) -> None:
        """Extend the metered interval (time passes, no direct cost):
        the one-meter case of :func:`charge_meters` with no charge."""
        charge_meters((self,), duration_s, ((),))

    def _series(self, component: str) -> Tuple[AttrKey, Dict[str, object]]:
        """The ``energy.joules`` series key and attributes of
        ``component`` on this meter."""
        series = self._component_series.get(component)
        if series is None:
            attrs = {"component": component, **self._attrs}
            series = self._component_series[component] = (attr_key(attrs), attrs)
        return series

    @property
    def duration_s(self) -> float:
        """Metered interval length so far."""
        return self._duration_s

    @property
    def total_j(self) -> float:
        """Total energy accounted so far."""
        # repro: noqa[numeric-dict-reduction] component keys are charged
        # in deterministic simulation order, so insertion order replays
        return sum(self._components.values())

    def breakdown(self) -> EnergyBreakdown:
        """Snapshot of the per-component accounting."""
        return EnergyBreakdown(
            duration_s=self._duration_s, components_j=dict(self._components)
        )

    def reset(self) -> None:
        """Zero all counters (battery state is left as is)."""
        self._components.clear()
        self._duration_s = 0.0


def charge_meters(
    meters: Sequence[EnergyMeter],
    duration_s: float,
    charges: Sequence[Sequence[Tuple[str, float]]],
) -> None:
    """Advance each meter by ``duration_s`` and charge it its
    ``(component, energy_j)`` pairs, meter by meter.

    The fleet form of the meter's books: ``charges[i]`` goes to
    ``meters[i]``, and the result is that of ``meters[i].advance(
    duration_s)`` and then one :meth:`EnergyMeter.charge_energy` per
    pair, for each meter in turn, so components, batteries and the
    ``energy.joules`` total add in that order.  ``advance`` and
    ``charge_energy`` are its one-meter cases.

    ``energy.joules`` takes one keyed write per charge, and
    ``energy.battery_soc`` each meter's battery level after its last
    charge: the charges before it write that series at the same clock
    reading, so the last write is all they leave.  A recording sink
    logs every write, so there the meters are booked one charge at a
    time, each charge's joules and then its level, as ``charge_energy``
    calls would log them; so are meters that book to different
    registries.

    Raises:
        ValueError: a negative duration or energy, or ``charges`` not
            of one entry per meter; nothing is booked.
    """
    if len(charges) != len(meters):
        raise ValueError("charges must hold one entry per meter")
    if duration_s < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration_s}")
    for meter_charges in charges:
        for _, energy_j in meter_charges:
            if energy_j < 0.0:
                raise ValueError(f"energy must be >= 0, got {energy_j}")
    if not meters:
        return
    obs = meters[0].obs
    if (len(meters) > 1 or len(charges[0]) > 1) and (
        obs.enabled or any(meter.obs is not obs for meter in meters)
    ):
        for meter, meter_charges in zip(meters, charges):
            charge_meters((meter,), duration_s, ((),))
            for charge in meter_charges:
                charge_meters((meter,), 0.0, ((charge,),))
        return
    joules = []
    levels = []
    for meter, meter_charges in zip(meters, charges):
        meter._duration_s += duration_s
        if not meter_charges:
            continue
        components = meter._components
        battery = meter.battery
        for component, energy_j in meter_charges:
            components[component] = components.get(component, 0.0) + energy_j
            key, attrs = meter._series(component)
            joules.append((energy_j, key, attrs))
            if battery is not None:
                battery.drain(energy_j)
        if battery is not None:
            levels.append((battery.soc, meter._key, meter._attrs))
    meters[0]._c_joules.inc_many(joules)
    meters[0]._g_soc.set_many(levels)
