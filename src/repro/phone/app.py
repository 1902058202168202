"""The client application state machine (paper Figure 3).

Boot Handler -> Background Service -> Monitoring Service -> Ranging
Service.  Monitoring raises region enter/exit events; ranging runs only
while inside a region, converts per-beacon RSSI to distance estimates
through the path-loss inversion and the paper's history filter, and
emits a :class:`SightingReport` per scan cycle for the uplink to the
BMS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.building.mobility import MobilityModel
from repro.filters.tracker import BeaconTracker, paper_filter_bank
from repro.ibeacon.region import BeaconRegion, RegionEvent, RegionEventKind
from repro.phone.scanner import ScanCycle, Scanner
from repro.radio.pathloss import distance_from_rssi

__all__ = ["AppState", "RangedBeacon", "SightingReport", "OccupancyApp"]


class AppState(enum.Enum):
    """Lifecycle states of the client app (Figure 3)."""

    OFF = "off"
    BOOTED = "booted"
    MONITORING = "monitoring"
    RANGING = "ranging"


@dataclass(frozen=True)
class RangedBeacon:
    """One beacon's ranging output for a scan cycle.

    Attributes:
        beacon_id: beacon identity ("major-minor").
        rssi: filtered RSSI estimate, dBm.
        distance_m: estimated distance from the path-loss inversion of
            the filtered RSSI.
        held: True when the value was carried over a missed scan by
            the loss-tolerance policy.
    """

    beacon_id: str
    rssi: float
    distance_m: float
    held: bool


@dataclass(frozen=True)
class SightingReport:
    """The per-cycle payload the app uploads to the BMS.

    Attributes:
        device_id: identifies the reporting phone/occupant.
        time: end of the scan cycle, seconds.
        beacons: ranged beacons, sorted by beacon id.
    """

    device_id: str
    time: float
    beacons: List[RangedBeacon]

    def distances(self) -> Dict[str, float]:
        """beacon_id -> estimated distance, for the classifier."""
        return {b.beacon_id: b.distance_m for b in self.beacons}

    def to_sighting(self) -> Dict[str, Any]:
        """The report as one sighting of the BMS wire format."""
        return {
            "device_id": self.device_id,
            "time": self.time,
            "beacons": self.distances(),
        }

    def rssis(self) -> Dict[str, float]:
        """beacon_id -> filtered RSSI, for RSSI-feature classifiers."""
        return {b.beacon_id: b.rssi for b in self.beacons}


class OccupancyApp:
    """The Android client app of the paper, as a simulation component.

    Args:
        device_id: reported to the server with each sighting.
        scanner: platform scanner bound to the air interface.
        region: the monitored iBeacon region (app and transmitters must
            share the region UUID - the one-time setup of Section IV.C).
        tracker: per-beacon filter bank; defaults to the paper's
            configuration (EWMA 0.65, evict at 2nd consecutive loss).
        path_loss_exponent: exponent used by the ranging inversion.
        on_report: callback invoked with each
            :class:`SightingReport` (the uplink; wired to a
            :class:`~repro.comms.uplink.Uplink` in the full system).
        on_region_event: callback for region enter/exit events.
    """

    def __init__(
        self,
        device_id: str,
        scanner: Scanner,
        region: BeaconRegion,
        *,
        tracker: Optional[BeaconTracker] = None,
        path_loss_exponent: float = 2.2,
        on_report: Optional[Callable[[SightingReport], None]] = None,
        on_region_event: Optional[Callable[[RegionEvent], None]] = None,
    ) -> None:
        if path_loss_exponent <= 0.0:
            raise ValueError(
                f"path_loss_exponent must be positive, got {path_loss_exponent}"
            )
        self.device_id = device_id
        self.scanner = scanner
        self.region = region
        self.tracker = tracker if tracker is not None else paper_filter_bank()
        self.path_loss_exponent = float(path_loss_exponent)
        self.on_report = on_report
        self.on_region_event = on_region_event
        self.state = AppState.OFF
        self.region_events: List[RegionEvent] = []
        self.reports: List[SightingReport] = []
        self._tx_power_by_beacon: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle (Figure 3)
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Boot Handler: OS boot completed, launch the background
        service (which turns on Bluetooth and starts monitoring)."""
        if self.state is not AppState.OFF:
            raise RuntimeError(f"cannot boot from state {self.state}")
        self.state = AppState.BOOTED
        self._start_background_service()

    def _start_background_service(self) -> None:
        """Background Service: enable Bluetooth, start monitoring."""
        self.state = AppState.MONITORING

    def shutdown(self) -> None:
        """Stop all services and forget tracked beacons."""
        self.state = AppState.OFF
        self.tracker.reset()
        self._tx_power_by_beacon.clear()

    # ------------------------------------------------------------------
    # Per-cycle processing
    # ------------------------------------------------------------------
    def run_cycle(
        self, trajectory: MobilityModel, t_start: float
    ) -> Optional[SightingReport]:
        """Run one scan cycle at ``t_start`` along the phone's
        ``trajectory``.

        While MONITORING, a cycle that sees any in-region beacon raises
        an ENTER event and switches to RANGING; while RANGING, the
        cycle produces a ranging report, and the region is exited when
        the tracker holds no live beacons anymore.

        Returns:
            The cycle's :class:`SightingReport` while ranging, else
            ``None``.
        """
        if self.state in (AppState.OFF, AppState.BOOTED):
            raise RuntimeError(f"app not started (state {self.state}); call boot()")
        cycle = self.scanner.scan_cycle(trajectory, t_start)
        in_region = self._in_region_samples(cycle)

        if self.state is AppState.MONITORING:
            if not in_region:
                return None
            self._emit_region_event(cycle.t_end, RegionEventKind.ENTER)
            self.state = AppState.RANGING
            # Fall through: the same cycle's data feeds the first
            # ranging update (the Ranging Service is started "as soon
            # as the device entered in a region").

        report = self._range(cycle, in_region)
        if not self.tracker.live_beacons:
            self._emit_region_event(cycle.t_end, RegionEventKind.EXIT)
            self.state = AppState.MONITORING
            # Forget the cached TX calibration bytes along with the
            # region: they belong to the sighting history, and keeping
            # them across an exit leaks one entry per beacon ever seen
            # (re-entry re-learns them from the next decoded payload).
            self._tx_power_by_beacon.clear()
            return None
        self.reports.append(report)
        if self.on_report is not None:
            self.on_report(report)
        return report

    def _in_region_samples(self, cycle: ScanCycle) -> Dict[str, float]:
        """Per-beacon mean RSSI of this cycle, filtered to the
        monitored region, remembering each beacon's TX power field.

        Region matching and the TX power byte both come from the
        *decoded over-the-air payload* (sniffed in the scanner), not
        from the installation records - the app only knows what the
        radio told it."""
        samples: Dict[str, float] = {}
        for beacon_id in cycle.beacon_ids:
            packet = cycle.packets.get(beacon_id)
            if packet is None or not self.region.matches(packet):
                continue
            samples[beacon_id] = cycle.mean_rssi(beacon_id)
            self._tx_power_by_beacon[beacon_id] = packet.tx_power
        return samples

    def _range(self, cycle: ScanCycle, samples: Dict[str, float]) -> SightingReport:
        """Ranging Service: filter RSSI and invert to distances."""
        estimates = self.tracker.update(samples)
        beacons = []
        for beacon_id in sorted(estimates):
            est = estimates[beacon_id]
            tx_power = self._tx_power_by_beacon[beacon_id]
            distance = distance_from_rssi(
                est.value, float(tx_power), self.path_loss_exponent
            )
            beacons.append(
                RangedBeacon(
                    beacon_id=beacon_id,
                    rssi=est.value,
                    distance_m=float(distance),
                    held=est.held,
                )
            )
        return SightingReport(device_id=self.device_id, time=cycle.t_end, beacons=beacons)

    def _emit_region_event(self, time: float, kind: RegionEventKind) -> None:
        event = RegionEvent(time=time, kind=kind, region=self.region)
        self.region_events.append(event)
        if self.on_region_event is not None:
            self.on_region_event(event)
