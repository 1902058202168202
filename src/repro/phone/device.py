"""Smartphone: occupant + scanner + app + (optionally) energy meter.

Bundles the pieces a simulated handset needs so the core pipeline can
treat "a phone carried by an occupant" as one object.
"""

from __future__ import annotations

from typing import Optional

from repro.ble.air import AirInterface
from repro.ble.scanner_params import ScanSettings
from repro.building.occupant import Occupant
from repro.ibeacon.region import BeaconRegion
from repro.obs.metrics import MetricsRegistry
from repro.phone.app import OccupancyApp, SightingReport
from repro.phone.scanner import AndroidScanner, IosScanner, Scanner
from repro.sim.rng import RngStreams

__all__ = ["Smartphone"]


class Smartphone:
    """A phone carried by an occupant, running the occupancy app.

    Args:
        occupant: the carrier; provides the mobility and device model.
        air: shared air interface of the building.
        region: monitored iBeacon region.
        settings: scan settings (paper default: 2 s period).
        platform: ``"android"`` (paper's subject) or ``"ios"``
            (the previous work's platform, for comparisons).
        streams: RNG family; the phone derives its own child streams.
        path_loss_exponent: ranging inversion exponent.
        registry: telemetry registry threaded into the scanner; the
            occupant's name labels the emitted events.
    """

    def __init__(
        self,
        occupant: Occupant,
        air: AirInterface,
        region: BeaconRegion,
        *,
        settings: Optional[ScanSettings] = None,
        platform: str = "android",
        streams: Optional[RngStreams] = None,
        path_loss_exponent: float = 2.2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if platform not in ("android", "ios"):
            raise ValueError(f"platform must be 'android' or 'ios', got {platform!r}")
        streams = streams if streams is not None else RngStreams(0)
        rng = streams.spawn(f"phone:{occupant.name}").get("channel")
        scanner_cls = AndroidScanner if platform == "android" else IosScanner
        self.occupant = occupant
        self.platform = platform
        self.scanner: Scanner = scanner_cls(
            air,
            device=occupant.device,
            settings=settings,
            rng=rng,
            registry=registry,
            label=occupant.name,
        )
        self.app = OccupancyApp(
            device_id=occupant.name,
            scanner=self.scanner,
            region=region,
            path_loss_exponent=path_loss_exponent,
        )

    def boot(self) -> None:
        """Power on: runs the app's boot handler."""
        self.app.boot()

    def run_cycle(self, t_start: float) -> Optional[SightingReport]:
        """Run one scan cycle along the occupant's trajectory."""
        return self.app.run_cycle(self.occupant.mobility, t_start)

    @property
    def device_id(self) -> str:
        """The identity reported to the BMS (the occupant name)."""
        return self.occupant.name
