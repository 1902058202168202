"""BLE scanners with platform-faithful sampling semantics.

Paper Section V: "its BLE APIs allows only a single signal strength
measurement per scan, differently from iOS where it is possible to get
many measurements for each broadcast advertisement ... having a scan
period of two seconds and an iBeacon generator that transmits thirty
times per second, an Android device that scans for ten seconds gets
only five samples ... an iOS device receives three hundred samples."

Both scanners observe the *same* air interface; they differ only in how
many of the received advertisements surface to the app layer.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ble.air import AirInterface, Reception
from repro.ble.scanner_params import ScanSettings
from repro.building.mobility import MobilityModel
from repro.ibeacon.packet import IBeaconPacket
from repro.obs.metrics import MetricsRegistry
from repro.radio.devices import DEVICE_PROFILES, DeviceRadioProfile

__all__ = [
    "ScanCycle",
    "Scanner",
    "AndroidScanner",
    "IosScanner",
    "surface_android",
    "surfaced_mean",
    "surfaced_means",
]


@dataclass(frozen=True)
class ScanCycle:
    """The outcome of one scan cycle.

    Attributes:
        t_start: cycle start time, seconds.
        t_end: cycle end time, seconds.
        samples: beacon_id -> RSSI samples surfaced to the app this
            cycle.  Android surfaces at most one per beacon per
            hardware scan restart (~2 s); iOS surfaces every received
            advertisement.
        received_count: total advertisements actually received on the
            air during the cycle (before platform filtering), for the
            Android-vs-iOS sample-count comparison.
        packets: beacon_id -> packet decoded from the raw payload by
            the protocol sniffer (AltBeacon framings are normalised to
            the iBeacon identity); read from the air interface's
            ``decoded`` table.
    """

    t_start: float
    t_end: float
    samples: Dict[str, List[float]]
    received_count: int
    packets: Dict[str, IBeaconPacket] = field(default_factory=dict)

    @property
    def beacon_ids(self) -> List[str]:
        """Beacons with at least one surfaced sample, sorted."""
        return sorted(self.samples)

    @property
    def surfaced_count(self) -> int:
        """Number of samples visible to the app this cycle."""
        return sum(len(v) for v in self.samples.values())

    def mean_rssi(self, beacon_id: str) -> float:
        """Mean surfaced RSSI for ``beacon_id`` (:func:`surfaced_mean`).

        Raises:
            KeyError: beacon not surfaced this cycle.
        """
        return surfaced_mean(self.samples[beacon_id])


def surfaced_mean(values) -> float:
    """A beacon's RSSI for one cycle: the mean of its surfaced samples.

    A single sample is returned as it is (bitwise ``np.mean`` of one
    value).  The scalar scanner takes the rule from here, and the
    columnar fleet drive through :func:`surfaced_means`.
    """
    if len(values) == 1:
        return float(values[0])
    return float(np.mean(values))


def surfaced_means(
    rssi: np.ndarray, picked: np.ndarray, starts: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`surfaced_mean` of every (device, run) cell of a block.

    The columns of the ``(devices, samples)`` values ``rssi`` and
    surfaced mask ``picked`` fall into consecutive runs, run ``r``
    starting at column ``starts[r]`` (``starts[0]`` is 0) and ending
    where the next starts: one advertiser each, as in
    :attr:`~repro.ble.air.WindowSchedule.runs`.  The cells where
    exactly one sample surfaced (every Android cell at the paper's 2 s
    period) take it in one gather; :func:`surfaced_mean` runs only
    where two or more did.

    Returns:
        ``(count, mean)``, each ``(devices, runs)``: the surfaced
        samples per cell and their mean, 0.0 where none surfaced.
    """
    devices, n = picked.shape
    bounds = [*starts, n]
    runs = len(starts)
    device, sample = np.nonzero(picked)
    run_of = np.repeat(np.arange(runs), np.diff(bounds))
    cell = device * runs + run_of[sample]
    count = np.bincount(cell, minlength=devices * runs)
    single = count[cell] == 1
    mean = np.zeros(devices * runs)
    mean[cell[single]] = rssi[device[single], sample[single]]
    count = count.reshape(devices, runs)
    mean = mean.reshape(devices, runs)
    for d, r in np.argwhere(count > 1).tolist():
        start, end = bounds[r], bounds[r + 1]
        mean[d, r] = surfaced_mean(rssi[d, start:end][picked[d, start:end]])
    return count, mean


class Scanner(abc.ABC):
    """Base scanner: runs scan cycles against an air interface.

    Args:
        air: the shared air interface.
        device: receiver radio profile (or a profile name).
        settings: scan period / duty cycle.
        rng: random stream for channel draws; one stream per scanner
            keeps phones statistically independent.
        registry: telemetry registry; defaults to a no-op one.
        label: value of the ``phone`` attribute on emitted telemetry
            (the carrying device's id in the full system).
    """

    def __init__(
        self,
        air: AirInterface,
        device="s3_mini",
        settings: Optional[ScanSettings] = None,
        rng: Optional[np.random.Generator] = None,
        registry: Optional[MetricsRegistry] = None,
        label: str = "",
    ) -> None:
        if isinstance(device, str):
            device = DEVICE_PROFILES[device]
        if not isinstance(device, DeviceRadioProfile):
            raise TypeError(f"device must be a profile or name, got {device!r}")
        self.air = air
        self.device = device
        self.settings = settings if settings is not None else ScanSettings()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.obs = registry if registry is not None else MetricsRegistry()
        self._obs_label = label
        self._c_cycles = self.obs.counter("phone.scan_cycles")
        self._c_received = self.obs.counter("phone.adverts_received")
        self._c_surfaced = self.obs.counter("phone.samples_surfaced")
        self._c_filtered = self.obs.counter("phone.samples_filtered")
        self._c_decode_drops = self.obs.counter("phone.decode_drops")

    def scan_cycle(self, trajectory: MobilityModel, t_start: float) -> ScanCycle:
        """Run one scan cycle starting at ``t_start``.

        The radio listens for ``settings.listen_window_s`` seconds at
        the start of the cycle; advertisements outside the listen
        window are not receivable.  ``trajectory`` is the receiver's
        mobility over the window.
        """
        t_end = t_start + self.settings.scan_period_s
        listen_end = t_start + self.settings.listen_window_s
        reception = self.air.observe(
            trajectory, self.device, t_start, listen_end, self.rng
        )
        raw, first = _samples_by_beacon(reception, self._surface(reception, t_start))
        decoded = self.air.decoded
        packets = {b: decoded[k] for b, k in first.items() if decoded[k] is not None}
        # Beacons whose payload did not decode are dropped entirely
        # (the stack cannot range what it cannot parse).
        samples = {b: v for b, v in raw.items() if b in packets}
        self.count_cycle(
            len(reception),
            sum(len(v) for v in raw.values()),
            sum(len(v) for v in samples.values()),
        )
        return ScanCycle(
            t_start=t_start,
            t_end=t_end,
            samples=samples,
            received_count=len(reception),
            packets=packets,
        )

    def count_cycle(self, received: int, raw: int, surfaced: int) -> None:
        """Book one scan cycle on the five ``phone.*`` counters.

        Args:
            received: advertisements heard on the air.
            raw: samples the platform surfaced.
            surfaced: surfaced samples whose payload decoded.
        """
        attrs = {"phone": self._obs_label} if self._obs_label else {}
        self._c_cycles.inc(**attrs)
        self._c_received.inc(received, **attrs)
        self._c_surfaced.inc(surfaced, **attrs)
        # Advertisements heard on the air but withheld from the app by
        # the platform's sampling semantics (the Android-vs-iOS gap).
        self._c_filtered.inc(received - raw, **attrs)
        if raw != surfaced:
            self._c_decode_drops.inc(raw - surfaced, **attrs)

    @abc.abstractmethod
    def _surface(self, reception: Reception, t_start: float) -> np.ndarray:
        """Platform-specific reduction of received advertisements to
        the samples visible to the app: the rows of ``reception`` that
        surface, ascending (so in time order)."""


def _samples_by_beacon(
    reception: Reception, picked: np.ndarray
) -> Tuple[Dict[str, List[float]], Dict[str, int]]:
    """The surfaced rows grouped per beacon, in time order.

    Returns:
        ``(samples, first)``: beacon id -> surfaced RSSI values, with
        beacons in order of first appearance, and beacon id -> the
        advertiser of its first surfaced row.
    """
    samples: Dict[str, List[float]] = {}
    first: Dict[str, int] = {}
    beacon_ids = reception.beacon_ids
    for k, rssi in zip(
        reception.advertiser[picked].tolist(), reception.rssi[picked].tolist()
    ):
        beacon_id = beacon_ids[k]
        values = samples.get(beacon_id)
        if values is None:
            samples[beacon_id] = [rssi]
            first[beacon_id] = k
        else:
            values.append(rssi)
    return samples, first


class AndroidScanner(Scanner):
    """Android 4.x semantics: one sample per beacon per *hardware scan*.

    The Android 4.x LE scan delivers a single callback per device per
    scan; the Radius Networks library works around it by restarting the
    hardware scan every ``HW_CYCLE_S`` seconds.  The app-level scan
    period is therefore an *aggregation window*: a 2 s period yields
    one sample per beacon per estimate, a 5 s period two or three -
    which is exactly why the paper's Figure 6 (5 s scans) is smoother
    than Figure 4 (2 s scans), and why "an Android device that scans
    for ten seconds gets only five samples" (Section V).
    """

    #: Hardware scan restart cadence of the paper's Android 4.x stack.
    HW_CYCLE_S = 2.0

    def _surface(self, reception: Reception, t_start: float) -> np.ndarray:
        received = np.ones((1, len(reception)), dtype=bool)
        picked = surface_android(
            received, reception.times, reception.advertiser, t_start
        )
        return np.flatnonzero(picked[0])


class IosScanner(Scanner):
    """iOS semantics: every received advertisement is surfaced.

    With a 100 ms advertising interval and a 2 s scan this yields ~20
    samples per beacon per cycle, which is why iOS distance estimates
    are smoother (paper Section V).
    """

    def _surface(self, reception: Reception, t_start: float) -> np.ndarray:
        return np.arange(len(reception))


def surface_android(
    received: np.ndarray, times: np.ndarray, advertiser: np.ndarray, t_start: float
) -> np.ndarray:
    """Android's surfacing of a ``(devices, samples)`` reception mask.

    Each row keeps its first received sample per (advertiser, hardware
    scan cycle) pair, first in the row's sample order, whatever that
    order is: time order from :class:`AndroidScanner`, the schedule's
    beacon-major order from the columnar fleet drive.  Advertiser
    indices key like beacon ids (see :class:`~repro.ble.air.Reception`).
    Keying on the full pair matters: remembering only the *last* cycle
    per beacon would re-surface duplicates whenever samples arrive out
    of time order (cycle 0, 1, 0 again).

    Args:
        received: ``(devices, samples)`` mask of received samples.
        times: ``(samples,)`` reception times, seconds.
        advertiser: ``(samples,)`` advertiser index per sample.
        t_start: start of the scan cycle the hardware cycles count from.

    Returns:
        The ``(devices, samples)`` mask of surfaced samples.
    """
    picked = np.zeros(received.shape, dtype=bool)
    device, sample = np.nonzero(received)
    if not len(sample):
        return picked
    cycle = ((times - t_start) / AndroidScanner.HW_CYCLE_S).astype(np.int64)
    cycle -= cycle.min()
    key = advertiser * (int(cycle.max()) + 1) + cycle
    key = device * (int(key.max()) + 1) + key[sample]
    _, first = np.unique(key, return_index=True)
    picked[device[first], sample[first]] = True
    return picked
