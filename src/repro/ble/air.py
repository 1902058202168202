"""The air interface: advertisements observed through the RF channel.

Glues together the floor plan (beacon placement + wall oracle), the
advertisers' schedules and the statistical channel model.  Scanners ask
it: *given a receiver on this trajectory during this listening window,
which advertisements were received and at what RSSI?*  The answer is a
:class:`Reception`: the heard advertisements as columns, in time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ble.advertiser import Advertiser
from repro.ble.sniffer import decode_ibeacon
from repro.building.floorplan import FloorPlan
from repro.building.mobility import MobilityModel
from repro.ibeacon.packet import IBeaconPacket
from repro.radio.channel import ChannelModel
from repro.radio.devices import DeviceRadioProfile

__all__ = ["Sighting", "Reception", "WindowSchedule", "AirInterface"]


@dataclass(frozen=True)
class Sighting:
    """One received advertisement.

    Attributes:
        time: reception time, seconds.
        beacon_id: ``"major-minor"`` id of the transmitter.
        packet: the decoded iBeacon payload.
        rssi: received signal strength, dBm (device-quantised).
        true_distance_m: ground-truth transmitter-receiver distance at
            reception time (kept for evaluation, never shown to the
            classifier).
        payload: the raw 30-byte advertisement as transmitted; the
            phone stack decodes it via the protocol sniffer rather
            than trusting simulator objects.
    """

    time: float
    beacon_id: str
    packet: IBeaconPacket
    rssi: float
    true_distance_m: float
    payload: bytes = b""


@dataclass(frozen=True)
class Reception:
    """The advertisements received in one listening window, as columns.

    Rows are in reception time order (ties in advertiser order).  The
    per-advertiser tables are the air interface's own, indexed by the
    ``advertiser`` column; :meth:`sightings` expands the columns to
    :class:`Sighting` rows for tests and diagnostics.

    Attributes:
        times: reception times, seconds, shape ``(k,)``.
        advertiser: index into ``AirInterface.advertisers`` per row.
        rssi: received signal strength per row, dBm (device-quantised).
        true_distance_m: ground-truth transmitter-receiver distance per
            row (kept for evaluation, never shown to the classifier).
        beacon_ids: ``"major-minor"`` id per advertiser.  A floor plan
            rejects duplicate beacon ids, so an advertiser index names
            one beacon id and keys like it.
        packets: iBeacon payload per advertiser.
        payloads: raw 30-byte advertisement per advertiser.
    """

    times: np.ndarray
    advertiser: np.ndarray
    rssi: np.ndarray
    true_distance_m: np.ndarray
    beacon_ids: Sequence[str]
    packets: Sequence[IBeaconPacket]
    payloads: Sequence[bytes]

    def __len__(self) -> int:
        return len(self.times)

    def sightings(self) -> List[Sighting]:
        """Per-advertisement :class:`Sighting` rows, in time order."""
        return [
            Sighting(
                time=time,
                beacon_id=self.beacon_ids[k],
                packet=self.packets[k],
                rssi=rssi,
                true_distance_m=distance,
                payload=self.payloads[k],
            )
            for time, k, rssi, distance in zip(
                self.times.tolist(),
                self.advertiser.tolist(),
                self.rssi.tolist(),
                self.true_distance_m.tolist(),
            )
        ]


@dataclass(frozen=True)
class WindowSchedule:
    """Every advertisement on the air in one listening window.

    Columns run beacon-major: each advertiser's advertisements in time
    order, advertisers in installation order.  That is the order the
    channel draws its random components in.

    Attributes:
        t_start: window start (inclusive), seconds.
        t_end: window end (exclusive), seconds.
        times: advertisement instants, shape ``(n,)``.
        advertiser: index into ``AirInterface.advertisers`` per
            advertisement.
        runs: ``(start, end, advertiser index)`` of each advertiser's
            slice of the columns; silent advertisers are left out.
        tx_ids: beacon id per advertisement (the shadowing-field key).
        tx: transmitter position per advertisement, shape ``(n, 2)``.
        tx_power_dbm: effective radiated power per advertisement.
        order: the advertisements' stable time order.
    """

    t_start: float
    t_end: float
    times: np.ndarray
    advertiser: np.ndarray
    runs: List[Tuple[int, int, int]]
    tx_ids: List[str]
    tx: np.ndarray
    tx_power_dbm: np.ndarray
    order: np.ndarray


class AirInterface:
    """Samples the channel for every advertisement in a window.

    The advertisers are fixed at construction.

    Args:
        plan: floor plan with installed beacons (also provides the
            wall oracle unless the channel already has one).
        channel: the statistical channel; if its ``wall_oracle`` is
            unset, the plan's :meth:`~repro.building.floorplan.FloorPlan.wall_losses`
            is installed.
    """

    def __init__(self, plan: FloorPlan, channel: Optional[ChannelModel] = None) -> None:
        self.plan = plan
        self.channel = channel if channel is not None else ChannelModel()
        if self.channel.wall_oracle is None:
            self.channel.wall_oracle = plan.wall_losses
        self.advertisers: List[Advertiser] = [
            Advertiser(placement=b) for b in plan.beacons
        ]
        # Per-advertiser columns, made once: every advertisement of a
        # beacon carries the same id, packet, payload bytes, position
        # and power.
        placements = [adv.placement for adv in self.advertisers]
        self._beacon_ids = [b.beacon_id for b in placements]
        self._packets = [b.packet for b in placements]
        self._payloads = [b.packet.encode() for b in placements]
        #: What a phone's protocol sniffer decodes from each advertiser's
        #: payload (``None`` where it does not decode).  Payloads are
        #: constant per advertiser, so the table is made once and every
        #: phone of both fleet drives reads it.
        self.decoded: List[Optional[IBeaconPacket]] = [
            decode_ibeacon(payload) for payload in self._payloads
        ]
        self._tx = np.array(
            [b.position.as_tuple() for b in placements], dtype=float
        ).reshape(-1, 2)
        self._tx_power = np.array(
            [b.effective_radiated_power_dbm for b in placements], dtype=float
        )
        self._window: Optional[WindowSchedule] = None

    def schedule(self, t_start: float, t_end: float) -> WindowSchedule:
        """The advertisements on the air in ``[t_start, t_end)``.

        The last window's schedule is kept: every phone of a fleet
        scans the same window at each period boundary, so the
        advertisers' schedules are derived once per window, not once
        per phone.
        """
        window = self._window
        if window is not None and window.t_start == t_start and window.t_end == t_end:
            return window
        times: List[float] = []
        runs: List[Tuple[int, int, int]] = []
        for k, adv in enumerate(self.advertisers):
            ts = adv.times_in(t_start, t_end)
            if ts:
                runs.append((len(times), len(times) + len(ts), k))
                times.extend(ts)
        advertiser = np.empty(len(times), dtype=np.intp)
        tx_ids: List[str] = []
        for start, end, k in runs:
            advertiser[start:end] = k
            tx_ids.extend([self._beacon_ids[k]] * (end - start))
        time_column = np.array(times, dtype=float)
        window = WindowSchedule(
            t_start=t_start,
            t_end=t_end,
            times=time_column,
            advertiser=advertiser,
            runs=runs,
            tx_ids=tx_ids,
            tx=self._tx[advertiser],
            tx_power_dbm=self._tx_power[advertiser],
            order=np.argsort(time_column, kind="stable"),
        )
        self._window = window
        return window

    def observe(
        self,
        trajectory: MobilityModel,
        device: DeviceRadioProfile,
        t_start: float,
        t_end: float,
        rng: np.random.Generator,
    ) -> Reception:
        """All advertisements received in ``[t_start, t_end)``.

        Args:
            trajectory: the receiver's mobility (it may be moving
                during the window); asked for every advertisement's
                position in one ``positions_at`` call.
            device: receiver radio profile.
            t_start: window start, seconds.
            t_end: window end, seconds.
            rng: random stream for fading/noise/loss draws.

        Returns:
            The received advertisements as columns, sorted by reception
            time (ties in beacon order).

        The window's :meth:`schedule` is pushed through one
        :meth:`~repro.radio.channel.ChannelModel.link_budget_many`
        call, so the whole window costs a single numpy pass instead of
        one Python-level budget per advertisement.
        """
        window = self.schedule(t_start, t_end)
        heard = window.order
        rssi = distance = np.empty(0)
        if window.tx_ids:
            rx = trajectory.positions_at(window.times)
            batch = self.channel.link_budget_many(
                window.tx_ids, window.tx, rx, window.tx_power_dbm, device, rng
            )
            heard = window.order[batch.received[window.order]]
            rssi, distance = batch.rssi, batch.distance_m
        return Reception(
            times=window.times[heard],
            advertiser=window.advertiser[heard],
            rssi=rssi[heard],
            true_distance_m=distance[heard],
            beacon_ids=self._beacon_ids,
            packets=self._packets,
            payloads=self._payloads,
        )
