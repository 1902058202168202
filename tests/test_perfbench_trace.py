"""What perfbench's traced run needs from the columnar drive.

``perfbench/layers.py`` wraps public names of every layer through their
owners' ``__dict__`` (``install`` raises ``KeyError`` when one is gone)
and fails a traced run whose workload leaves a layer without calls.
On fleet-columnar, ``building`` is only seen through the prediction
record's ``Occupant.room_at`` and ``energy`` only through the run's
closing ``EnergyMeter.charge_energy`` (the tick's charges are one fleet
call), so a refactor that drops either read fails that smoke; this test
fails first.  perfbench is imported read-only.
"""

from pathlib import Path

import pytest

from repro.building.mobility import RandomWaypoint
from repro.building.occupant import Occupant
from repro.building.presets import two_room_corridor
from repro.core.config import SystemConfig
from repro.core.system import OccupancyDetectionSystem
from repro.fleet import columnar
from repro.sim.rng import derive_seed

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    return layers


def test_traced_columnar_drive_reaches_building_and_energy(layers):
    plan = two_room_corridor()
    system = OccupancyDetectionSystem(plan, SystemConfig(seed=0))
    system.calibrate(duration_s=60.0)
    system.train()
    for i in range(2):
        mobility = RandomWaypoint(plan, seed=derive_seed(0, f"fleet:{i}"))
        system.add_occupant(Occupant(f"dev-{i:04d}", mobility))
    recorder = layers.SpanRecorder("columnar-guard")
    with layers.Patches() as patches:
        layers.install(recorder, patches)
        with recorder.root():
            # Through the module, as perfbench's workload calls it.
            columnar.run_columnar(system, 10.0)
    calls = recorder.layer_calls()
    assert calls.get("building", 0) > 0
    assert calls.get("energy", 0) > 0
    assert calls.get("fleet.columnar") == 1
