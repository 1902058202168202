"""Linter configuration: the architecture the rules enforce.

:data:`REPRO_LAYERS` is the declared package-dependency DAG of this
repository — package ``p`` may import from ``REPRO_LAYERS[p]`` (and
from itself, and from third-party libraries).  Top-level modules
(``cli``, ``__main__``, the root ``__init__``) form the application
layer and may import anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping

__all__ = [
    "REPRO_LAYERS",
    "SIM_DOMAIN_PACKAGES",
    "DETERMINISM_EXEMPT",
    "GRAM_PARAM_NAMES",
    "LintConfig",
]


def _layers(mapping: Mapping[str, tuple]) -> Mapping[str, FrozenSet[str]]:
    return {package: frozenset(deps) for package, deps in mapping.items()}


#: The declared layering DAG: package -> packages it may import.
#: Leaf libraries first; each later layer only reaches down.
REPRO_LAYERS: Mapping[str, FrozenSet[str]] = _layers(
    {
        # Leaf libraries: no first-party dependencies at all.
        "obs": (),
        "filters": (),
        "ibeacon": (),
        "hvac": (),
        "tracking": (),
        "devtools": (),
        # Instrumented infrastructure leaves: only telemetry below them.
        "sim": ("obs",),
        "energy": ("obs",),
        # Deterministic process-pool execution (seeds come from sim.rng);
        # obs supplies trace propagation and hot-path profiling.
        "parallel": ("obs", "sim"),
        "ml": ("obs", "parallel"),
        # Physical modelling.
        "radio": ("obs", "sim"),
        "building": ("ibeacon", "radio", "sim"),
        "positioning": ("building",),
        "ble": ("building", "ibeacon", "obs", "radio", "sim"),
        # Device and data plane.
        "phone": ("ble", "building", "filters", "ibeacon", "obs", "radio", "sim"),
        # server reaches traces for the durable sighting WAL it
        # writes through and replays.
        "server": ("building", "ml", "obs", "traces"),
        "comms": ("obs", "phone", "server"),
        "traces": ("ble", "building", "filters", "obs", "phone", "radio", "sim"),
        "beacon_node": (
            "ble",
            "building",
            "ibeacon",
            "phone",
            "radio",
            "server",
            "sim",
            "traces",
        ),
        # Orchestration and presentation.
        "core": (
            "ble",
            "building",
            "comms",
            "energy",
            "filters",
            "ibeacon",
            "ml",
            "obs",
            "phone",
            "radio",
            "server",
            "sim",
            "traces",
        ),
        "report": ("building", "core", "obs"),
        # fleet reaches ml for the Gram-cache telemetry it attaches on
        # profiled runs, and traces for the sighting WAL it writes.
        "fleet": (
            "ble",
            "building",
            "comms",
            "core",
            "energy",
            "filters",
            "ibeacon",
            "ml",
            "obs",
            "parallel",
            "phone",
            "radio",
            "server",
            "sim",
            "traces",
        ),
    }
)

#: Packages whose code must be replayable: no wall clocks, no unseeded
#: randomness, no order-unstable float reductions.  ``obs`` is included
#: because telemetry must be stamped with the injected simulation
#: clock, never the process clock.  The runtime packages ``server``,
#: ``fleet`` and ``comms`` are registered too: the BMS, the load
#: generator and the uplinks all sit on the replayed path (fleet runs
#: are pinned worker-count invariant), so they carry the same
#: determinism obligations as the simulation core.
SIM_DOMAIN_PACKAGES: FrozenSet[str] = frozenset(
    {
        "sim",
        "ble",
        "traces",
        "energy",
        "building",
        "obs",
        "parallel",
        "ml",
        "server",
        "fleet",
        "comms",
    }
)

#: Modules allowed to touch the primitives the determinism rule bans —
#: they are the sanctioned wrappers the rule steers authors towards.
#: ``repro.obs.profiling`` is the single wall-clock profiling module.
DETERMINISM_EXEMPT: FrozenSet[str] = frozenset(
    {"repro.sim.rng", "repro.sim.clock", "repro.obs.profiling"}
)

#: Parameter names that (by convention, enforced here) always carry a
#: shared read-only Gram handout — see :mod:`repro.ml.gram_cache`.
GRAM_PARAM_NAMES: FrozenSet[str] = frozenset({"gram", "bank_gram"})


@dataclass(frozen=True)
class LintConfig:
    """Tunable rule configuration.

    Attributes:
        layers: package-dependency allowlist (see :data:`REPRO_LAYERS`).
        sim_domain_packages: packages the determinism and numeric rules
            apply to.
        determinism_exempt: dotted module names the determinism and
            numeric rules skip entirely.
        gram_param_names: parameter names the shard-purity family
            treats as read-only Gram cache handouts.
    """

    layers: Mapping[str, FrozenSet[str]] = field(
        default_factory=lambda: REPRO_LAYERS
    )
    sim_domain_packages: FrozenSet[str] = SIM_DOMAIN_PACKAGES
    determinism_exempt: FrozenSet[str] = DETERMINISM_EXEMPT
    gram_param_names: FrozenSet[str] = GRAM_PARAM_NAMES
