"""Benchmark self-test: an injected 2x slowdown must show, and only where predicted.

Each injection doubles one layer's work from the benchmark's side
without changing any output, so every output check still passes.  The
simulated workloads' injections are armed only while the online drive
runs (``OccupancyDetectionSystem.run`` or ``run_columnar``), so set-up,
refresh and recovery do the same work as without them.

- ``observe_x2`` runs every ``AirInterface.observe`` (one advertising
  window of the per-phone stack, with its channel call) twice,
  rewinding the random stream in between.  Predicted to push
  ``drive_device_s_per_s`` on ``paper-house`` past its bound: the
  window pass holds about half of the scalar drive.
  ``fleet-columnar``'s drive never calls it, so all of its metrics must
  stay within their bounds.
- ``link_budget_x2`` computes ``ChannelModel.link_budget_many`` twice
  the same way.  Not a prediction: the channel call holds about a third
  of the scalar drive, so doubling it moves ``drive_device_s_per_s`` by
  about the 0.25 bound itself.
- ``wal_append_x2`` writes every ``SightingWal.append_sighting`` and
  ``append_batch`` record twice, the second time into a shadow log
  outside the state directory.  Not a prediction: appends hold about a
  twentieth of ``bms-stream``'s time.

Run an unpredicted one with ``run.py --inject NAME`` to see how far it
moves a metric.

Usage, from the repository root (about 12 minutes with 6 runs)::

    python3 perfbench/selftest.py --runs 6

For each prediction it runs the predicted workload and the bypass
workload ``--runs`` times with and without the injection, as pairs on
seeds 1..runs, alternating which side goes first.  A metric's change
is the median over pairs of each pair's relative change, so a drift
in the host's speed between pairs cancels; it is compared with the
metric's bound in ``BENCHMARK.json``, and each pair's change is
printed so the margin shows.  ``accuracy`` and ``delivery_ratio`` must
come out identical with and without the injection.  Exit code 0 means
every prediction held.
"""

from __future__ import annotations

import argparse
import functools
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

#: True while a simulated workload's online drive runs.
_DRIVING = [False]


def _arm_during_drive() -> None:
    from repro.core.system import OccupancyDetectionSystem
    from repro.fleet import columnar

    def arming(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            _DRIVING[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                _DRIVING[0] = False

        return wrapped

    OccupancyDetectionSystem.run = arming(OccupancyDetectionSystem.run)
    columnar.run_columnar = arming(columnar.run_columnar)


def _twice_while_driving(owner, attr: str) -> None:
    """Run ``owner.attr`` twice during the drive; its last argument is the rng."""
    original = getattr(owner, attr)

    def doubled(self, *args):
        if _DRIVING[0]:
            rng = args[-1]
            state = rng.bit_generator.state
            original(self, *args)
            rng.bit_generator.state = state
        return original(self, *args)

    setattr(owner, attr, doubled)
    _arm_during_drive()


def _observe_x2(scratch: Path) -> None:
    from repro.ble.air import AirInterface

    _twice_while_driving(AirInterface, "observe")


def _link_budget_x2(scratch: Path) -> None:
    from repro.radio.channel import ChannelModel

    _twice_while_driving(ChannelModel, "link_budget_many")


def _wal_append_x2(scratch: Path) -> None:
    import itertools
    import weakref

    from repro.traces.wal import SightingWal

    shadows = weakref.WeakKeyDictionary()
    names = itertools.count()

    def shadow(wal):
        if wal not in shadows:
            shadows[wal] = SightingWal(scratch / "shadow-wal" / str(next(names)))
        return shadows[wal]

    for attr in ("append_sighting", "append_batch"):
        original = getattr(SightingWal, attr)

        def doubled(self, *args, _original=original, **kwargs):
            seq = _original(self, *args, **kwargs)
            _original(shadow(self), *args, **kwargs)
            return seq

        setattr(SightingWal, attr, doubled)


#: Injection name -> installer, called once before the workload runs
#: with the run's scratch directory.
INJECTIONS = {
    "observe_x2": _observe_x2,
    "link_budget_x2": _link_budget_x2,
    "wal_append_x2": _wal_append_x2,
}

#: Injection -> (predicted workload, metric that must cross its bound,
#: bypass workload, whose metrics must all stay within their bounds).
PREDICTIONS = {
    "observe_x2": ("paper-house", "drive_device_s_per_s", "fleet-columnar"),
}
#: Deterministic outputs an injection must leave unchanged.
OUTPUTS = ("accuracy", "delivery_ratio")


def _run(workload: str, seed: int, seconds: int, inject) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    if inject:
        command += ["--inject", inject]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} inject={inject}: run failed\n{proc.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _worse_by(metric: dict, base: float, value: float) -> float:
    """Relative worsening of ``value`` against ``base`` (negative: better)."""
    if metric["better"] == "lower":
        return (value - base) / base
    return (base - value) / base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/selftest.py")
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--only", choices=sorted(PREDICTIONS), default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for inject, (target, moved, bypass) in PREDICTIONS.items():
        if args.only and inject != args.only:
            continue
        for workload in (target, bypass):
            pairs = []
            for seed in range(1, args.runs + 1):
                order = [None, inject] if seed % 2 else [inject, None]
                runs = {name: _run(workload, seed, seconds, name) for name in order}
                pairs.append((runs[None], runs[inject]))
            print(f"{inject} on {workload}:")
            for name, metric in metrics.items():
                b = median(base[name] for base, _ in pairs)
                v = median(injected[name] for _, injected in pairs)
                changes = [_worse_by(metric, base[name], injected[name]) for base, injected in pairs]
                worse = median(changes)
                crossed = worse > metric["bound"]
                if name in OUTPUTS and any(base[name] != inj[name] for base, inj in pairs):
                    verdict = "OUTPUT CHANGED"
                    ok = False
                elif workload == target and name == moved:
                    verdict = "MOVED past bound (predicted)" if crossed else "DID NOT MOVE (predicted to)"
                    ok &= crossed
                elif workload == bypass:
                    verdict = "crossed bound (unexpected)" if crossed else "within bound"
                    ok &= not crossed
                else:
                    verdict = "crossed bound" if crossed else "within bound"
                print(f"  {name:<22} base {b:>12.6g} injected {v:>12.6g} "
                      f"worse by {worse:>+7.1%} (bound {metric['bound']:.0%}): {verdict}")
                if workload == target and name == moved:
                    print("    per pair: " + " ".join(f"{c:+.1%}" for c in changes))
    print("self-test", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
