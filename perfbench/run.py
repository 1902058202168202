"""Pipeline benchmark: one seeded workload per run, or all three.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-house --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least ``MIN_REPS`` times) and prints every end-to-end metric with its
unit and sample count.  ``--trace 1`` runs one untraced and one traced
repetition and prints the per-layer table; the spans are written to
``.perfbench/``.  ``--workload all`` runs each workload both ways, each
in a process of its own.  The last line of standard output is one JSON
result object; the exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

# One single-threaded process: keep numpy's BLAS from starting threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import selftest  # noqa: E402
import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-house", "fleet-columnar", "bms-stream")
#: Repetitions a timed run makes at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Stop starting repetitions after this long, to end well within 180 s.
MAX_RUN_S = 120.0


def _ms(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


def end_to_end(reps, rss_mb: float) -> Dict[str, tuple]:
    """Metric -> (value, unit, samples) over the timed repetitions.

    Every timing in a repetition is already at the nominal pace (see
    ``pace.py``).
    """

    def pooled(attr: str) -> np.ndarray:
        return np.concatenate([getattr(r, attr) for r in reps])

    ingest = pooled("ingest_lat_s")
    reads = pooled("read_lat_s")
    drive_s = pooled("drive_s")
    post_s = pooled("post_s")
    drive = pooled("drive_device_s").sum() / drive_s.sum()
    capacity = pooled("post_rows").sum() / post_s.sum()
    setups = [s for r in reps for s in r.setup_s]
    refreshes = [s for r in reps for s in r.refresh_s]
    recoveries = [s for r in reps for s in r.recover_s]
    requests = sum(r.requests for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "drive_device_s_per_s": (float(drive), "device_s/s", len(drive_s)),
        "ingest_capacity_sps": (float(capacity), "sightings/s", len(post_s)),
        "accuracy": (reps[0].accuracy, "fraction", 1),
        "delivery_ratio": (reps[0].delivery_ratio, "fraction", 1),
        "ingest_p50_ms": (_ms(ingest, 50), "ms", len(ingest)),
        "read_p50_ms": (_ms(reads, 50), "ms", len(reads)),
        "refresh_s": (median(refreshes), "s", len(refreshes)),
        "recover_s": (median(recoveries), "s", len(recoveries)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ingest_p99_ms": (_ms(ingest, 99), "ms", len(ingest)),
        "read_p99_ms": (_ms(reads, 99), "ms", len(reads)),
        "failed_ratio": (failed / requests if requests else 0.0, "fraction", requests),
    }


def check_reps(workload, reps) -> List[str]:
    """Output checks across repetitions; a failing one gets ``errors``."""
    for rep in reps:
        if rep.digest != reps[0].digest:
            rep.errors.append("output digest differs from the first repetition's")
    if workload.name == "bms-stream":
        workload.check_reference(reps[0])
    return [f"rep {i}: {e}" for i, rep in enumerate(reps) for e in rep.errors]


def run_timed(args, workload, scratch: Path) -> dict:
    import workloads

    reps = []
    started = time.perf_counter()
    while True:
        directory = workloads.fresh_directory(scratch, len(reps))
        # Start each repetition from the same collector state: garbage
        # left by the previous one is not this repetition's cost.
        gc.collect()
        rep = workload.repetition(directory)
        shutil.rmtree(directory)
        reps.append(rep)
        # Set-up is short: time it again until the repetition's set-ups
        # add up to SETUP_S_PER_REP, so setup_s is a median of many.
        while sum(rep.setup_s) < spec.SETUP_S_PER_REP:
            directory = workloads.fresh_directory(scratch, len(reps))
            gc.collect()
            rep.setup_s.append(workload.time_setup(directory, rep))
            shutil.rmtree(directory)
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_RUN_S or (elapsed >= args.seconds and len(reps) >= MIN_REPS):
            break
    # Read the peak before the output checks, which allocate for
    # themselves (the stream's reference store classifies in bulk).
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_reps(workload, reps)
    # A repetition that failed a check counts as failed and untimed.
    good = [r for r in reps if not r.errors]
    metrics = end_to_end(good or reps, rss_mb)
    print(f"{args.workload}: seed {args.seed}, {len(reps)} repetitions in "
          f"{time.perf_counter() - started:.1f} s, {len(good)} passed the checks")
    print(f"{'metric':<24} {'value':>14}  {'unit':<12} {'samples':>8}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<24} {value:>14.6g}  {unit:<12} {samples:>8}")
    phases: Dict[str, List[float]] = {}
    for rep in reps:
        for phase, values in rep.slowdowns.items():
            phases.setdefault(phase, []).extend(values)
    print("timings above are at the nominal pace; the host ran slower than nominal by "
          + ", ".join(f"x{median(v):.3f} ({phase})" for phase, v in phases.items()))
    late = [r.late_s for r in reps if len(r.late_s)]
    if late:
        print(f"loadgen lateness p99 {_ms(np.concatenate(late), 99):.3f} ms, "
              f"backlog max {max(r.backlog_max for r in reps)} events")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": sum(r.requests for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {
            m.name: {"value": metrics[m.name][0], "unit": m.unit} for m in spec.END_TO_END
        },
    }


def per_layer(untraced, traced, recorder) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    busy, unattributed, wall = recorder.layer_self_times()
    unknown = set(busy) - set(spec.LAYER_BUSY)
    if unknown:
        raise RuntimeError(f"spans in layers without a busy metric: {sorted(unknown)}")
    names = recorder.by_name()
    counts = recorder.counts
    layer = traced.layer

    def c(key):
        return float(counts.get(key, 0.0))

    def calls(*span_names):
        return float(sum(names.get(n, (0, 0.0, 0.0))[0] for n in span_names))

    def self_s(*span_names):
        return sum(names.get(n, (0, 0.0, 0.0))[2] for n in span_names)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {metric: busy.get(name, 0.0) for name, metric in spec.LAYER_BUSY.items()}
    out.update({
        "sim.events": c("sim.events"),
        "building.position_calls": calls(
            "building.position_at", "building.room_at", "building.positions_at"
        ),
        "radio.links": c("radio.links"),
        "radio.received_ratio": ratio(c("radio.received"), c("radio.links")),
        "ble.windows": c("ble.windows"),
        "phone.cycles": c("phone.cycles"),
        "phone.reports": c("phone.reports"),
        "phone.surfaced_ratio": ratio(c("phone.surfaced"), c("phone.received")),
        "filters.updates": c("filters.updates"),
        "comms.reports": c("comms.reports"),
        "comms.requests": c("comms.requests"),
        "comms.reports_per_request": ratio(c("comms.reports"), c("comms.requests")),
        "comms.retries": layer.get("comms.retries", 0.0),
        "comms.dropped": layer.get("comms.dropped", 0.0),
        "fleet.columnar.ticks": layer.get("fleet.columnar.ticks", 0.0),
        "server.rest.requests": c("server.rest.requests"),
        "server.rest.failed": c("server.rest.failed"),
        "server.sharded.rows_per_ingest": ratio(
            c("server.sharded.rows"), c("server.sharded.drains")
        ),
        # Only the sharded front door answers 429.
        "server.sharded.rejected": c("server.rest.rejected"),
        "server.bms.sightings": c("server.bms.sightings"),
        "server.bms.ingest_calls": c("server.bms.ingest_calls"),
        "server.bms.ingest_busy_s": self_s("server.bms.ingest"),
        "server.bms.reads": c("server.bms.reads"),
        "server.bms.read_busy_s": self_s("server.bms.read"),
        "server.bms.history_busy_s": self_s("server.bms.history"),
        "ml.predict_calls": c("ml.predict_calls"),
        "ml.rows_per_predict": ratio(c("ml.predict_rows"), c("ml.predict_calls")),
        "ml.predict_busy_s": self_s("ml.predict"),
        "ml.featurize_busy_s": self_s("ml.featurize"),
        "ml.fit_busy_s": self_s("ml.fit"),
        "ml.refresh_busy_s": self_s("ml.refresh"),
        "ml.refresh_refit_ratio": ratio(c("ml.refresh_refitted"), c("ml.refresh_pairs")),
        "ml.gram_hit_ratio": ratio(
            layer["ml.gram_hits"], layer["ml.gram_hits"] + layer["ml.gram_misses"]
        ),
        "traces.wal.records": c("traces.wal.records"),
        "traces.wal.bytes_per_sighting": ratio(
            layer.get("traces.wal.bytes", 0.0), layer.get("traces.wal.sightings", 0.0)
        ),
        "traces.wal.segments": layer.get("traces.wal.segments", 0.0),
        "traces.wal.append_busy_s": self_s("traces.wal.append"),
        "traces.wal.compact_busy_s": self_s("traces.wal.compact"),
        "server.replay.records": c("server.replay.records"),
        "server.replay.sightings_per_s": ratio(
            c("server.replay.sightings"), names.get("server.replay.replay_wal", (0, 0.0))[1]
        ),
        "loadgen.late_p99_ms": _ms(untraced.late_s, 99) if len(untraced.late_s) else 0.0,
        "loadgen.backlog_max": float(untraced.backlog_max),
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": ratio(unattributed, wall),
        "trace.overhead_ratio": ratio(wall, untraced.wall_s),
    })
    return out


def run_traced(args, workload, scratch: Path) -> dict:
    import layers
    import workloads

    directory = workloads.fresh_directory(scratch, 0)
    gc.collect()
    untraced = workload.repetition(directory)
    shutil.rmtree(directory)
    recorder = layers.SpanRecorder(f"{args.workload}-seed{args.seed}")
    directory = workloads.fresh_directory(scratch, 1)
    gc.collect()
    with layers.Patches() as patches:
        layers.install(recorder, patches)
        traced = workload.repetition(directory, root=recorder.root())
    shutil.rmtree(directory)
    problems = check_reps(workload, [untraced, traced])
    metrics = per_layer(untraced, traced, recorder)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write_jsonl(spans_path)

    # Attribution.  Self times add up to the traced wall by
    # construction (printed below), so the checks that can fail are
    # these: every layer the workload should exercise recorded calls,
    # and the time no wrapper covers stays a small share of the wall.
    # A wrapper that escaped (a bound method captured before install)
    # shows as a silent layer or as unattributed time.
    wall = metrics["trace.wall_s"]
    total = sum(metrics[m] for m in spec.LAYER_BUSY.values()) + metrics["trace.unattributed_s"]
    calls = recorder.layer_calls()
    for layer in spec.layers_on(args.workload):
        if not calls.get(layer):
            problems.append(f"layer {layer} recorded no calls")
    if metrics["trace.unattributed_share"] > spec.MAX_UNATTRIBUTED_SHARE:
        problems.append(
            f"unattributed share {metrics['trace.unattributed_share']:.2%} "
            f"> {spec.MAX_UNATTRIBUTED_SHARE:.0%} of the traced wall"
        )
    print(f"{args.workload}: seed {args.seed}, traced repetition "
          f"({len(recorder.spans)} spans -> {spans_path.relative_to(ROOT)})")
    print(f"{'layer':<20} {'busy_s':>10} {'share':>8}")
    for name, metric in spec.LAYER_BUSY.items():
        if metrics[metric]:
            print(f"{name:<20} {metrics[metric]:>10.4f} {metrics[metric] / wall:>8.1%}")
    print(f"{'(unattributed)':<20} {metrics['trace.unattributed_s']:>10.4f} "
          f"{metrics['trace.unattributed_share']:>8.1%}")
    print(f"{'sum':<20} {total:>10.4f}   traced wall {wall:.4f} s, untraced "
          f"{untraced.wall_s:.4f} s, overhead x{metrics['trace.overhead_ratio']:.2f}")
    print(f"{'metric':<34} {'value':>14}  unit")
    for m in spec.PER_LAYER:
        print(f"{m.name:<34} {metrics[m.name]:>14.6g}  {m.unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": untraced.requests + traced.requests,
        "failed": untraced.failed + traced.failed,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in spec.PER_LAYER
        },
    }


def run_all(args) -> int:
    """Every workload, timed then traced, each in a process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.inject:
                command += ["--inject", args.inject]
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            print(proc.stderr, file=sys.stderr, end="")
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name} --trace {trace}: no result (exit {proc.returncode})")
                combined["correct"] = False
                continue
            combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
            print()
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", choices=sorted(selftest.INJECTIONS), default=None,
        help="a benchmark-side 2x slowdown (see selftest.py)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    scratch = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed)
        # The inputs live for the whole run; keep the collector from
        # rescanning them, so its pauses reflect the program's own heap.
        gc.collect()
        gc.freeze()
        if args.inject:
            selftest.INJECTIONS[args.inject](scratch)
        runner = run_traced if args.trace else run_timed
        result = runner(args, workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
