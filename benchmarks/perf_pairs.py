"""Order-alternated perfbench pairs: a change against its base.

Usage, from the repository root::

    python3 benchmarks/perf_pairs.py BASE HEAD --pairs 3
    python3 benchmarks/perf_pairs.py BASE HEAD --pairs 10 --workload bms-stream

``BASE`` and ``HEAD`` are two checkouts of the repository.  Each pair
runs ``python3 perfbench/run.py --workload W --seed S`` (the command
``BENCHMARK.json`` declares) once in each checkout; even pairs run the
base first and odd pairs the head first, so a host that drifts during
the session weighs on both sides alike.  For every workload the script
prints the base and head medians with their quartiles, and in how many
pairs the head did better.

It exits 1 when:

- a run's ``correct`` is false, or the run gave no result;
- the head's failed share of requests is higher than the base's;
- a bounded metric's head median is worse than the base median by
  more than the metric's ``BENCHMARK.json`` bound (relative).

It refuses to run (exit 2) when ``perfbench/`` or ``BENCHMARK.json``
differ between the two trees: the medians only compare the program
when both sides run the same benchmark.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

SPEC = "BENCHMARK.json"
BENCH_DIR = "perfbench"


def _tree(root: Path) -> Dict[str, bytes]:
    """Relative path -> bytes of every benchmark file under ``root``."""
    files = {SPEC: (root / SPEC).read_bytes()}
    for path in sorted((root / BENCH_DIR).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[str(path.relative_to(root))] = path.read_bytes()
    return files


def benchmark_differences(base: Path, head: Path) -> List[str]:
    """Benchmark files that are missing from one tree or differ."""
    a, b = _tree(base), _tree(head)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def run_once(checkout: Path, command: List[str], workload: str, seed: int) -> dict:
    """One benchmark run; its JSON result, with ``correct`` false on a crash."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
    if not result["correct"]:
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result


def quartiles(values: List[float]) -> List[float]:
    """25th, 50th and 75th percentile of ``values``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def worse_by(metric: dict, base: float, head: float) -> float:
    """Relative worsening of ``head`` against ``base`` (negative: better)."""
    if base == 0.0:
        return 0.0 if head == base else float("inf")
    if metric["better"] == "lower":
        return (head - base) / abs(base)
    return (base - head) / abs(base)


def compare(
    workload: str, metrics: List[dict], base: List[dict], head: List[dict]
) -> List[str]:
    """Print one workload's table; return its gate failures."""
    problems = []
    for side, runs in (("base", base), ("head", head)):
        for i, run in enumerate(runs):
            if not run["correct"]:
                problems.append(f"{workload}: {side} run {i} failed its checks")

    def failed_share(runs: List[dict]) -> float:
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    shares = failed_share(base), failed_share(head)
    print(f"\n{workload}: {len(base)} pairs; failed share base {shares[0]:.4g}, "
          f"head {shares[1]:.4g}")
    if shares[1] > shares[0]:
        problems.append(f"{workload}: failed share rose {shares[0]:.4g} -> {shares[1]:.4g}")
    print(f"{'metric':<22} {'base p25':>11} {'p50':>11} {'p75':>11}"
          f" {'head p25':>11} {'p50':>11} {'p75':>11} {'gain':>8}"
          f" {'bound':>6} {'wins':>6}")
    for metric in metrics:
        name = metric["name"]
        try:
            a = [r["metrics"][name]["value"] for r in base]
            b = [r["metrics"][name]["value"] for r in head]
        except KeyError:
            problems.append(f"{workload}: {name} missing from a run")
            continue
        qa, qb = quartiles(a), quartiles(b)
        gain = 0.0 - worse_by(metric, qa[1], qb[1])
        wins = sum(worse_by(metric, x, y) < 0.0 for x, y in zip(a, b))
        bound: Optional[float] = metric.get("bound")
        print(f"{name:<22} {qa[0]:>11.5g} {qa[1]:>11.5g} {qa[2]:>11.5g}"
              f" {qb[0]:>11.5g} {qb[1]:>11.5g} {qb[2]:>11.5g} {gain:>+8.1%}"
              f" {'-' if bound is None else f'{bound:.2f}':>6} {wins:>3}/{len(a)}")
        if bound is not None and -gain > bound:
            problems.append(
                f"{workload}: {name} median {qa[1]:.5g} -> {qb[1]:.5g} "
                f"is {-gain:.1%} worse, past its bound {bound:.0%}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 benchmarks/perf_pairs.py")
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", default=None,
        help="workload to run (repeatable); default: every declared one",
    )
    args = parser.parse_args(argv)
    differences = benchmark_differences(args.base, args.head)
    if differences:
        print("refusing to compare: the benchmark differs between the trees: "
              + ", ".join(differences))
        return 2
    spec = json.loads((args.head / SPEC).read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        runs: Dict[str, List[dict]] = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                checkout = args.base if side == "base" else args.head
                runs[side].append(run_once(checkout, spec["command"], workload, args.seed))
        problems += compare(workload, spec["end_to_end"], runs["base"], runs["head"])
    print()
    for problem in problems:
        print(f"FAILED: {problem}")
    print("pair gate: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
