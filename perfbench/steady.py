"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Usage, from the repository root::

    python3 perfbench/steady.py --workload bms-stream --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
for each end-to-end metric its median and the distance between its
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to a third of the metric's bound from
``BENCHMARK.json``.  ``--save`` writes every run's metrics to a JSON
file, so two sets of runs can be compared with ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/steady.py")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save", default=None, help="write the runs to this JSON file")
    parser.add_argument("--compare", default=None, help="a --save file of an earlier set")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    runs = {}
    for workload in args.workload:
        runs[workload] = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout)
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                return 1
            runs[workload].append({k: v["value"] for k, v in result["metrics"].items()})
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    ok = True
    for workload, results in runs.items():
        print(f"{workload} ({len(results)} seeds)")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in results]
            s = spread(values)
            flag = "ok" if s < bound / 3 else "WIDE"
            line = (f"  {name:<22} median {median(values):>12.6g}  spread {s:>7.2%}"
                    f"  bound/3 {bound / 3:>6.2%}  {flag}")
            if workload in earlier:
                before = median(r[name] for r in earlier[workload])
                change = (median(values) - before) / before
                worse = change if metric["better"] == "lower" else -change
                line += f"  vs earlier {change:>+7.2%}"
                if worse > bound:
                    line += " WORSE"
                    ok = False
            ok &= flag == "ok"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
