"""The perfbench pair gate's verdicts (``benchmarks/perf_pairs.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

METRICS = [
    {"name": "ingest_capacity_sps", "better": "higher", "bound": 0.25},
    {"name": "ingest_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ingest_p99_ms", "better": "lower"},
]


def run(capacity=1000.0, p50=1.0, p99=5.0, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "ingest_capacity_sps": {"value": capacity},
            "ingest_p50_ms": {"value": p50},
            "ingest_p99_ms": {"value": p99},
        },
    }


def verdict(base, head):
    return perf_pairs.compare("w", METRICS, base, head)


class TestCompare:
    def test_equal_runs_pass(self):
        assert verdict([run()] * 3, [run()] * 3) == []

    def test_faster_head_passes(self):
        assert verdict([run()] * 3, [run(capacity=3000.0, p50=0.4)] * 3) == []

    def test_worse_within_bound_passes(self):
        assert verdict([run()] * 3, [run(capacity=800.0, p50=1.2)] * 3) == []

    @pytest.mark.parametrize(
        "head, metric",
        [
            (run(capacity=700.0), "ingest_capacity_sps"),
            (run(p50=1.3), "ingest_p50_ms"),
        ],
    )
    def test_median_past_bound_fails(self, head, metric):
        [problem] = verdict([run()] * 3, [head] * 3)
        assert metric in problem

    def test_one_slow_run_does_not_move_the_median(self):
        assert verdict([run()] * 3, [run(), run(capacity=100.0), run()]) == []

    def test_unbounded_metric_never_fails(self):
        assert verdict([run()] * 3, [run(p99=50.0)] * 3) == []

    def test_incorrect_run_fails(self):
        [problem] = verdict([run()] * 3, [run(), run(correct=False), run()])
        assert "head run 1" in problem

    def test_higher_failed_share_fails(self):
        [problem] = verdict([run()] * 3, [run(failed=1), run(), run()])
        assert "failed share" in problem

    def test_equal_failed_share_passes(self):
        assert verdict([run(failed=1)] * 3, [run(failed=1)] * 3) == []


class TestBenchmarkIdentity:
    @staticmethod
    def tree(root, bench_text):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(bench_text)
        (root / "BENCHMARK.json").write_text(json.dumps({"workloads": []}))
        return root

    def test_identical_trees_have_no_differences(self, tmp_path):
        base = self.tree(tmp_path / "base", "x = 1\n")
        head = self.tree(tmp_path / "head", "x = 1\n")
        (head / "perfbench" / "__pycache__").mkdir()
        (head / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")
        assert perf_pairs.benchmark_differences(base, head) == []

    def test_refuses_to_compare_different_benchmarks(self, tmp_path, capsys):
        base = self.tree(tmp_path / "base", "x = 1\n")
        head = self.tree(tmp_path / "head", "x = 2\n")
        (head / "perfbench" / "extra.py").write_text("")
        assert perf_pairs.main([str(base), str(head)]) == 2
        out = capsys.readouterr().out
        assert "perfbench/extra.py" in out and "perfbench/run.py" in out
