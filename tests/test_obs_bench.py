"""Tests for the perf-regression gate (repro.obs.bench)."""

import json
from pathlib import Path

import pytest

from repro.obs.bench import (
    BenchPoint,
    check,
    latest,
    load_baseline,
    load_results,
    main,
    normalise,
    parse_value,
    update_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def history(*sessions):
    return [{"results": list(rows)} for rows in sessions]


def row(test, label, measured, **extra):
    return {
        "test": test,
        "title": "t",
        "label": label,
        "paper": "-",
        "measured": measured,
        "passed": True,
        **extra,
    }


class TestParseValue:
    @pytest.mark.parametrize(
        "measured, expected",
        [
            ("3.68x", 3.68),
            ("14.2%", 14.2),
            ("std 0.83 m", 0.83),
            ("-5 dBm", -5.0),
            ("1e-3 s", 1e-3),
        ],
    )
    def test_leading_float(self, measured, expected):
        assert parse_value(measured) == pytest.approx(expected)

    def test_textual_cell_yields_none(self):
        assert parse_value("yes") is None


class TestNormalise:
    def test_flattens_rows_into_points(self):
        points = normalise(history([row("a.py::t", "speedup", "2.0x")]))
        assert points == [BenchPoint("a.py::t", "speedup", 2.0, 0)]
        assert points[0].key == "a.py::t::speedup"

    def test_explicit_run_id_wins_over_position(self):
        entry = {"run_id": 7, "results": [row("a.py::t", "s", "1.0")]}
        assert normalise([entry])[0].run_id == 7

    def test_textual_rows_drop_out(self):
        points = normalise(history([row("a.py::t", "verdict", "holds")]))
        assert points == []


class TestLatest:
    def test_later_run_wins(self):
        points = normalise(
            history(
                [row("a.py::t", "s", "1.0")],
                [row("a.py::t", "s", "2.0")],
            )
        )
        assert latest(points)["a.py::t::s"].value == 2.0


class TestLoadResults:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        doc = history([row("a.py::t", "s", "1.0")])
        path.write_text(json.dumps(doc))
        assert load_results(path) == doc

    def test_rejects_non_list(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_results(path)

    def test_rejects_malformed_session(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps([{"no_results": []}]))
        with pytest.raises(ValueError):
            load_results(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps([{"results": [{"label": "x"}]}]))
        with pytest.raises(ValueError):
            load_results(path)


class TestLoadBaseline:
    def test_rejects_missing_series(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_rejects_bad_direction(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps(
                {"series": {"k": {"value": 1.0, "direction": "sideways"}}}
            )
        )
        with pytest.raises(ValueError):
            load_baseline(path)


class TestCheck:
    def baseline(self, **series):
        return {"tolerance_pct": 50.0, "series": series}

    def test_within_band_passes(self):
        points = normalise(history([row("a.py::t", "s", "6.0x")]))
        baseline = self.baseline(**{"a.py::t::s": {"value": 10.0}})
        assert check(points, baseline) == []

    def test_higher_series_fails_below_floor(self):
        points = normalise(history([row("a.py::t", "s", "4.0x")]))
        baseline = self.baseline(**{"a.py::t::s": {"value": 10.0}})
        violations = check(points, baseline)
        assert len(violations) == 1
        assert "regressed" in violations[0].message

    def test_higher_series_may_rise_freely(self):
        points = normalise(history([row("a.py::t", "s", "99x")]))
        baseline = self.baseline(**{"a.py::t::s": {"value": 10.0}})
        assert check(points, baseline) == []

    def test_lower_series_fails_above_ceiling(self):
        points = normalise(history([row("a.py::t", "ms", "20")]))
        baseline = self.baseline(
            **{"a.py::t::ms": {"value": 10.0, "direction": "lower"}}
        )
        assert len(check(points, baseline)) == 1

    def test_per_series_tolerance_overrides_default(self):
        points = normalise(history([row("a.py::t", "s", "4.0x")]))
        baseline = self.baseline(
            **{"a.py::t::s": {"value": 10.0, "tolerance_pct": 80.0}}
        )
        assert check(points, baseline) == []

    def test_missing_series_is_a_violation(self):
        baseline = self.baseline(**{"gone.py::t::s": {"value": 1.0}})
        violations = check([], baseline)
        assert "missing" in violations[0].message


class TestUpdateBaseline:
    def test_repins_values_preserving_directions(self):
        points = normalise(history([row("a.py::t", "s", "7.0x")]))
        baseline = {
            "tolerance_pct": 50.0,
            "series": {
                "a.py::t::s": {"value": 1.0, "direction": "higher"},
                "gone.py::t::s": {"value": 2.0, "direction": "lower"},
            },
        }
        updated = update_baseline(points, baseline)
        assert updated["series"]["a.py::t::s"]["value"] == 7.0
        assert updated["series"]["a.py::t::s"]["direction"] == "higher"
        assert updated["series"]["gone.py::t::s"]["value"] == 2.0


class TestCli:
    def write_pair(self, tmp_path, measured="9.0x"):
        results = tmp_path / "results.json"
        baseline = tmp_path / "baseline.json"
        results.write_text(
            json.dumps(history([row("a.py::t", "s", measured)]))
        )
        baseline.write_text(
            json.dumps(
                {
                    "tolerance_pct": 50.0,
                    "series": {"a.py::t::s": {"value": 10.0}},
                }
            )
        )
        return results, baseline

    def test_check_passes(self, tmp_path, capsys):
        results, baseline = self.write_pair(tmp_path)
        code = main(
            ["--results", str(results), "--baseline", str(baseline), "--check"]
        )
        assert code == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        results, baseline = self.write_pair(tmp_path, measured="1.0x")
        code = main(
            ["--results", str(results), "--baseline", str(baseline), "--check"]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def test_unreadable_results_exit_2(self, tmp_path, capsys):
        results, baseline = self.write_pair(tmp_path)
        results.write_text("not json")
        code = main(
            ["--results", str(results), "--baseline", str(baseline), "--check"]
        )
        assert code == 2

    def test_update_baseline_rewrites_file(self, tmp_path):
        results, baseline = self.write_pair(tmp_path, measured="42x")
        code = main(
            [
                "--results",
                str(results),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        assert code == 0
        doc = json.loads(baseline.read_text())
        assert doc["series"]["a.py::t::s"]["value"] == 42.0


class TestCommittedBaseline:
    """The checked-in baseline must gate the checked-in history."""

    def test_baseline_loads_and_passes_against_history(self):
        baseline = load_baseline(REPO_ROOT / "benchmarks" / "bench_baseline.json")
        points = normalise(load_results(REPO_ROOT / "BENCH_results.json"))
        assert check(points, baseline) == []

    def test_baseline_covers_the_perf_benchmarks(self):
        baseline = load_baseline(REPO_ROOT / "benchmarks" / "bench_baseline.json")
        files = {key.split("::")[0] for key in baseline["series"]}
        assert files == {
            "benchmarks/test_perf_parallel.py",
            "benchmarks/test_perf_refresh.py",
            "benchmarks/test_perf_svm_train.py",
            "benchmarks/test_perf_wal_replay.py",
        }
