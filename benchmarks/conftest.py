"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one figure (or headline claim) of the
paper, prints a paper-vs-measured table, and asserts that the *shape*
of the result holds (who wins, roughly by how much).  Timing is taken
with a single round: the quantity of interest is the experimental
output, not the runtime of the harness.

Besides printing, every table row is captured and — together with the
test's pass/fail outcome — appended to ``BENCH_results.json`` at the
repository root when the session ends, so successive benchmark runs
build a machine-readable paper-vs-measured trajectory.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = ROOT / "BENCH_results.json"

# Reference implementations the benchmarks time against live in the
# test package (``tests.smo_oracle``); make it importable however
# pytest was started.
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

#: nodeid -> list of row dicts captured by :func:`print_table`.
_tables = {}

#: nodeid -> "passed" / "failed" outcome of the call phase.
_outcomes = {}

#: nodeid of the test currently executing (tables attribute to it).
_current_nodeid = None


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_table(title, rows):
    """Print an aligned paper-vs-measured table and capture its rows.

    Args:
        title: table heading.
        rows: list of (label, paper_value, measured_value) strings.
    """
    print()
    print(f"=== {title} ===")
    width = max(len(r[0]) for r in rows)
    print(f"{'quantity':<{width}}  {'paper':>18}  {'measured':>18}")
    for label, paper, measured in rows:
        print(f"{label:<{width}}  {paper:>18}  {measured:>18}")
    if _current_nodeid is not None:
        _tables.setdefault(_current_nodeid, []).extend(
            {
                "title": title,
                "label": str(label),
                "paper": str(paper),
                "measured": str(measured),
            }
            for label, paper, measured in rows
        )


def pytest_runtest_setup(item):
    global _current_nodeid
    _current_nodeid = item.nodeid


def pytest_runtest_logreport(report):
    if report.when == "call":
        _outcomes[report.nodeid] = report.outcome


def _check_row(row):
    """Validate one result row against the persistence schema.

    ``BENCH_results.json`` is the paper-vs-measured record of every
    benchmark session, so a malformed row must fail the session loudly
    here rather than silently corrupting that record.
    """
    for key in ("test", "title", "label", "paper", "measured"):
        value = row.get(key)
        if not isinstance(value, str) or not value.strip():
            raise ValueError(
                f"benchmark result row has invalid {key!r}: {value!r} (row: {row})"
            )
    if not isinstance(row.get("passed"), bool):
        raise ValueError(f"benchmark result row has non-bool 'passed': {row}")


def pytest_sessionfinish(session, exitstatus):
    """Append this session's captured tables to ``BENCH_results.json``.

    Each appended session entry carries a ``run_id`` (its position in
    the history) so downstream tooling can identify the latest run
    without relying on list order alone.
    """
    if not _tables:
        return
    results = []
    for nodeid, rows in sorted(_tables.items()):
        passed = _outcomes.get(nodeid) == "passed"
        for row in rows:
            result = {"test": nodeid, "passed": passed, **row}
            _check_row(result)
            results.append(result)
    try:
        history = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        if not isinstance(history, list):
            history = []
    except (OSError, json.JSONDecodeError):
        history = []
    history.append({"run_id": len(history), "results": results})
    RESULTS_PATH.write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.fixture(autouse=True)
def _clear_current_nodeid_after_test():
    yield
    global _current_nodeid
    _current_nodeid = None
