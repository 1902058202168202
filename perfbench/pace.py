"""The host's pace: a fixed reference task, timed beside the workload.

The benchmark runs on a shared guest whose speed swings by up to half
from one minute to the next, on the CPU clock too: the host's other
tenants contend for the same cores and caches, and the guest sees
almost no steal time.  Two sets of ten runs of the same code, timed
as measured, spread by 14-48 % between their quartiles, past the 0.25
bounds on twelve pairs of metric and workload.  So each phase of a
repetition also times a fixed task of the benchmark's own, many times,
spread through the phase; how much slower than ``NOMINAL_S`` that task ran is how much
slower the host ran, and ``run.py`` divides the phase's timings by it.
Every timing the benchmark reports is therefore a time at the nominal
pace; ``run.py`` prints the slowdown it divided by.

The task is the benchmark's code, not the program's: no change to
``src/`` can move it.  It is built from what the pipeline's own time
goes to, in about equal shares: interpreter work on dicts and floats
(filters, routing), small objects built and sorted (reports, requests),
JSON encoding and decoding (the WAL, request bodies), and small numpy
kernels (channel and SVM math).  In a trial of six runs of one seed,
each of these shares alone cut the range of paper-house's drive rate
from 18 % (as measured) to about 9 %; a share that chased pointers
through a large heap left it at 30 %, its own time swinging by 42 %,
and is left out.
"""

from __future__ import annotations

import json
import math
import time
from statistics import median
from typing import Callable, Dict, List

import numpy as np

#: CPU seconds of one ``reference_task`` at the nominal pace, a round
#: figure: on the 2-vCPU x86-64 guest the benchmark was built on (Xeon
#: at 2.1 GHz, Python 3.11, numpy 2.4) the task's median took 1.1-1.8
#: times this.
NOMINAL_S = 0.001

_VECTOR = np.linspace(0.5, 9.5, 24)
_ROWS = np.random.default_rng(3).normal(size=(8, 12))
_CENTRES = np.random.default_rng(4).normal(size=(200, 12))
_DOCUMENT = {
    "device_id": "dev-0001",
    "beacons": {f"b{i}": -60.0 - 0.37 * i for i in range(12)},
    "time": 123.5,
}


class _Item:
    __slots__ = ("value", "group", "name")

    def __init__(self, value: float, group: int, name: str) -> None:
        self.value = value
        self.group = group
        self.name = name


def _floats() -> float:
    acc = 0.0
    table: Dict[int, float] = {}
    for i in range(360):
        key = i % 11
        table[key] = 0.65 * table.get(key, 0.0) + 0.35 * (i % 7)
        acc += math.exp(-0.1 * table[key])
    for j in range(38):
        v = _VECTOR * (1.0 + 0.01 * j)
        acc += float(np.sqrt(v @ v)) + float(v.max())
    return acc


def _objects() -> float:
    items = [_Item(0.5 * i, i % 7, f"dev-{i:04d}") for i in range(270)]
    items.sort(key=lambda item: (item.group, -item.value))
    return sum(item.value for item in items if item.name.endswith("3"))


def _json() -> int:
    size = 0
    for _ in range(14):
        text = json.dumps(_DOCUMENT, sort_keys=True)
        size += len(json.loads(text)["beacons"])
    return size


def _kernels() -> float:
    acc = 0.0
    for _ in range(9):
        d = (_ROWS**2).sum(1)[:, None] + (_CENTRES**2).sum(1)[None, :] - 2 * _ROWS @ _CENTRES.T
        acc += float(np.exp(-0.1 * d).sum())
    return acc


def reference_task() -> None:
    """The fixed task: four shares of about a quarter each."""
    _floats()
    _objects()
    _json()
    _kernels()


class Pace:
    """The reference task's times through one phase of a repetition."""

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Time the reference task ``count`` times."""
        for _ in range(count):
            start = self.clock()
            reference_task()
            self.samples.append(self.clock() - start)

    def slowdown(self) -> float:
        """How many times slower than nominal the host ran: the median sample."""
        return median(self.samples) / NOMINAL_S
