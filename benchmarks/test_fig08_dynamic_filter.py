"""Figures 7-8: the stability/responsiveness trade-off of the filter.

Paper: "To determine the best trade-off for this coefficient some
dynamic tests have been performed by moving the device from one
transmitter to another at a speed of 1-1.5 m/s ... we found that 0.65
is a good trade off between stability and responsiveness."
"""

import numpy as np
from conftest import print_table, run_once

from repro.core.experiments import dynamic_filter_experiment

COEFFS = (0.0, 0.3, 0.5, 0.65, 0.8, 0.9)


def _sweep():
    """Average the sweep over a few walks to tame seed noise."""
    runs = [dynamic_filter_experiment(COEFFS, seed=s) for s in (2, 5, 9)]
    merged = []
    for i, coeff in enumerate(COEFFS):
        merged.append(
            {
                "coefficient": coeff,
                "lag": float(np.mean([r[i].handover_lag_s for r in runs])),
                "std": float(np.mean([r[i].static_std_m for r in runs])),
                "rmse": float(np.mean([r[i].tracking_rmse_m for r in runs])),
            }
        )
    return merged


def test_fig08_coefficient_tradeoff(benchmark):
    sweep = run_once(benchmark, _sweep)
    rows = [
        (
            f"coeff {r['coefficient']:.2f}",
            "0.65 chosen" if r["coefficient"] == 0.65 else "n/a",
            f"lag {r['lag']:.1f}s  std {r['std']:.2f}m  rmse {r['rmse']:.2f}m",
        )
        for r in sweep
    ]
    print_table("Figures 7-8: history-coefficient sweep (walk at 1.2 m/s)", rows)

    by_coeff = {r["coefficient"]: r for r in sweep}
    # Shape 1: stability improves monotonically with the coefficient.
    stds = [by_coeff[c]["std"] for c in COEFFS]
    assert stds[-1] < stds[0]
    # Shape 2: responsiveness degrades at high coefficients.
    assert by_coeff[0.9]["lag"] > by_coeff[0.0]["lag"]
    # Shape 3: 0.65 is a genuine compromise - strictly better stability
    # than raw, and far less lag than 0.9 (the paper's conclusion).
    assert by_coeff[0.65]["std"] < by_coeff[0.0]["std"]
    assert by_coeff[0.65]["lag"] < by_coeff[0.9]["lag"]
