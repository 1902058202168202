"""Render each reproduced figure as a terminal chart.

One function per figure; each runs the corresponding experiment (with
light default parameters) and returns the chart text.  Used by the CLI
(``python -m repro figures``) and the reporting example.
"""

from __future__ import annotations

from repro.core.experiments import (
    classification_experiment,
    device_offset_experiment,
    dynamic_filter_experiment,
    energy_experiment,
    static_signal_experiment,
)
from repro.report.ascii_plot import ascii_bar_chart, ascii_time_series

__all__ = [
    "render_figure_4",
    "render_figure_5",
    "render_figure_6",
    "render_figure_8",
    "render_figure_9",
    "render_figure_10",
    "render_figure_11",
    "render_all_figures",
]


def render_figure_4(seed: int = 1) -> str:
    """Raw distance estimates at 2 m with 2 s scans (Figure 4)."""
    result = static_signal_experiment(scan_period_s=2.0, seed=seed)
    series = {"estimated": list(zip(result.times, result.distances))}
    chart = ascii_time_series(
        series,
        title=(
            "Figure 4 - raw distance estimates, D=2 m, 2 s scans "
            f"(std {result.std_m:.2f} m)"
        ),
        y_label="estimated distance (m)",
    )
    return chart


def render_figure_5(seed: int = 1) -> str:
    """Filtered static trace, coefficient 0.65 (Figure 5)."""
    raw = static_signal_experiment(scan_period_s=2.0, seed=seed)
    filtered = static_signal_experiment(
        scan_period_s=2.0, coefficient=0.65, seed=seed
    )
    chart = ascii_time_series(
        {
            "raw": list(zip(raw.times, raw.distances)),
            "filtered(0.65)": list(zip(filtered.times, filtered.distances)),
        },
        title=(
            "Figure 5 - history filter on the static trace "
            f"(std {raw.std_m:.2f} -> {filtered.std_m:.2f} m)"
        ),
        y_label="estimated distance (m)",
    )
    return chart


def render_figure_6(seed: int = 1) -> str:
    """Static trace with 5 s scans (Figure 6)."""
    result = static_signal_experiment(scan_period_s=5.0, seed=seed)
    chart = ascii_time_series(
        {"estimated": list(zip(result.times, result.distances))},
        title=(
            "Figure 6 - raw distance estimates, D=2 m, 5 s scans "
            f"(std {result.std_m:.2f} m)"
        ),
        y_label="estimated distance (m)",
    )
    return chart


def render_figure_8(seed: int = 2) -> str:
    """Coefficient trade-off from the dynamic walk (Figures 7-8)."""
    sweep = dynamic_filter_experiment(seed=seed)
    lag = {f"c={r.coefficient:.2f}": r.handover_lag_s for r in sweep}
    std = {f"c={r.coefficient:.2f}": r.static_std_m for r in sweep}
    return (
        ascii_bar_chart(lag, title="Figure 8a - handover lag (s) vs coefficient", unit="s")
        + "\n\n"
        + ascii_bar_chart(std, title="Figure 8b - static spread (m) vs coefficient", unit="m")
        + "\n\nThe paper picks 0.65: low lag AND low spread."
    )


def render_figure_9(seeds=(3,)) -> str:
    """Classifier accuracy comparison and confusion matrix (Figure 9)."""
    result = classification_experiment(seeds=seeds)
    chart = ascii_bar_chart(
        {
            "SVM-RBF (paper)": result.accuracies["svm"] * 100,
            "naive Bayes": result.accuracies["naive_bayes"] * 100,
            "kNN": result.accuracies["knn"] * 100,
            "proximity (prev work)": result.accuracies["proximity"] * 100,
        },
        title="Figure 9 - classification accuracy (%), held-out positions",
        unit="%",
        sort=True,
    )
    return (
        chart
        + "\n\nSVM confusion matrix (rows true, cols predicted):\n"
        + result.svm_confusion.to_text()
        + f"\n\nroom-level FP={result.false_positives}, FN={result.false_negatives}"
        " (paper: FP slightly higher, the benign direction)"
    )


def render_figure_10(runs: int = 2, duration_s: float = 600.0) -> str:
    """Wi-Fi vs Bluetooth energy comparison (Figure 10)."""
    result = energy_experiment(duration_s=duration_s, runs=runs)
    chart = ascii_bar_chart(
        {
            "Wi-Fi uplink": result.wifi.average_power_w * 1000.0,
            "Bluetooth relay": result.bluetooth.average_power_w * 1000.0,
        },
        title="Figure 10 - average phone power (mW), S3 Mini",
        unit=" mW",
    )
    return chart + (
        f"\n\nBluetooth saving: {result.saving_fraction:.1%} (paper ~15 %)"
        f"\nWi-Fi battery life: {result.wifi.battery_life_h:.1f} h (paper ~10 h)"
    )


def render_figure_11(seed: int = 3) -> str:
    """Per-device RSSI offsets (Figure 11)."""
    result = device_offset_experiment(
        devices=("nexus_5", "s3_mini"), seed=seed
    )
    chart = ascii_bar_chart(
        {
            device: abs(mean)
            for device, mean in result.mean_rssi.items()
        },
        title="Figure 11 - |mean RSSI| (dBm) at the same 2 m link",
        unit=" dBm",
    )
    return chart + (
        f"\n\nNexus 5 reads {result.gap_db('nexus_5', 's3_mini'):+.1f} dB "
        "stronger than the S3 Mini (systematic device offset)"
    )


def render_all_figures() -> str:
    """Every reproduced figure, concatenated (used by the CLI)."""
    sections = [
        render_figure_4(),
        render_figure_5(),
        render_figure_6(),
        render_figure_8(),
        render_figure_9(),
        render_figure_10(),
        render_figure_11(),
    ]
    rule = "\n" + "=" * 78 + "\n"
    return rule.join(sections)
