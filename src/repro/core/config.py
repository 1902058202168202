"""System-wide configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.filters.ewma import PAPER_COEFFICIENT

__all__ = ["SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """Configuration of a full occupancy-detection deployment.

    Defaults reproduce the paper's final configuration: Android
    platform, 2 s scan period, history filter with coefficient 0.65
    and eviction at the second consecutive loss, distance features,
    SVM-RBF classifier, Bluetooth-relay uplink.

    Attributes:
        platform: ``"android"`` or ``"ios"``.
        device: handset radio/energy profile name.
        scan_period_s: scan cycle length.
        filter_coefficient: history filter coefficient.
        max_consecutive_losses: beacon eviction threshold.
        feature: ``"distance"`` or ``"rssi"`` fingerprint features.
        classifier: ``"svm"``, ``"knn"``, ``"naive_bayes"`` or
            ``"proximity"``.
        svm_c: SVM box constraint.
        svm_gamma: RBF kernel gamma.
        knn_k: neighbours for the kNN classifier.
        proximity_outside_threshold: proximity baseline's "too far ->
            outside" bound (metres in distance mode, dBm in RSSI mode).
        uplink: ``"wifi"`` or ``"bluetooth"``.
        uplink_batch_size: reports per uplink batch; 1 (the paper's
            behaviour) posts every report individually, larger values
            buffer reports and flush them as one
            ``POST /sightings/batch`` request.
        uplink_batch_delay_s: maximum sim-seconds a buffered report may
            wait before a flush is forced (only used when batching).
        path_loss_exponent: ranging inversion exponent.
        accel_gating: enable the accelerometer-gated sensing extension.
        gating_grace_s: grace period of the gate.
        seed: master seed for all random streams.
    """

    platform: str = "android"
    device: str = "s3_mini"
    scan_period_s: float = 2.0
    filter_coefficient: float = PAPER_COEFFICIENT
    max_consecutive_losses: int = 2
    feature: str = "distance"
    classifier: str = "svm"
    svm_c: float = 10.0
    svm_gamma: float = 0.5
    knn_k: int = 5
    proximity_outside_threshold: float = 16.0
    uplink: str = "bluetooth"
    uplink_batch_size: int = 1
    uplink_batch_delay_s: float = 10.0
    path_loss_exponent: float = 2.2
    accel_gating: bool = False
    gating_grace_s: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.platform not in ("android", "ios"):
            raise ValueError(f"platform must be android/ios, got {self.platform!r}")
        if self.scan_period_s <= 0.0:
            raise ValueError(f"scan period must be positive, got {self.scan_period_s}")
        if not 0.0 <= self.filter_coefficient < 1.0:
            raise ValueError(
                f"filter coefficient must be in [0, 1), got {self.filter_coefficient}"
            )
        if self.feature not in ("distance", "rssi"):
            raise ValueError(f"feature must be distance/rssi, got {self.feature!r}")
        if self.classifier not in ("svm", "knn", "naive_bayes", "proximity"):
            raise ValueError(
                "classifier must be one of svm/knn/naive_bayes/proximity, "
                f"got {self.classifier!r}"
            )
        if self.uplink not in ("wifi", "bluetooth"):
            raise ValueError(f"uplink must be wifi/bluetooth, got {self.uplink!r}")
        if self.uplink_batch_size < 1:
            raise ValueError(
                f"uplink batch size must be >= 1, got {self.uplink_batch_size}"
            )
        if self.uplink_batch_delay_s < 0.0:
            raise ValueError(
                f"uplink batch delay must be >= 0, got {self.uplink_batch_delay_s}"
            )
        if self.path_loss_exponent <= 0.0:
            raise ValueError(
                f"path-loss exponent must be positive, got {self.path_loss_exponent}"
            )
