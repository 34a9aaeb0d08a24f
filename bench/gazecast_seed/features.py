"""The 31-feature affective gaze vector computed per window.

Canonical order:

====== ==========================================================
index  feature
====== ==========================================================
0      approach_ratio
1      approach_time_avg_ms
2      scan_path_len_avg
3      scan_path_len_std
4-15   X block: mean, iqr_q1q2, iqr_q2q3, std, skewness,
       psd_b1..psd_b5, fixzone_std_avg, fixzone_std_std
16-27  Y block, same layout
28     eye_close_count_avg
29     eye_close_count_std
30     eye_close_count_skew
====== ==========================================================

Numeric conventions, applied everywhere a statistic is formed:

* spreads are sample standard deviations (n-1 denominator);
* skewness is the population-moment ratio m3 / m2**1.5, defined as 0 when
  m2 == 0;
* quartiles interpolate linearly between order statistics (the
  h = (n-1)p + 1 rule);
* every degenerate case (no episodes, single path, empty zone, ...)
  yields 0.0 -- never NaN -- so downstream learners stay total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .windowing import Window

PSD_SINGLE_BINS_HZ = (0.011, 0.022)
PSD_BAND_RANGES_HZ = ((0.033, 0.044), (0.055, 0.066), (0.077, 0.133))
PSD_MODES = ("hz", "normalized")

_BLOCK_STATS = ("mean", "iqr_q1q2", "iqr_q2q3", "std", "skewness")
FEATURE_NAMES: tuple[str, ...] = (
    "approach_ratio",
    "approach_time_avg_ms",
    "scan_path_len_avg",
    "scan_path_len_std",
    *(f"x_{s}" for s in _BLOCK_STATS),
    *(f"x_psd_b{i}" for i in range(1, 6)),
    "x_fixzone_std_avg",
    "x_fixzone_std_std",
    *(f"y_{s}" for s in _BLOCK_STATS),
    *(f"y_psd_b{i}" for i in range(1, 6)),
    "y_fixzone_std_avg",
    "y_fixzone_std_std",
    "eye_close_count_avg",
    "eye_close_count_std",
    "eye_close_count_skew",
)
N_FEATURES = len(FEATURE_NAMES)


def feature_names() -> list[str]:
    """The 31 feature names in canonical (stable) order."""
    return list(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureConfig:
    """Thresholds and grids the gaze features depend on.

    velocity_threshold separates scanning from fixed gaze (units/second);
    approach_delta_mm is the hysteresis below which a distance decrease does
    not count as approaching; the fixation-zone grid is zone_grid x zone_grid
    uniform cells over zone_bounds = (xmin, xmax, ymin, ymax); psd_mode "hz"
    treats band edges as absolute frequencies while "normalized" reads them
    as cycles/frame and multiplies by the sampling rate.
    """

    velocity_threshold: float = 0.5
    approach_delta_mm: float = 0.0
    zone_grid: int = 3
    zone_bounds: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0)
    psd_mode: str = "hz"
    psd_pad_resolution_hz: float = 0.011

    def __post_init__(self):
        if self.velocity_threshold <= 0:
            raise ValidationError("velocity_threshold must be > 0")
        if self.zone_grid < 1:
            raise ValidationError("zone_grid must be >= 1")
        if self.psd_mode not in PSD_MODES:
            raise ValidationError(f"psd_mode must be one of {PSD_MODES}")
        if self.psd_pad_resolution_hz <= 0:
            raise ValidationError("psd_pad_resolution_hz must be > 0")
        xmin, xmax, ymin, ymax = self.zone_bounds
        if not (xmax > xmin and ymax > ymin):
            raise ValidationError("zone_bounds must satisfy xmax > xmin and ymax > ymin")


@dataclass(frozen=True)
class FeatureVector:
    """The 31 canonical features for one window; always finite."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).copy()
        if v.shape != (N_FEATURES,):
            raise ValidationError(f"feature vector must have {N_FEATURES} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("feature vector contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])

    def as_dict(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(FEATURE_NAMES, self.values)}


class DescriptiveStats(NamedTuple):
    mean: float
    std: float
    skewness: float
    iqr_q1q2: float
    iqr_q2q3: float


def _sample_std(x: np.ndarray) -> float:
    """Sample std with an exact 0.0 for constant input.

    np.std of a bitwise-constant series can round to ~1e-17 because the mean
    rounds; the degenerate-to-zero convention needs a value comparison.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.all(x == x[0]):
        return 0.0
    return float(np.std(x, ddof=1))


def _skewness(x: np.ndarray) -> float:
    if np.all(x == x[0]):
        return 0.0
    m = float(np.mean(x))
    d = x - m
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return 0.0
    m3 = float(np.mean(d * d * d))
    return m3 / m2**1.5


def descriptive_stats(series) -> DescriptiveStats:
    """Mean, sample std, moment skewness, and the two inter-quartile distances."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise ValidationError("descriptive_stats needs a 1-d series of length >= 2")
    if np.all(x == x[0]):
        return DescriptiveStats(float(x[0]), 0.0, 0.0, 0.0, 0.0)
    q1, q2, q3 = np.percentile(x, [25.0, 50.0, 75.0])  # linear interpolation: h = (n-1)p + 1
    return DescriptiveStats(
        mean=float(np.mean(x)),
        std=float(np.std(x, ddof=1)),
        skewness=_skewness(x),
        iqr_q1q2=float(q2 - q1),
        iqr_q2q3=float(q3 - q2),
    )


def periodogram(series, rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Unpadded full periodogram of the mean-removed series.

    Returns (freqs, power) over all N DFT bins with power[k] = |X[k]|**2 / N,
    so the bin sum equals N times the population variance (Parseval).
    """
    x = np.asarray(series, dtype=np.float64)
    if len(x) < 2:
        raise ValidationError("periodogram needs at least 2 samples")
    if rate_hz <= 0:
        raise ValidationError("rate_hz must be > 0")
    x = x - (x[0] if np.all(x == x[0]) else np.mean(x))  # constant -> exactly zero signal
    spec = np.fft.fft(x)
    power = (spec.real**2 + spec.imag**2) / len(x)
    freqs = np.fft.fftfreq(len(x), d=1.0 / rate_hz)
    return freqs, power


def band_psd(series, rate_hz: float, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Five band powers from a zero-padded periodogram of the mean-removed series.

    The series is padded so the bin spacing is at most
    config.psd_pad_resolution_hz. Bands 1 and 2 take the single bin nearest
    their target frequency; bands 3-5 average the bins inside their ranges
    (falling back to the bin nearest the range midpoint if the range holds
    no bin, which cannot happen at the default resolution).
    """
    x = np.asarray(series, dtype=np.float64)
    if len(x) < 2:
        raise ValidationError("band_psd needs at least 2 samples")
    if rate_hz <= 0:
        raise ValidationError("rate_hz must be > 0")
    n = len(x)
    x = x - (x[0] if np.all(x == x[0]) else np.mean(x))  # constant -> exactly zero signal
    n_pad = max(n, int(math.ceil(rate_hz / config.psd_pad_resolution_hz)))
    spec = np.fft.rfft(x, n=n_pad)
    power = (spec.real**2 + spec.imag**2) / n
    freqs = np.arange(len(power)) * (rate_hz / n_pad)

    scale = rate_hz if config.psd_mode == "normalized" else 1.0
    out = np.empty(5)
    for b, target in enumerate(PSD_SINGLE_BINS_HZ):
        out[b] = power[int(np.argmin(np.abs(freqs - target * scale)))]
    for b, (lo, hi) in enumerate(PSD_BAND_RANGES_HZ, start=2):
        mask = (freqs >= lo * scale) & (freqs <= hi * scale)
        if np.any(mask):
            out[b] = float(np.mean(power[mask]))
        else:
            out[b] = power[int(np.argmin(np.abs(freqs - 0.5 * (lo + hi) * scale)))]
    return out


def fixation_zone_stats(xs, ys, axis: str, config: FeatureConfig = FeatureConfig()) -> tuple[float, float]:
    """Mean and sample std of per-zone coordinate stds along *axis* ("x" or "y").

    The zone_bounds box is split into zone_grid**2 equal cells; samples
    outside the box clamp to the nearest cell. Only cells holding >= 2
    samples contribute a std. No qualifying cell -> (0, 0); one -> (std, 0).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) == 0 or len(xs) != len(ys):
        raise ValidationError("fixation_zone_stats needs equal-length non-empty coordinate lists")
    if axis not in ("x", "y"):
        raise ValidationError("axis must be 'x' or 'y'")
    g = config.zone_grid
    xmin, xmax, ymin, ymax = config.zone_bounds
    ix = np.clip(np.floor((xs - xmin) / (xmax - xmin) * g).astype(int), 0, g - 1)
    iy = np.clip(np.floor((ys - ymin) / (ymax - ymin) * g).astype(int), 0, g - 1)
    cell = ix * g + iy
    coords = xs if axis == "x" else ys

    stds = []
    for c in np.unique(cell):
        members = coords[cell == c]
        if len(members) >= 2:
            stds.append(_sample_std(members))
    if not stds:
        return 0.0, 0.0
    if len(stds) == 1:
        return stds[0], 0.0
    arr = np.array(stds)
    return float(np.mean(arr)), _sample_std(arr)


def _run_bounds(mask: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) index pairs of maximal True runs."""
    if len(mask) == 0:
        return []
    m = mask.astype(np.int8)
    edges = np.flatnonzero(np.diff(m))
    starts = list(edges[m[edges] == 0] + 1)
    stops = list(edges[m[edges] == 1] + 1)
    if m[0]:
        starts.insert(0, 0)
    if m[-1]:
        stops.append(len(mask))
    return list(zip(starts, stops))


def scan_path_stats(xs, ys, timestamps_ms, config: FeatureConfig = FeatureConfig()) -> tuple[float, float]:
    """Mean and sample std of scan-path lengths inside the window.

    A step is scanning when its velocity (Euclidean step distance over step
    duration) exceeds velocity_threshold; a scan path is a maximal run of
    scanning steps and its length is the sum of its step distances.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ts = np.asarray(timestamps_ms, dtype=np.float64)
    if len(xs) < 2:
        raise ValidationError("scan_path_stats needs at least 2 samples")
    dist = np.hypot(np.diff(xs), np.diff(ys))
    dt_s = np.diff(ts) / 1000.0
    scanning = dist / dt_s > config.velocity_threshold
    lengths = [float(np.sum(dist[a:b])) for a, b in _run_bounds(scanning)]
    if not lengths:
        return 0.0, 0.0
    if len(lengths) == 1:
        return lengths[0], 0.0
    arr = np.array(lengths)
    return float(np.mean(arr)), _sample_std(arr)


def approach_stats(distances_mm, timestamps_ms, config: FeatureConfig = FeatureConfig()) -> tuple[float, float]:
    """Fraction of approaching steps and mean approach-episode duration in ms.

    A step approaches when the eye-to-screen distance drops by more than
    approach_delta_mm. An episode of steps i..j spans timestamps_ms[j+1] -
    timestamps_ms[i]. No episodes -> (0, 0).
    """
    d = np.asarray(distances_mm, dtype=np.float64)
    ts = np.asarray(timestamps_ms, dtype=np.float64)
    if len(d) < 2:
        raise ValidationError("approach_stats needs at least 2 samples")
    approaching = -np.diff(d) > config.approach_delta_mm
    ratio = float(np.mean(approaching))
    durations = [float(ts[b] - ts[a]) for a, b in _run_bounds(approaching)]
    if not durations:
        return ratio, 0.0
    return ratio, float(np.mean(durations))


def eye_closure_stats(closed_flags) -> tuple[float, float, float]:
    """Mean, sample std, and skewness of eye-closure episode frame counts.

    An episode is a maximal run of closed frames. No episodes -> (0, 0, 0);
    a single episode -> (length, 0, 0).
    """
    flags = np.asarray(closed_flags, dtype=bool)
    if len(flags) == 0:
        raise ValidationError("eye_closure_stats needs a non-empty flag list")
    lengths = np.array([b - a for a, b in _run_bounds(flags)], dtype=np.float64)
    if len(lengths) == 0:
        return 0.0, 0.0, 0.0
    if len(lengths) == 1:
        return float(lengths[0]), 0.0, 0.0
    return float(np.mean(lengths)), _sample_std(lengths), _skewness(lengths)


def extract(window: Window, config: FeatureConfig = FeatureConfig()) -> FeatureVector:
    """Compose the 31-slot canonical vector for one window."""
    if window.n_samples < 2:
        raise ValidationError(f"window at {window.start_ms:.1f} ms has {window.n_samples} sample(s); need >= 2")
    xs, ys = window.xs, window.ys
    dist = window.distances_mm
    ts = window.timestamps_ms
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys)) and np.all(np.isfinite(dist))):
        raise ValidationError(f"window at {window.start_ms:.1f} ms contains non-finite samples")
    rate = window.rate_hz

    values = np.empty(N_FEATURES)
    values[0:2] = approach_stats(dist, ts, config)
    values[2:4] = scan_path_stats(xs, ys, ts, config)
    for base, coords, axis in ((4, xs, "x"), (16, ys, "y")):
        s = descriptive_stats(coords)
        values[base : base + 5] = (s.mean, s.iqr_q1q2, s.iqr_q2q3, s.std, s.skewness)
        values[base + 5 : base + 10] = band_psd(coords, rate, config)
        values[base + 10 : base + 12] = fixation_zone_stats(xs, ys, axis, config)
    values[28:31] = eye_closure_stats(window.closed)
    return FeatureVector(values)


def extract_matrix(windows: list[Window], config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Stack :func:`extract` over windows into an (n_windows, 31) matrix."""
    return np.array([extract(w, config).values for w in windows])
