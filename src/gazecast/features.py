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
* skewness is the population-moment ratio m3 / m2**1.5, defined as 0 for a
  constant series; the moments are taken after an exact power-of-two
  rescale (skewness is scale-free), so they cannot underflow;
* quartiles interpolate linearly between order statistics (the
  h = (n-1)p + 1 rule);
* every degenerate case (no episodes, single path, empty zone, ...)
  yields 0.0 -- never NaN -- so downstream learners stay total.

Extraction is batched. :func:`extract_matrix` takes the windows of one
sequence as index arrays (a :class:`windowing.Windows` record), groups them
by sample count and runs each group's (W, n) arrays through one call per
feature family. Every family takes (W, n) arrays, one row per window, and
returns a (W, k) array, one row of k features per window. Only band_psd
splits its rows into batches, to bound its zero-padded spectra. The nominal
rate is taken once per sequence.
Sums over runs, zones and episodes are NumPy reductions over blocks of
equal-length groups, so they follow NumPy's own reduction order for a 1-d
array (pairwise from 8 terms on): a window's features are the same bits
whatever batch it is computed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .windowing import Windows

PSD_SINGLE_BINS_HZ = (0.011, 0.022)
PSD_BAND_RANGES_HZ = ((0.033, 0.044), (0.055, 0.066), (0.077, 0.133))
PSD_MODES = ("hz", "normalized")
# Rows per band_psd periodogram batch: bounds its zero-padded (rows, n_pad) spectra whatever the window count.
_CHUNK_WINDOWS = 128

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
        # Written as not (v > 0) so that NaN fails them too.
        if not (self.velocity_threshold > 0):
            raise ValidationError("velocity_threshold must be > 0")
        if not (self.approach_delta_mm >= 0):
            raise ValidationError("approach_delta_mm must be >= 0")
        if not (self.zone_grid >= 1):
            raise ValidationError("zone_grid must be >= 1")
        if self.zone_grid > math.isqrt(2**63 - 1):  # a cell key ix * zone_grid + iy must fit in int64
            raise ValidationError(f"zone_grid must be <= {math.isqrt(2**63 - 1)}")
        if self.psd_mode not in PSD_MODES:
            raise ValidationError(f"psd_mode must be one of {PSD_MODES}")
        if not (self.psd_pad_resolution_hz > 0):
            raise ValidationError("psd_pad_resolution_hz must be > 0")
        xmin, xmax, ymin, ymax = self.zone_bounds
        # A positive finite width on each axis; refuses NaN and infinite bounds too.
        if not (0 < xmax - xmin < math.inf and 0 < ymax - ymin < math.inf):
            raise ValidationError("zone_bounds must be finite and satisfy xmax > xmin and ymax > ymin")


# --- batch plumbing -----------------------------------------------------------


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, start, stop) of each maximal True run in a 2-d mask, in row-major order."""
    padded = np.zeros((mask.shape[0], mask.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    rows, starts = np.nonzero(edges == 1)
    return rows, starts, np.nonzero(edges == -1)[1]


def _segments(starts: np.ndarray, lengths: np.ndarray):
    """Flat indices of the segments [start, start + length), one (G, length) block per distinct length.

    Yields (positions of the segments in the input, index block). NumPy
    reduces every row of a block in the order a 1-d call on that segment
    would (pairwise from 8 terms on), so block reductions equal per-segment
    ones bit for bit; a flat segment sum (bincount, reduceat) would not.
    """
    for length in np.unique(lengths):
        sel = np.flatnonzero(lengths == length)
        yield sel, starts[sel, None] + np.arange(length)


def _skewness_rows(x: np.ndarray) -> np.ndarray:
    """m3 / m2**1.5 per row of non-constant rows, after an exact power-of-two rescale.

    The rescale puts each row's max|x| in [0.5, 1), so m2**1.5 cannot underflow.
    The deviations are centred twice (the corrected two-pass form of Chan,
    Golub & LeVeque, 1983): the rounding of the first mean would otherwise
    give [-1e6, -999999.9999999999] a skewness of 1.414 instead of 0.
    """
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x), axis=1))[1][:, None])
    d = x - np.mean(x, axis=1)[:, None]
    d -= np.mean(d, axis=1)[:, None]
    m2 = np.mean(d * d, axis=1)
    m3 = np.mean(d * d * d, axis=1)
    out = np.zeros(len(x))
    ok = m2 != 0.0
    # Python's scalar power: NumPy's vector m2**1.5 differs in the last bit for ~5% of values.
    out[ok] = m3[ok] / np.array([v**1.5 for v in m2[ok].tolist()])
    return out


def _moments(block: np.ndarray, skew: bool = False) -> np.ndarray:
    """Per-row [mean, sample std(, skewness)] of a (G, k >= 2) block.

    An exactly constant row gets std and skewness 0.0: np.std of a constant
    series can round to ~1e-17 because its mean rounds.
    """
    out = np.zeros((len(block), 3 if skew else 2))
    out[:, 0] = np.mean(block, axis=1)
    varied = ~np.all(block == block[:, :1], axis=1)
    if np.any(varied):
        out[varied, 1] = np.std(block[varied], axis=1, ddof=1)
        if skew:
            out[varied, 2] = _skewness_rows(block[varied])
    return out


def _item_moments(values: np.ndarray, rows: np.ndarray, n_rows: int, skew: bool = False) -> np.ndarray:
    """[mean, sample std(, skewness)] of each row's items; *values* are sorted by their *rows*.

    A row with no items gets zeros; with one item, (value, 0, 0).
    """
    counts = np.bincount(rows, minlength=n_rows)
    out = np.zeros((n_rows, 3 if skew else 2))
    for sel, idx in _segments(np.cumsum(counts) - counts, counts):
        if idx.shape[1] == 1:
            out[sel, 0] = values[idx[:, 0]]
        elif idx.shape[1] > 1:
            out[sel] = _moments(values[idx], skew)
    return out


# --- feature families ---------------------------------------------------------
#
# Each family takes (W, n) float arrays (bool for eye closure), one row per
# window of n samples, and returns a (W, k) array: row i holds the k features
# of window i, in the columns its docstring lists. fixation_zone_stats sorts
# the zone cells once for both axes: (W, 4), x avg, x std, y avg, y std.


def descriptive_stats(x) -> np.ndarray:
    """Columns mean, sample std, moment skewness, and the two inter-quartile distances (q2 - q1, q3 - q2)."""
    if x.shape[1] < 2:
        raise ValidationError("descriptive_stats needs series of length >= 2")
    out = np.zeros((len(x), 5))
    const = np.all(x == x[:, :1], axis=1)
    out[const, 0] = x[const, 0]
    v = x[~const]
    if len(v):
        q1, q2, q3 = np.percentile(v, [25.0, 50.0, 75.0], axis=1)  # linear interpolation: h = (n-1)p + 1
        out[~const, :3] = _moments(v, skew=True)
        out[~const, 3] = q2 - q1
        out[~const, 4] = q3 - q2
    return out


def band_psd(x, rate_hz: float, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Five band-power columns from a zero-padded periodogram of each mean-removed row.

    Each row is padded so the bin spacing is at most
    config.psd_pad_resolution_hz. Bands 1 and 2 take the single bin nearest
    their target frequency; bands 3-5 average the bins inside their ranges
    (falling back to the bin nearest the range midpoint if the range holds
    no bin, which cannot happen at the default resolution).
    """
    if x.shape[1] < 2:
        raise ValidationError("band_psd needs at least 2 samples")
    if not (rate_hz > 0):
        raise ValidationError("rate_hz must be > 0")
    n = x.shape[1]
    n_pad = rate_hz / config.psd_pad_resolution_hz  # a float until checked: it may be inf
    try:  # the frequency grid and the spectra grow with n_pad
        if not (n_pad <= 2.0**60):  # past NumPy's array size limit, which raises ValueError instead
            raise MemoryError
        n_pad = max(n, math.ceil(n_pad))
        freqs = np.arange(n_pad // 2 + 1) * (rate_hz / n_pad)
        scale = rate_hz if config.psd_mode == "normalized" else 1.0
        bands = []  # [a, b) bin range each band averages; a single bin is a range of one
        for target in PSD_SINGLE_BINS_HZ:
            k = int(np.argmin(np.abs(freqs - target * scale)))
            bands.append((k, k + 1))
        for lo, hi in PSD_BAND_RANGES_HZ:
            inside = np.flatnonzero((freqs >= lo * scale) & (freqs <= hi * scale))
            if len(inside):
                bands.append((int(inside[0]), int(inside[-1]) + 1))
            else:
                k = int(np.argmin(np.abs(freqs - 0.5 * (lo + hi) * scale)))
                bands.append((k, k + 1))

        const = np.all(x == x[:, :1], axis=1)
        center = x[:, 0].copy()  # constant -> exactly zero signal
        center[~const] = np.mean(x[~const], axis=1)
        k0, k1 = min(a for a, _ in bands), max(b for _, b in bands)
        out = np.empty((len(x), len(bands)))
        for r in range(0, len(x), _CHUNK_WINDOWS):  # copying bins k0:k1 frees each batch's full spectra at once
            rows = slice(r, r + _CHUNK_WINDOWS)
            spec = np.fft.rfft(x[rows] - center[rows, None], n=n_pad, axis=1)[:, k0:k1].copy()
            power = (spec.real**2 + spec.imag**2) / n
            # Column slices: a column mask gives a column-major copy, whose rows NumPy sums in another order.
            out[rows] = np.column_stack([np.mean(power[:, a - k0 : b - k0], axis=1) for a, b in bands])
    except MemoryError:
        raise ValidationError(
            f"psd_pad_resolution_hz {config.psd_pad_resolution_hz:g} needs {n_pad}-point periodograms, "
            "too large to allocate"
        ) from None
    return out


def fixation_zone_stats(xs, ys, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Mean and sample std of per-zone coordinate stds; columns x avg, x std, y avg, y std.

    The zone_bounds box is split into zone_grid**2 equal cells; samples
    outside the box clamp to the nearest cell. Only cells holding >= 2
    samples contribute a std. No qualifying cell -> (0, 0); one -> (std, 0).
    """
    if xs.shape[1] == 0 or xs.shape != ys.shape:
        raise ValidationError("fixation_zone_stats needs equal-length non-empty coordinate lists")
    g = config.zone_grid
    xmin, xmax, ymin, ymax = config.zone_bounds
    # Clamped in float before the cast, so a coordinate past int64's range still lands in its edge cell.
    # A tiny box width or a huge coordinate can overflow to +-inf, which the clamp also sends to the edge cell.
    with np.errstate(over="ignore"):
        ix = np.clip(np.floor((xs - xmin) / (xmax - xmin) * g), 0, g - 1).astype(int)
        iy = np.clip(np.floor((ys - ymin) / (ymax - ymin) * g), 0, g - 1).astype(int)
    # A stable sort of each window by cell keeps every cell's samples in time order.
    cell = ix * g + iy
    order = np.argsort(cell, axis=1, kind="stable")
    cell = np.take_along_axis(cell, order, axis=1)
    first = np.ones(cell.shape, dtype=bool)  # first sample of a (window, cell) zone
    first[:, 1:] = cell[:, 1:] != cell[:, :-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.r_[starts, cell.size])
    starts, counts = starts[counts >= 2], counts[counts >= 2]
    segments = list(_segments(starts, counts))
    out = np.empty((len(xs), 4))
    for col, coords in ((0, xs), (2, ys)):
        coords = np.take_along_axis(coords, order, axis=1).ravel()
        stds = np.empty(len(starts))
        for sel, idx in segments:
            stds[sel] = _moments(coords[idx])[:, 1]
        out[:, col : col + 2] = _item_moments(stds, starts // cell.shape[1], len(xs))
    return out


def scan_path_stats(xs, ys, ts, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Columns mean and sample std of scan-path lengths inside each window; *ts* in ms.

    A step is scanning when its velocity (Euclidean step distance over step
    duration) exceeds velocity_threshold; a scan path is a maximal run of
    scanning steps and its length is the sum of its step distances.
    """
    if xs.shape[1] < 2:
        raise ValidationError("scan_path_stats needs at least 2 samples")
    dist = np.hypot(np.diff(xs, axis=1), np.diff(ys, axis=1))
    dt_s = np.diff(ts, axis=1) / 1000.0
    rows, starts, stops = _runs(dist / dt_s > config.velocity_threshold)
    flat = dist.ravel()
    lengths = np.empty(len(rows))
    for sel, idx in _segments(rows * dist.shape[1] + starts, stops - starts):
        lengths[sel] = np.sum(flat[idx], axis=1)
    return _item_moments(lengths, rows, len(xs))


def approach_stats(d, ts, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Columns fraction of approaching steps and mean approach-episode duration in ms.

    A step approaches when the eye-to-screen distance *d* (mm) drops by more than
    approach_delta_mm. An episode of steps i..j spans ts[j+1] - ts[i] (ms). No episodes -> (0, 0).
    """
    if d.shape[1] < 2:
        raise ValidationError("approach_stats needs at least 2 samples")
    approaching = -np.diff(d, axis=1) > config.approach_delta_mm
    rows, starts, stops = _runs(approaching)
    out = np.empty((len(d), 2))
    out[:, 0] = np.mean(approaching, axis=1)
    out[:, 1] = _item_moments(ts[rows, stops] - ts[rows, starts], rows, len(d))[:, 0]
    return out


def eye_closure_stats(flags) -> np.ndarray:
    """Columns mean, sample std, and skewness of eye-closure episode frame counts.

    An episode is a maximal run of closed frames. No episodes -> (0, 0, 0);
    a single episode -> (length, 0, 0).
    """
    if flags.shape[1] == 0:
        raise ValidationError("eye_closure_stats needs a non-empty flag list")
    rows, starts, stops = _runs(flags)
    lengths = (stops - starts).astype(np.float64)
    return _item_moments(lengths, rows, len(flags), skew=True)


# --- the 31-feature vector ------------------------------------------------------

# descriptive_stats column order -> canonical block order (mean, iqr_q1q2, iqr_q2q3, std, skewness).
_BLOCK_COLUMNS = [0, 3, 4, 1, 2]


def extract_matrix(windows: Windows, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """The (len(windows), 31) feature matrix, one row per window in time order.

    Every window is checked first, so the earliest one with fewer than 2
    samples or a non-finite sample is the one reported. Each group of windows
    with one sample count then makes one call per feature family on its (W, n)
    arrays; only band_psd batches the rows, to bound its spectra.
    """
    seq, lo, hi = windows.seq, windows.lo, windows.hi
    n_samples = hi - lo
    bad_sample = ~(np.isfinite(seq.gaze_x) & np.isfinite(seq.gaze_y) & np.isfinite(seq.screen_distance_mm))
    nonfinite = np.concatenate(([0], np.cumsum(bad_sample)))  # non-finite samples before each index
    bad = (n_samples < 2) | (nonfinite[hi] != nonfinite[lo])
    if np.any(bad):
        i = int(np.argmax(bad))
        start = windows.spans[i, 0]
        if n_samples[i] < 2:
            raise ValidationError(f"window at {start:.1f} ms has {n_samples[i]} sample(s); need >= 2")
        raise ValidationError(f"window at {start:.1f} ms contains non-finite samples")

    rate_hz = seq.nominal_rate_hz
    out = np.empty((len(lo), N_FEATURES))
    for n in np.unique(n_samples):
        rows = np.flatnonzero(n_samples == n)
        take = lo[rows, None] + np.arange(n)  # (W, n) sample indices of the group's windows
        xs, ys, ts = seq.gaze_x[take], seq.gaze_y[take], seq.timestamp_ms[take]
        group = np.empty((len(rows), N_FEATURES))
        group[:, 0:2] = approach_stats(seq.screen_distance_mm[take], ts, config)
        group[:, 2:4] = scan_path_stats(xs, ys, ts, config)
        for base, coords in ((4, xs), (16, ys)):
            group[:, base : base + 5] = descriptive_stats(coords)[:, _BLOCK_COLUMNS]
            group[:, base + 5 : base + 10] = band_psd(coords, rate_hz, config)
        group[:, [14, 15, 26, 27]] = fixation_zone_stats(xs, ys, config)
        group[:, 28:31] = eye_closure_stats(seq.eye_closed[take])
        out[rows] = group
    if not np.all(np.isfinite(out)):
        raise ValidationError("feature vector contains non-finite values")
    return out
