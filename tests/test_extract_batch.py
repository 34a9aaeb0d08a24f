"""Batched extraction: extract_matrix against batches of one, a per-window reference and the loop oracles."""

import dataclasses
import math

import numpy as np
import pytest

from gazecast import features
from gazecast.errors import ValidationError
from gazecast.features import FEATURE_NAMES, FeatureConfig, extract_matrix
from gazecast.ingest import GazeSequence
from gazecast.windowing import segment

from helpers import make_sequence
from oracles import (
    dft_band_psd,
    loop_approach,
    loop_closure,
    loop_runs,
    loop_scan_paths,
    loop_zone_stats,
    reference_stats,
)

RATE_HZ = 30.0
CHUNK = features._CHUNK_WINDOWS


def recording(duration_s: float, seed: int, jitter_ms: float = 0.0) -> GazeSequence:
    """Fixations with saccades, a drifting screen distance and random blinks."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * RATE_HZ)
    ts = np.arange(n) * (1000.0 / RATE_HZ) + rng.uniform(-jitter_ms, jitter_ms, size=n)
    fixation = np.cumsum(rng.random(n) < 0.08)
    centres = rng.uniform(-0.9, 0.9, size=(fixation[-1] + 1, 2))
    xs = centres[fixation, 0] + rng.normal(0.0, 0.01, size=n)
    ys = centres[fixation, 1] + rng.normal(0.0, 0.01, size=n)
    dist = 600.0 + np.cumsum(rng.normal(0.0, 0.5, size=n))
    closed = np.repeat(rng.random(n // 3) < 0.1, 3)
    closed = np.concatenate([closed, np.zeros(n - len(closed), dtype=bool)])
    return GazeSequence(np.arange(n), ts, xs, ys, dist, closed, source_id=f"rec{seed}")


# --- per-window reference ------------------------------------------------------
# One 1-d NumPy call per statistic and per window, and Python floats for the
# skewness power. Batched extraction must match it bit for bit: the oracles
# check the values within a tolerance, this checks the rounding.


def _std0(x) -> float:
    x = np.asarray(x)
    return 0.0 if np.all(x == x[0]) else float(np.std(x, ddof=1))


def _skew(x) -> float:
    x = np.asarray(x)
    if np.all(x == x[0]):
        return 0.0
    x = np.ldexp(x, -math.frexp(float(np.max(np.abs(x))))[1])
    d = x - float(np.mean(x))
    d = d - float(np.mean(d))
    m2 = float(np.mean(d * d))
    return 0.0 if m2 == 0.0 else float(np.mean(d * d * d)) / m2**1.5


def _mean_std0(values) -> list[float]:
    if len(values) < 2:
        return [values[0] if values else 0.0, 0.0]
    return [float(np.mean(values)), _std0(values)]


def window_samples(windows, i: int):
    """(xs, ys, timestamps_ms, distances_mm, closed) of window *i*, as views."""
    seq, take = windows.seq, slice(windows.lo[i], windows.hi[i])
    return (seq.gaze_x[take], seq.gaze_y[take], seq.timestamp_ms[take],
            seq.screen_distance_mm[take], seq.eye_closed[take])


def one_window(windows, i: int):
    """Window *i* of *windows* as a record of its own: a batch of one."""
    return dataclasses.replace(windows, spans=windows.spans[i : i + 1], lo=windows.lo[i : i + 1],
                               hi=windows.hi[i : i + 1])


def reference_row(windows, i: int, config: FeatureConfig) -> list[float]:
    xs, ys, ts, dist_mm, closed = window_samples(windows, i)
    rate = windows.seq.nominal_rate_hz
    approaching = -np.diff(dist_mm) > config.approach_delta_mm
    durations = [float(ts[b] - ts[a]) for a, b in loop_runs(approaching)]
    row = [float(np.mean(approaching)), float(np.mean(durations)) if durations else 0.0]
    step = np.hypot(np.diff(xs), np.diff(ys))
    scanning = step / (np.diff(ts) / 1000.0) > config.velocity_threshold
    row += _mean_std0([float(np.sum(step[a:b])) for a, b in loop_runs(scanning)])
    g = config.zone_grid
    xmin, xmax, ymin, ymax = config.zone_bounds
    cell = (np.clip(np.floor((xs - xmin) / (xmax - xmin) * g).astype(int), 0, g - 1) * g
            + np.clip(np.floor((ys - ymin) / (ymax - ymin) * g).astype(int), 0, g - 1))
    scale = rate if config.psd_mode == "normalized" else 1.0
    for coords in (xs, ys):
        const = bool(np.all(coords == coords[0]))
        if const:
            row += [float(coords[0]), 0.0, 0.0, 0.0, 0.0]
        else:
            q1, q2, q3 = np.percentile(coords, [25.0, 50.0, 75.0])
            row += [float(np.mean(coords)), q2 - q1, q3 - q2, float(np.std(coords, ddof=1)), _skew(coords)]
        n_pad = max(len(coords), int(math.ceil(rate / config.psd_pad_resolution_hz)))
        spec = np.fft.rfft(coords - (coords[0] if const else np.mean(coords)), n=n_pad)
        power = (spec.real**2 + spec.imag**2) / len(coords)
        freqs = np.arange(len(power)) * (rate / n_pad)
        row += [power[int(np.argmin(np.abs(freqs - f * scale)))] for f in (0.011, 0.022)]
        for lo, hi in ((0.033, 0.044), (0.055, 0.066), (0.077, 0.133)):
            row.append(float(np.mean(power[(freqs >= lo * scale) & (freqs <= hi * scale)])))
        row += _mean_std0([_std0(coords[cell == c]) for c in np.unique(cell) if np.sum(cell == c) >= 2])
    lengths = [float(b - a) for a, b in loop_runs(closed)]
    row += _mean_std0(lengths) + [_skew(lengths) if len(lengths) > 1 else 0.0]
    return row


class TestBatchEqualsPerWindow:
    # Normalized PSD bands span ~150 bins, so their means are pairwise sums.
    @pytest.mark.parametrize(
        "config", [FeatureConfig(), FeatureConfig(psd_mode="normalized", zone_grid=5)], ids=["default", "normalized"]
    )
    def test_jittered_multi_chunk_recording_plus_second_sequence(self, config):
        long_windows = segment(recording(1500.0, seed=1, jitter_ms=4.0))
        _, sizes = np.unique(long_windows.hi - long_windows.lo, return_counts=True)
        assert len(sizes) >= 2  # windows differ in length
        assert max(sizes) > 2 * CHUNK  # one length group spans more than two band_psd row batches

        for windows in (long_windows, segment(recording(40.0, seed=2))):
            got = extract_matrix(windows, config)
            assert got.shape == (len(windows), len(FEATURE_NAMES))
            assert np.array_equal(got, np.vstack([extract_matrix(one_window(windows, i), config)
                                                  for i in range(len(windows))]))
            assert np.array_equal(got, np.array([reference_row(windows, i, config) for i in range(len(windows))]))

    def test_empty_window_list(self):
        windows = segment(recording(2.0, seed=5))  # shorter than a window
        assert len(windows) == 0
        got = extract_matrix(windows)
        assert got.shape == (0, len(FEATURE_NAMES)) and got.dtype == np.float64

    def test_no_windows_stack_beside_their_spans(self):
        windows = segment(make_sequence(n=40, rate_hz=30.0))  # 1.3 s: shorter than a window
        assert len(windows) == 0
        assert np.hstack([windows.spans, extract_matrix(windows)]).shape == (0, 2 + len(FEATURE_NAMES))


class TestBatchMatchesOracles:
    def test_multi_chunk_recording(self):
        seq = recording(2.0 * (2 * CHUNK + 20), seed=3)
        windows = segment(seq)
        assert len(windows) > 2 * CHUNK
        matrix = extract_matrix(windows)
        rate = seq.nominal_rate_hz
        bounds = (-1.0, 1.0, -1.0, 1.0)
        for i, (start, row) in enumerate(zip(windows.spans[:, 0], matrix)):
            got = dict(zip(FEATURE_NAMES, row))
            xs, ys, ts, dist_mm, closed = window_samples(windows, i)
            loops = {}
            loops["approach_ratio"], loops["approach_time_avg_ms"] = loop_approach(dist_mm, ts, 0.0)
            loops["scan_path_len_avg"], loops["scan_path_len_std"] = _mean_std0(loop_scan_paths(xs, ys, ts, 0.5))
            for axis, coords in (("x", xs), ("y", ys)):
                mean, std, skew, iqr12, iqr23 = reference_stats(coords)
                stats = {"mean": mean, "std": std, "skewness": skew, "iqr_q1q2": iqr12, "iqr_q2q3": iqr23}
                for name, value in stats.items():
                    assert got[f"{axis}_{name}"] == pytest.approx(value, rel=1e-12, abs=1e-12), (start, name)
                psd = [got[f"{axis}_psd_b{b}"] for b in range(1, 6)]
                np.testing.assert_allclose(psd, dft_band_psd(coords, rate), rtol=1e-9)
                loops[f"{axis}_fixzone_std_avg"], loops[f"{axis}_fixzone_std_std"] = loop_zone_stats(
                    xs, ys, axis, 3, bounds
                )
            (loops["eye_close_count_avg"], loops["eye_close_count_std"],
             loops["eye_close_count_skew"]) = loop_closure(closed)
            for name, value in loops.items():
                assert got[name] == pytest.approx(value, rel=1e-9, abs=1e-9), (start, name)


class TestErrorOrder:
    def _nan_windows(self):
        seq = recording(2.0 * (2 * CHUNK + 20), seed=4)
        xs = seq.gaze_x.copy()
        # One non-finite sample in the first band_psd row batch, one in the third.
        for k in (40, 2 * CHUNK + 5):
            xs[int((k * 2000.0 + 2500.0) / (1000.0 / RATE_HZ))] = np.nan
        seq = GazeSequence(seq.frame_index, seq.timestamp_ms, xs, seq.gaze_y,
                           seq.screen_distance_mm, seq.eye_closed)
        return segment(seq)

    def test_earliest_non_finite_window_is_named(self):
        windows = self._nan_windows()
        with pytest.raises(ValidationError, match="window at 80000.0 ms contains non-finite"):
            extract_matrix(windows)

    @staticmethod
    def _shortened(windows, i: int):
        hi = windows.hi.copy()
        hi[i] = windows.lo[i] + 1
        return dataclasses.replace(windows, hi=hi)

    def test_short_window_before_nan_window_is_reported_first(self):
        with pytest.raises(ValidationError, match="window at 2000.0 ms has 1 sample"):
            extract_matrix(self._shortened(self._nan_windows(), 1))

    def test_nan_window_before_short_window_is_reported_first(self):
        windows = self._nan_windows()
        with pytest.raises(ValidationError, match="window at 80000.0 ms contains non-finite"):
            extract_matrix(self._shortened(windows, len(windows) - 1))

    def test_non_finite_features_from_finite_input(self):
        xs = np.tile([1e308, -1e308], 45)
        n = len(xs)
        seq = GazeSequence(np.arange(n), np.arange(n) * 1000.0 / RATE_HZ, xs, np.zeros(n),
                           np.full(n, 600.0), np.zeros(n, dtype=bool))
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite values"):
            extract_matrix(segment(seq))
