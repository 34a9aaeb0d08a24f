import dataclasses
import json
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazecast.errors import ValidationError
from gazecast.features import (
    FEATURE_NAMES,
    FeatureConfig,
    approach_stats,
    band_psd,
    descriptive_stats,
    extract_matrix,
    eye_closure_stats,
    fixation_zone_stats,
    scan_path_stats,
)
from gazecast.ingest import synthesize_sequence
from gazecast.windowing import segment

from helpers import make_sequence
from oracles import dft_band_psd, loop_zone_stats, reference_stats

FIXTURES = Path(__file__).parent / "fixtures"

finite_series = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=120,
)


Stats = namedtuple("Stats", "mean std skewness iqr_q1q2 iqr_q2q3")  # descriptive_stats' columns


def one(family, *series, dtype=np.float64, **kwargs) -> np.ndarray:
    """*family* called on a batch of one window (each series as a (1, n) array): its row 0."""
    return family(*(np.asarray(s, dtype=dtype)[None] for s in series), **kwargs)[0]


def first_window(seq, config: FeatureConfig = FeatureConfig()) -> dict[str, float]:
    """The features of *seq*'s first window, by name."""
    return dict(zip(FEATURE_NAMES, extract_matrix(segment(seq), config)[0].tolist()))


class TestFeatureNames:
    def test_canonical_anchors(self):
        names = FEATURE_NAMES
        assert len(names) == 31
        assert names[0] == "approach_ratio"
        assert names[4] == "x_mean"
        assert names[16] == "y_mean"
        assert names[30] == "eye_close_count_skew"

    def test_grouping(self):
        names = FEATURE_NAMES
        assert sum(n.startswith("approach") for n in names) == 2
        assert sum(n.startswith("scan_path") for n in names) == 2
        assert sum(n.startswith(("x_", "y_")) for n in names) == 24
        assert sum(n.startswith("eye_close") for n in names) == 3

    def test_stable_copy(self):
        with pytest.raises(TypeError):
            FEATURE_NAMES[0] = "mutated"
        assert FEATURE_NAMES[0] == "approach_ratio"


# Inputs that once broke the skewness moments: m2**1.5 underflowing to 0,
# m2 itself underflowing, the smallest subnormal, a scale factor that
# overflows as 2.0**-e, and a constant series whose np.std is not 0.
_skew_pins = (
    [0.0, 9.910314376187909e-143],
    [0.0, 0.0, 1.2391829447857692e-263],
    [0.0, 5e-324],
    [0.0, 2.225073858507203e-309],
    [699051.2995010156] * 3,
    [-655741.3607610182, -655547.0, -655493.0],  # small spread against the mean: scipy's float skew is off by 1e-12
)


def pin_skew_examples(test):
    for series in _skew_pins:
        test = example(series)(test)
    return test


class TestDescriptiveStats:
    def test_one_to_eight(self):
        s = Stats(*one(descriptive_stats, list(range(1, 9))))
        assert s.mean == pytest.approx(4.5)
        assert s.std == pytest.approx(2.449489742783178, abs=1e-12)
        assert s.skewness == pytest.approx(0.0, abs=1e-12)
        assert s.iqr_q1q2 == pytest.approx(1.75, abs=1e-12)
        assert s.iqr_q2q3 == pytest.approx(1.75, abs=1e-12)

    def test_constant_series(self):
        assert tuple(one(descriptive_stats, [5.0, 5.0, 5.0, 5.0])) == (5.0, 0.0, 0.0, 0.0, 0.0)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.gamma(2.0, size=50)  # skewed on purpose
        a = Stats(*one(descriptive_stats, x))
        b = Stats(*one(descriptive_stats, -x))
        assert b.mean == pytest.approx(-a.mean, rel=1e-12)
        assert b.skewness == pytest.approx(-a.skewness, rel=1e-12)
        assert b.std == pytest.approx(a.std, rel=1e-12)
        assert b.iqr_q1q2 == pytest.approx(a.iqr_q2q3, rel=1e-12)
        assert b.iqr_q2q3 == pytest.approx(a.iqr_q1q2, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            one(descriptive_stats, [1.0])

    @given(finite_series)
    @pin_skew_examples
    def test_matches_reference_oracle(self, series):
        got = one(descriptive_stats, series)
        exp = reference_stats(series)
        for g, e in zip(got, exp):
            assert g == pytest.approx(e, rel=1e-12, abs=1e-12)

    @given(finite_series)
    @pin_skew_examples
    def test_symmetric_series_has_zero_skew(self, series):
        x = np.asarray(series)
        sym = np.concatenate([x, -x])  # exactly symmetric about 0
        assert abs(Stats(*one(descriptive_stats, sym)).skewness) <= 1e-12


class TestBandPsd:
    def test_zero_series(self):
        assert np.all(one(band_psd, np.zeros(90), rate_hz=30.0) == 0.0)
        assert np.all(one(band_psd, np.full(90, 3.3), rate_hz=30.0) == 0.0)  # mean-removed

    def test_sinusoid_in_top_band_with_long_context(self):
        t = np.arange(2700) / 30.0  # 90 s at 30 fps
        x = np.sin(2 * np.pi * 0.1 * t)
        bands = one(band_psd, x, rate_hz=30.0)
        assert int(np.argmax(bands)) == 4
        assert all(bands[4] > bands[b] for b in range(4))
        oracle = dft_band_psd(x, 30.0)
        assert int(np.argmax(oracle)) == 4

    @pytest.mark.parametrize("mode", ["hz", "normalized"])
    def test_seeded_noise_matches_brute_force_oracle(self, mode):
        rng = np.random.default_rng(8)
        x = rng.normal(size=90)
        config = FeatureConfig(psd_mode=mode)
        got = one(band_psd, x, rate_hz=30.0, config=config)
        exp = dft_band_psd(x, 30.0, mode=mode)
        np.testing.assert_allclose(got, exp, rtol=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_bands_non_negative(self, seed):
        x = np.random.default_rng(seed).normal(size=60)
        assert np.all(one(band_psd, x, rate_hz=25.0) >= 0.0)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            one(band_psd, [1.0], rate_hz=30.0)


class TestFixationZones:
    def test_single_cell_hand_value(self):
        xs = [0.1, 0.2, 0.3]
        ys = [0.1, 0.1, 0.1]
        avg_std, std_std = one(fixation_zone_stats, xs, ys)[:2]
        assert avg_std == pytest.approx(0.1, abs=1e-12)
        assert std_std == 0.0

    def test_all_cells_sparse(self):
        xs = [-0.9, 0.0, 0.9]
        ys = [-0.9, 0.0, 0.9]
        assert tuple(one(fixation_zone_stats, xs, ys)[:2]) == (0.0, 0.0)

    def test_congruent_cells_have_zero_spread(self):
        base = np.array([0.0625, 0.125, 0.1875])
        xs = np.concatenate([base, base + 0.5])
        ys = np.full(6, -0.5)
        avg_std, std_std = one(fixation_zone_stats, xs, ys)[:2]
        assert std_std == 0.0
        assert avg_std == pytest.approx(np.std(base, ddof=1), abs=1e-15)

    def test_outside_samples_clamp(self):
        xs = [-5.0, -4.0, 5.0, 6.0]
        ys = [0.0, 0.0, 0.0, 0.0]
        avg_std, std_std = one(fixation_zone_stats, xs, ys)[:2]
        # two corner cells, each with 2 samples of x-std 1/sqrt(2)
        assert avg_std == pytest.approx(np.std([-5.0, -4.0], ddof=1), rel=1e-12)
        assert std_std == pytest.approx(0.0, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            one(fixation_zone_stats, [], [])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far_axis", ["x", "y"])
    @pytest.mark.parametrize("far", [2.0**63, 1e19, -1e19, 1e100, -1e100])
    def test_coordinates_past_int64_clamp_to_the_edge_cell(self, far, far_axis):
        near, far = [-0.9, -0.8, 0.1, 0.2], [far, 2.0 * far, 3.0 * far, 0.0]
        xs, ys = (far, near) if far_axis == "x" else (near, far)
        got = one(fixation_zone_stats, xs, ys)
        for axis, columns in (("x", got[:2]), ("y", got[2:])):
            expected = loop_zone_stats(xs, ys, axis, 3, (-1.0, 1.0, -1.0, 1.0))
            assert tuple(columns) == pytest.approx(expected, rel=1e-12)


class TestScanPaths:
    def test_straight_line_single_path(self):
        n, rate = 31, 10.0
        xs = np.arange(n) * 0.2  # 2 units/s >> threshold
        ys = np.zeros(n)
        ts = np.arange(n) * 1000.0 / rate
        avg, std = one(scan_path_stats, xs, ys, ts)
        assert avg == pytest.approx(0.2 * (n - 1), rel=1e-12)
        assert std == 0.0

    def test_stationary(self):
        ts = np.arange(20) * 100.0
        assert tuple(one(scan_path_stats, np.zeros(20), np.zeros(20), ts)) == (0.0, 0.0)

    def test_two_equal_paths(self):
        # 10 Hz sampling: step > 0.05 units is scanning at the 0.5 u/s default
        xs = np.array([0.0, 0.15, 0.30, 0.301, 0.302, 0.303, 0.453, 0.603, 0.604, 0.605])
        ys = np.zeros(10)
        ts = np.arange(10) * 100.0
        avg, std = one(scan_path_stats, xs, ys, ts)
        assert avg == pytest.approx(0.3, rel=1e-9)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            one(scan_path_stats, [0.0], [0.0], [0.0])


class TestApproach:
    def test_strictly_decreasing_full_window(self):
        n, rate = 90, 30.0
        ts = np.arange(n) * 1000.0 / rate
        dist = 600.0 - np.arange(n)
        ratio, avg_ms = one(approach_stats, dist, ts)
        assert ratio == 1.0
        assert avg_ms == pytest.approx(ts[-1] - ts[0], rel=1e-12)  # 3000 ms minus one frame

    def test_strictly_increasing(self):
        ts = np.arange(90) * (1000.0 / 30.0)
        assert tuple(one(approach_stats, 600.0 + np.arange(90), ts)) == (0.0, 0.0)

    def test_half_ramp(self):
        n = 91  # 90 steps
        ts = np.arange(n) * (1000.0 / 30.0)
        down = 600.0 - np.arange(46)
        up = down[-1] + np.arange(1, 46)
        dist = np.concatenate([down, up])
        ratio, avg_ms = one(approach_stats, dist, ts)
        assert ratio == pytest.approx(0.5)
        assert avg_ms == pytest.approx(ts[45] - ts[0], rel=1e-12)  # one episode

    def test_delta_hysteresis(self):
        ts = np.arange(4) * 100.0
        dist = np.array([600.0, 599.8, 599.6, 599.4])  # drops of 0.2 mm
        assert one(approach_stats, dist, ts, config=FeatureConfig(approach_delta_mm=0.5))[0] == 0.0
        assert one(approach_stats, dist, ts, config=FeatureConfig(approach_delta_mm=0.1))[0] == 1.0


class TestEyeClosure:
    def test_two_episodes_hand_value(self):
        flags = [0, 1, 1, 0, 1, 1, 1, 0]
        avg, std, skew = one(eye_closure_stats, flags, dtype=bool)
        assert avg == pytest.approx(2.5)
        assert std == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert skew == pytest.approx(0.0, abs=1e-12)

    def test_all_open(self):
        assert tuple(one(eye_closure_stats, np.zeros(10, dtype=bool), dtype=bool)) == (0.0, 0.0, 0.0)

    def test_single_episode(self):
        flags = np.zeros(10, dtype=bool)
        flags[3:7] = True
        assert tuple(one(eye_closure_stats, flags, dtype=bool)) == (4.0, 0.0, 0.0)

    def test_empty(self):
        with pytest.raises(ValidationError):
            one(eye_closure_stats, [], dtype=bool)


class TestExtract:
    def test_constant_window(self):
        seq = make_sequence(n=90, xs=np.full(90, 0.3), ys=np.full(90, -0.2))
        assert len(segment(seq)) == 1
        d = first_window(seq)
        assert d["x_mean"] == pytest.approx(0.3)
        assert d["y_mean"] == pytest.approx(-0.2)
        for name, value in d.items():
            if name not in ("x_mean", "y_mean"):
                assert value == 0.0, name

    def test_golden_window_matches_oracle_fixture(self):
        from fixtures.gen_golden_window import GOLDEN_SEED, GOLDEN_SPEC

        expected = json.loads((FIXTURES / "golden_window.json").read_text())["values"]
        seq = synthesize_sequence(GOLDEN_SPEC, GOLDEN_SEED)
        assert len(segment(seq)) == 1
        for name, got in first_window(seq).items():
            assert got == pytest.approx(expected[name], rel=1e-9, abs=1e-9), name

    def test_length_and_name_alignment(self):
        seq = make_sequence(n=270)
        matrix = extract_matrix(segment(seq))
        assert matrix.shape == (4, 31) == (len(segment(seq)), len(FEATURE_NAMES))

    def test_window_too_small(self):
        seq = make_sequence(n=90)
        windows = segment(seq)
        tiny = dataclasses.replace(windows, hi=windows.lo + 1)
        with pytest.raises(ValidationError, match="has 1 sample"):
            extract_matrix(tiny)

    def test_nan_window_refused(self):
        xs = np.zeros(90)
        xs[10] = np.nan
        seq = make_sequence(n=90, xs=xs)
        with pytest.raises(ValidationError, match="non-finite"):
            extract_matrix(segment(seq))


def _noisy_sequence(seed=11, n=90, rate=30.0):
    rng = np.random.default_rng(seed)
    xs = 0.2 * np.cumsum(rng.normal(size=n)) / np.sqrt(n)
    ys = 0.2 * np.cumsum(rng.normal(size=n)) / np.sqrt(n)
    dist = 600.0 + np.cumsum(rng.normal(size=n))
    closed = rng.random(n) < 0.08
    return make_sequence(n=n, rate_hz=rate, xs=xs, ys=ys, dist=dist, closed=closed)


class TestInvariances:
    def test_time_shift_changes_nothing(self):
        seq = _noisy_sequence()
        base = extract_matrix(segment(seq))[0]
        shifted_seq = type(seq)(
            frame_index=seq.frame_index,
            timestamp_ms=seq.timestamp_ms + 98765.0,
            gaze_x=seq.gaze_x,
            gaze_y=seq.gaze_y,
            screen_distance_mm=seq.screen_distance_mm,
            eye_closed=seq.eye_closed,
        )
        shifted = extract_matrix(segment(shifted_seq))[0]
        np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-12)

    def test_translation_equivariance_x(self):
        seq = _noisy_sequence(seed=21)
        base = first_window(seq)
        c = 0.123
        moved_seq = type(seq)(
            frame_index=seq.frame_index,
            timestamp_ms=seq.timestamp_ms,
            gaze_x=seq.gaze_x + c,
            gaze_y=seq.gaze_y,
            screen_distance_mm=seq.screen_distance_mm,
            eye_closed=seq.eye_closed,
        )
        moved = first_window(moved_seq)
        assert moved["x_mean"] == pytest.approx(base["x_mean"] + c, rel=1e-12)
        for name in ("x_std", "x_skewness", "x_iqr_q1q2", "x_iqr_q2q3",
                     "x_psd_b1", "x_psd_b2", "x_psd_b3", "x_psd_b4", "x_psd_b5"):
            assert moved[name] == pytest.approx(base[name], rel=1e-9, abs=1e-12), name

    def test_scale_equivariance(self):
        seq = _noisy_sequence(seed=33)
        s = 2.5
        config = FeatureConfig()
        scaled_config = FeatureConfig(
            velocity_threshold=config.velocity_threshold * s,
            zone_bounds=tuple(b * s for b in config.zone_bounds),
        )
        scaled_seq = type(seq)(
            frame_index=seq.frame_index,
            timestamp_ms=seq.timestamp_ms,
            gaze_x=seq.gaze_x * s,
            gaze_y=seq.gaze_y * s,
            screen_distance_mm=seq.screen_distance_mm,
            eye_closed=seq.eye_closed,
        )
        base = first_window(seq, config)
        scaled = first_window(scaled_seq, scaled_config)
        for name in ("scan_path_len_avg", "scan_path_len_std",
                     "x_std", "x_iqr_q1q2", "x_iqr_q2q3", "y_std", "y_iqr_q1q2", "y_iqr_q2q3",
                     "x_fixzone_std_avg", "x_fixzone_std_std"):
            assert scaled[name] == pytest.approx(base[name] * s, rel=1e-9, abs=1e-12), name
        for name in ("x_skewness", "y_skewness", "approach_ratio", "approach_time_avg_ms",
                     "eye_close_count_avg", "eye_close_count_std", "eye_close_count_skew"):
            assert scaled[name] == pytest.approx(base[name], rel=1e-9, abs=1e-12), name

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=25)
    def test_extract_always_finite(self, seed):
        assert np.all(np.isfinite(extract_matrix(segment(_noisy_sequence(seed=seed)))))
