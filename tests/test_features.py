import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazecast.errors import ValidationError
from gazecast.features import (
    FEATURE_NAMES,
    FeatureConfig,
    FeatureVector,
    approach_stats,
    band_psd,
    descriptive_stats,
    extract,
    eye_closure_stats,
    feature_names,
    fixation_zone_stats,
    scan_path_stats,
)
from gazecast.ingest import synthesize_sequence
from gazecast.windowing import segment

from helpers import make_sequence
from oracles import dft_band_psd, reference_stats

FIXTURES = Path(__file__).parent / "fixtures"

finite_series = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=120,
)


class TestFeatureNames:
    def test_canonical_anchors(self):
        names = feature_names()
        assert len(names) == 31
        assert names[0] == "approach_ratio"
        assert names[4] == "x_mean"
        assert names[16] == "y_mean"
        assert names[30] == "eye_close_count_skew"

    def test_grouping(self):
        names = feature_names()
        assert sum(n.startswith("approach") for n in names) == 2
        assert sum(n.startswith("scan_path") for n in names) == 2
        assert sum(n.startswith(("x_", "y_")) for n in names) == 24
        assert sum(n.startswith("eye_close") for n in names) == 3

    def test_stable_copy(self):
        names = feature_names()
        names[0] = "mutated"
        assert feature_names()[0] == "approach_ratio"


# Inputs that once broke the skewness moments: m2**1.5 underflowing to 0,
# m2 itself underflowing, the smallest subnormal, a scale factor that
# overflows as 2.0**-e, and a constant series whose np.std is not 0.
_skew_pins = (
    [0.0, 9.910314376187909e-143],
    [0.0, 0.0, 1.2391829447857692e-263],
    [0.0, 5e-324],
    [0.0, 2.225073858507203e-309],
    [699051.2995010156] * 3,
)


def pin_skew_examples(test):
    for series in _skew_pins:
        test = example(series)(test)
    return test


class TestDescriptiveStats:
    def test_one_to_eight(self):
        s = descriptive_stats(list(range(1, 9)))
        assert s.mean == pytest.approx(4.5)
        assert s.std == pytest.approx(2.449489742783178, abs=1e-12)
        assert s.skewness == pytest.approx(0.0, abs=1e-12)
        assert s.iqr_q1q2 == pytest.approx(1.75, abs=1e-12)
        assert s.iqr_q2q3 == pytest.approx(1.75, abs=1e-12)

    def test_constant_series(self):
        assert descriptive_stats([5.0, 5.0, 5.0, 5.0]) == (5.0, 0.0, 0.0, 0.0, 0.0)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.gamma(2.0, size=50)  # skewed on purpose
        a = descriptive_stats(x)
        b = descriptive_stats(-x)
        assert b.mean == pytest.approx(-a.mean, rel=1e-12)
        assert b.skewness == pytest.approx(-a.skewness, rel=1e-12)
        assert b.std == pytest.approx(a.std, rel=1e-12)
        assert b.iqr_q1q2 == pytest.approx(a.iqr_q2q3, rel=1e-12)
        assert b.iqr_q2q3 == pytest.approx(a.iqr_q1q2, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            descriptive_stats([1.0])

    @given(finite_series)
    @pin_skew_examples
    def test_matches_reference_oracle(self, series):
        got = descriptive_stats(series)
        exp = reference_stats(series)
        for g, e in zip(got, exp):
            assert g == pytest.approx(e, rel=1e-12, abs=1e-12)

    @given(finite_series)
    @pin_skew_examples
    def test_symmetric_series_has_zero_skew(self, series):
        x = np.asarray(series)
        sym = np.concatenate([x, -x])  # exactly symmetric about 0
        assert abs(descriptive_stats(sym).skewness) <= 1e-12


class TestBandPsd:
    def test_zero_series(self):
        assert np.all(band_psd(np.zeros(90), 30.0) == 0.0)
        assert np.all(band_psd(np.full(90, 3.3), 30.0) == 0.0)  # mean-removed

    def test_sinusoid_in_top_band_with_long_context(self):
        t = np.arange(2700) / 30.0  # 90 s at 30 fps
        x = np.sin(2 * np.pi * 0.1 * t)
        bands = band_psd(x, 30.0)
        assert int(np.argmax(bands)) == 4
        assert all(bands[4] > bands[b] for b in range(4))
        oracle = dft_band_psd(x, 30.0)
        assert int(np.argmax(oracle)) == 4

    @pytest.mark.parametrize("mode", ["hz", "normalized"])
    def test_seeded_noise_matches_brute_force_oracle(self, mode):
        rng = np.random.default_rng(8)
        x = rng.normal(size=90)
        config = FeatureConfig(psd_mode=mode)
        got = band_psd(x, 30.0, config)
        exp = dft_band_psd(x, 30.0, mode=mode)
        np.testing.assert_allclose(got, exp, rtol=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_bands_non_negative(self, seed):
        x = np.random.default_rng(seed).normal(size=60)
        assert np.all(band_psd(x, 25.0) >= 0.0)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            band_psd([1.0], 30.0)


class TestFixationZones:
    def test_single_cell_hand_value(self):
        xs = [0.1, 0.2, 0.3]
        ys = [0.1, 0.1, 0.1]
        avg_std, std_std = fixation_zone_stats(xs, ys, "x")
        assert avg_std == pytest.approx(0.1, abs=1e-12)
        assert std_std == 0.0

    def test_all_cells_sparse(self):
        xs = [-0.9, 0.0, 0.9]
        ys = [-0.9, 0.0, 0.9]
        assert fixation_zone_stats(xs, ys, "x") == (0.0, 0.0)

    def test_congruent_cells_have_zero_spread(self):
        base = np.array([0.0625, 0.125, 0.1875])
        xs = np.concatenate([base, base + 0.5])
        ys = np.full(6, -0.5)
        avg_std, std_std = fixation_zone_stats(xs, ys, "x")
        assert std_std == 0.0
        assert avg_std == pytest.approx(np.std(base, ddof=1), abs=1e-15)

    def test_outside_samples_clamp(self):
        xs = [-5.0, -4.0, 5.0, 6.0]
        ys = [0.0, 0.0, 0.0, 0.0]
        avg_std, std_std = fixation_zone_stats(xs, ys, "x")
        # two corner cells, each with 2 samples of x-std 1/sqrt(2)
        assert avg_std == pytest.approx(np.std([-5.0, -4.0], ddof=1), rel=1e-12)
        assert std_std == pytest.approx(0.0, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            fixation_zone_stats([], [], "x")


class TestScanPaths:
    def test_straight_line_single_path(self):
        n, rate = 31, 10.0
        xs = np.arange(n) * 0.2  # 2 units/s >> threshold
        ys = np.zeros(n)
        ts = np.arange(n) * 1000.0 / rate
        avg, std = scan_path_stats(xs, ys, ts)
        assert avg == pytest.approx(0.2 * (n - 1), rel=1e-12)
        assert std == 0.0

    def test_stationary(self):
        ts = np.arange(20) * 100.0
        assert scan_path_stats(np.zeros(20), np.zeros(20), ts) == (0.0, 0.0)

    def test_two_equal_paths(self):
        # 10 Hz sampling: step > 0.05 units is scanning at the 0.5 u/s default
        xs = np.array([0.0, 0.15, 0.30, 0.301, 0.302, 0.303, 0.453, 0.603, 0.604, 0.605])
        ys = np.zeros(10)
        ts = np.arange(10) * 100.0
        avg, std = scan_path_stats(xs, ys, ts)
        assert avg == pytest.approx(0.3, rel=1e-9)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            scan_path_stats([0.0], [0.0], [0.0])


class TestApproach:
    def test_strictly_decreasing_full_window(self):
        n, rate = 90, 30.0
        ts = np.arange(n) * 1000.0 / rate
        dist = 600.0 - np.arange(n)
        ratio, avg_ms = approach_stats(dist, ts)
        assert ratio == 1.0
        assert avg_ms == pytest.approx(ts[-1] - ts[0], rel=1e-12)  # 3000 ms minus one frame

    def test_strictly_increasing(self):
        ts = np.arange(90) * (1000.0 / 30.0)
        assert approach_stats(600.0 + np.arange(90), ts) == (0.0, 0.0)

    def test_half_ramp(self):
        n = 91  # 90 steps
        ts = np.arange(n) * (1000.0 / 30.0)
        down = 600.0 - np.arange(46)
        up = down[-1] + np.arange(1, 46)
        dist = np.concatenate([down, up])
        ratio, avg_ms = approach_stats(dist, ts)
        assert ratio == pytest.approx(0.5)
        assert avg_ms == pytest.approx(ts[45] - ts[0], rel=1e-12)  # one episode

    def test_delta_hysteresis(self):
        ts = np.arange(4) * 100.0
        dist = np.array([600.0, 599.8, 599.6, 599.4])  # drops of 0.2 mm
        assert approach_stats(dist, ts, FeatureConfig(approach_delta_mm=0.5))[0] == 0.0
        assert approach_stats(dist, ts, FeatureConfig(approach_delta_mm=0.1))[0] == 1.0


class TestEyeClosure:
    def test_two_episodes_hand_value(self):
        flags = [0, 1, 1, 0, 1, 1, 1, 0]
        avg, std, skew = eye_closure_stats(np.array(flags, dtype=bool))
        assert avg == pytest.approx(2.5)
        assert std == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert skew == pytest.approx(0.0, abs=1e-12)

    def test_all_open(self):
        assert eye_closure_stats(np.zeros(10, dtype=bool)) == (0.0, 0.0, 0.0)

    def test_single_episode(self):
        flags = np.zeros(10, dtype=bool)
        flags[3:7] = True
        assert eye_closure_stats(flags) == (4.0, 0.0, 0.0)

    def test_empty(self):
        with pytest.raises(ValidationError):
            eye_closure_stats([])


class TestExtract:
    def test_constant_window(self):
        seq = make_sequence(n=90, xs=np.full(90, 0.3), ys=np.full(90, -0.2))
        (window,) = segment(seq)
        fv = extract(window)
        d = fv.as_dict()
        assert d["x_mean"] == pytest.approx(0.3)
        assert d["y_mean"] == pytest.approx(-0.2)
        for name, value in d.items():
            if name not in ("x_mean", "y_mean"):
                assert value == 0.0, name

    def test_golden_window_matches_oracle_fixture(self):
        from fixtures.gen_golden_window import GOLDEN_SEED, GOLDEN_SPEC

        expected = json.loads((FIXTURES / "golden_window.json").read_text())["values"]
        seq = synthesize_sequence(GOLDEN_SPEC, GOLDEN_SEED)
        (window,) = segment(seq)
        fv = extract(window)
        for name, got in fv.as_dict().items():
            assert got == pytest.approx(expected[name], rel=1e-9, abs=1e-9), name

    def test_length_and_name_alignment(self):
        seq = make_sequence(n=90)
        fv = extract(segment(seq)[0])
        assert len(fv.values) == 31
        assert list(fv.as_dict()) == feature_names()

    def test_window_too_small(self):
        seq = make_sequence(n=90)
        w = segment(seq)[0]
        tiny = type(w)(seq=w.seq, start_ms=w.start_ms, end_ms=w.end_ms, lo=0, hi=1)
        with pytest.raises(ValidationError):
            extract(tiny)

    def test_nan_window_refused(self):
        xs = np.zeros(90)
        xs[10] = np.nan
        seq = make_sequence(n=90, xs=xs)
        with pytest.raises(ValidationError, match="non-finite"):
            extract(segment(seq)[0])

    def test_feature_vector_invariants(self):
        with pytest.raises(ValidationError):
            FeatureVector(np.zeros(30))
        bad = np.zeros(31)
        bad[5] = np.inf
        with pytest.raises(ValidationError):
            FeatureVector(bad)


def _noisy_window(seed=11, n=90, rate=30.0):
    rng = np.random.default_rng(seed)
    xs = 0.2 * np.cumsum(rng.normal(size=n)) / np.sqrt(n)
    ys = 0.2 * np.cumsum(rng.normal(size=n)) / np.sqrt(n)
    dist = 600.0 + np.cumsum(rng.normal(size=n))
    closed = rng.random(n) < 0.08
    seq = make_sequence(n=n, rate_hz=rate, xs=xs, ys=ys, dist=dist, closed=closed)
    return segment(seq)[0]


class TestInvariances:
    def test_time_shift_changes_nothing(self):
        w = _noisy_window()
        base = extract(w).values
        seq = w.seq
        shifted_seq = make_sequence(
            n=len(seq), rate_hz=30.0, xs=seq.gaze_x, ys=seq.gaze_y,
            dist=seq.screen_distance_mm, closed=seq.eye_closed,
        )
        shifted_seq = type(seq)(
            frame_index=seq.frame_index,
            timestamp_ms=seq.timestamp_ms + 98765.0,
            gaze_x=seq.gaze_x,
            gaze_y=seq.gaze_y,
            screen_distance_mm=seq.screen_distance_mm,
            eye_closed=seq.eye_closed,
        )
        shifted = extract(segment(shifted_seq)[0]).values
        np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-12)

    def test_translation_equivariance_x(self):
        w = _noisy_window(seed=21)
        base = extract(w).as_dict()
        seq = w.seq
        c = 0.123
        moved_seq = type(seq)(
            frame_index=seq.frame_index,
            timestamp_ms=seq.timestamp_ms,
            gaze_x=seq.gaze_x + c,
            gaze_y=seq.gaze_y,
            screen_distance_mm=seq.screen_distance_mm,
            eye_closed=seq.eye_closed,
        )
        moved = extract(segment(moved_seq)[0]).as_dict()
        assert moved["x_mean"] == pytest.approx(base["x_mean"] + c, rel=1e-12)
        for name in ("x_std", "x_skewness", "x_iqr_q1q2", "x_iqr_q2q3",
                     "x_psd_b1", "x_psd_b2", "x_psd_b3", "x_psd_b4", "x_psd_b5"):
            assert moved[name] == pytest.approx(base[name], rel=1e-9, abs=1e-12), name

    def test_scale_equivariance(self):
        w = _noisy_window(seed=33)
        seq = w.seq
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
        base = extract(w, config).as_dict()
        scaled = extract(segment(scaled_seq)[0], scaled_config).as_dict()
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
        fv = extract(_noisy_window(seed=seed))
        assert np.all(np.isfinite(fv.values))
