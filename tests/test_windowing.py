import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast.errors import ValidationError
from gazecast.ingest import AnnotationTrack, GazeSequence
from gazecast.windowing import expected_window_count, segment, targets_for_spans

from helpers import make_sequence
from oracles import loop_window_count


class TestSegment:
    def test_nine_seconds_gives_four_windows(self):
        windows = segment(make_sequence(n=270, rate_hz=30.0))
        assert len(windows) == 4
        assert windows.spans[:, 0].tolist() == [0.0, 2000.0, 4000.0, 6000.0]
        assert np.all(windows.spans[:, 1] - windows.spans[:, 0] == 3000.0)

    def test_shorter_than_window_gives_none(self):
        windows = segment(make_sequence(n=75, rate_hz=30.0))  # 2.5 s
        assert len(windows) == 0 and windows.spans.shape == (0, 2)

    def test_exactly_one_window(self):
        windows = segment(make_sequence(n=90, rate_hz=30.0))  # 3.0 s
        assert len(windows) == 1
        assert (windows.lo[0], windows.hi[0]) == (0, 90)

    def test_window_samples_are_views_in_span(self):
        seq = make_sequence(n=270, rate_hz=30.0)
        windows = segment(seq)
        ts = seq.timestamp_ms
        for (start, end), lo, hi in zip(windows.spans, windows.lo, windows.hi):
            assert np.all(ts[lo:hi] >= start) and np.all(ts[lo:hi] < end)
            assert (lo == 0 or ts[lo - 1] < start) and (hi == len(ts) or ts[hi] >= end)  # every in-span sample

    def test_bad_params(self):
        seq = make_sequence(n=90)
        with pytest.raises(ValidationError):
            segment(seq, window_s=0.0)
        with pytest.raises(ValidationError):
            segment(seq, hop_s=-1.0)
        for bad in (np.inf, np.nan, 1e306):  # 1e306 s overflows to inf ms
            with pytest.raises(ValidationError, match="positive and finite"):
                segment(seq, window_s=bad)
            with pytest.raises(ValidationError, match="positive and finite"):
                segment(seq, hop_s=bad)

    def test_gap_swallowing_window_raises(self):
        ts = np.concatenate([np.arange(60) * (1000.0 / 30.0)])
        ts = np.concatenate([ts, ts[-1] + 8000.0 + np.arange(120) * (1000.0 / 30.0)])
        seq = GazeSequence(
            frame_index=np.arange(len(ts)),
            timestamp_ms=ts,
            gaze_x=np.zeros(len(ts)),
            gaze_y=np.zeros(len(ts)),
            screen_distance_mm=np.full(len(ts), 600.0),
            eye_closed=np.zeros(len(ts), dtype=bool),
        )
        with pytest.raises(ValidationError, match="gap"):
            segment(seq)

    @given(
        st.integers(min_value=500, max_value=20000),
        st.integers(min_value=200, max_value=6000),
        st.integers(min_value=100, max_value=4000),
    )
    def test_count_formula_matches_loop_oracle(self, duration_ms, window_ms, hop_ms):
        assert expected_window_count(duration_ms, window_ms, hop_ms) == loop_window_count(
            duration_ms, window_ms, hop_ms
        )

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40)
    def test_segment_count_on_synthesized_sequences(self, duration_s, hop_s):
        rate = 20.0
        seq = make_sequence(n=int(duration_s * rate), rate_hz=rate)
        windows = segment(seq, window_s=3.0, hop_s=float(hop_s))
        assert len(windows) == loop_window_count(duration_s * 1000.0, 3000.0, hop_s * 1000.0)

    def test_consecutive_windows_overlap_by_window_minus_hop(self):
        spans = segment(make_sequence(n=300, rate_hz=30.0), window_s=3.0, hop_s=2.0).spans
        np.testing.assert_allclose(spans[:-1, 1] - spans[1:, 0], 1000.0)  # 3 - 2 seconds

    def test_time_shift_shifts_spans_only(self):
        n, rate = 270, 30.0
        base = make_sequence(n=n, rate_hz=rate)
        shifted = GazeSequence(
            frame_index=np.arange(n),
            timestamp_ms=base.timestamp_ms + 12345.0,
            gaze_x=base.gaze_x,
            gaze_y=base.gaze_y,
            screen_distance_mm=base.screen_distance_mm,
            eye_closed=base.eye_closed,
        )
        ws_a, ws_b = segment(base), segment(shifted)
        assert len(ws_a) == len(ws_b)
        np.testing.assert_allclose(ws_b.spans - ws_a.spans, 12345.0)
        assert np.array_equal(ws_a.lo, ws_b.lo) and np.array_equal(ws_a.hi, ws_b.hi)


class TestAlign:
    def _spans(self, n_windows=4):
        return segment(make_sequence(n=90 + 60 * (n_windows - 1), rate_hz=30.0)).spans

    def test_one_point_per_window_is_identity(self):
        spans = self._spans(4)
        # one point inside each window's private [start, start+hop) stretch
        track = AnnotationTrack(
            np.array([100.0, 2100.0, 4100.0, 6100.0, 9000.0]),
            np.array([0.1, 0.2, 0.3, 0.4, 0.4]),
            "valence",
        )
        targets = targets_for_spans(spans, track)
        # each window [k*2000, k*2000+3000) holds points at k*2000+100 ... and any
        # later points that fall before its end
        assert targets[0] == pytest.approx(np.mean([0.1, 0.2]))
        assert targets[1] == pytest.approx(np.mean([0.2, 0.3]))
        assert targets[3] == pytest.approx(np.mean([0.4, 0.4]))

    def test_mean_of_in_span_points(self):
        track = AnnotationTrack(np.array([500.0, 1500.0, 3500.0]), np.array([0.2, 0.4, 0.9]), "arousal")
        assert targets_for_spans(self._spans(1), track).tolist() == pytest.approx([0.3])

    def test_empty_span_takes_last_value_at_or_before_start(self):
        track = AnnotationTrack(np.array([0.0, 900.0, 9000.0]), np.array([0.5, -0.5, -0.5]), "valence")
        targets = targets_for_spans(self._spans(4), track)
        # window 2 spans [4000, 7000): no interior point except ts=9000 is beyond; last <= 4000 is -0.5
        assert targets[2] == pytest.approx(-0.5)

    def test_track_ending_early_is_coverage_error(self):
        track = AnnotationTrack(np.array([0.0, 4000.0]), np.array([0.5, 0.5]), "valence")
        with pytest.raises(ValidationError, match="ends at"):
            targets_for_spans(self._spans(4), track)

    def test_track_before_first_window(self):
        spans = np.array([[1000.0, 4000.0]])
        track = AnnotationTrack(np.array([500.0]), np.array([0.25]), "valence")
        with pytest.raises(ValidationError):
            targets_for_spans(spans, track)  # ends at 500 < 4000

    def test_last_point_inside_final_span_is_accepted(self):
        spans = np.array([[0.0, 3000.0], [2000.0, 5000.0]])
        track = AnnotationTrack(np.array([0.0, 2000.0, 4500.0]), np.array([0.1, 0.3, 0.5]), "valence")
        assert targets_for_spans(spans, track).tolist() == pytest.approx([0.2, 0.4])

    def test_last_point_just_before_final_span_is_rejected(self):
        spans = np.array([[0.0, 3000.0], [2000.0, 5000.0]])
        track = AnnotationTrack(np.array([0.0, 1999.5]), np.array([0.1, 0.3]), "valence")
        with pytest.raises(ValidationError, match="before the final window starting at 2000.0 ms"):
            targets_for_spans(spans, track)

    def test_time_shift_preserves_targets(self):
        seq = make_sequence(n=90 + 60 * 2, rate_hz=30.0)
        ts = np.array([100.0, 2100.0, 4100.0, 7100.0])
        vals = np.array([0.1, -0.2, 0.3, 0.05])
        base = targets_for_spans(segment(seq).spans, AnnotationTrack(ts, vals, "valence"))
        shift = 5000.0
        seq2 = GazeSequence(
            frame_index=np.arange(len(seq.timestamp_ms)),
            timestamp_ms=seq.timestamp_ms + shift,
            gaze_x=seq.gaze_x,
            gaze_y=seq.gaze_y,
            screen_distance_mm=seq.screen_distance_mm,
            eye_closed=seq.eye_closed,
        )
        shifted = targets_for_spans(segment(seq2).spans, AnnotationTrack(ts + shift, vals, "valence"))
        assert base.tolist() == shifted.tolist()

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
        st.floats(0.0, 9000.0),
        st.integers(1, 4),
    )
    @settings(max_examples=50)
    def test_targets_stay_in_range(self, values, first_ms, n_windows):
        ts = first_ms + 800.0 * np.arange(len(values))
        spans = self._spans(n_windows)
        if ts[-1] < spans[-1, 0]:
            return  # a coverage error, tested above
        targets = targets_for_spans(spans, AnnotationTrack(ts, np.array(values), "valence"))
        assert np.all(np.isfinite(targets)) and np.all(np.abs(targets) <= 1.0)
