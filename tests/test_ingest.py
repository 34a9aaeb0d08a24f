import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazecast.errors import SchemaError, ValidationError
from gazecast.ingest import (
    AnnotationTrack,
    ChannelSpec,
    GazeSequence,
    SynthesisSpec,
    parse_annotation_csv,
    parse_gaze_csv,
    synthesize_sequence,
    validate_sequence,
    write_annotation_csv,
    write_gaze_csv,
)

from helpers import make_sequence

GAZE_HEADER = "frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eye_closed"


def gaze_csv(rows: list[str], header: str = GAZE_HEADER) -> io.StringIO:
    return io.StringIO("\n".join([header] + rows) + "\n")


class TestParseGazeCsv:
    def test_two_wellformed_rows(self):
        seq = parse_gaze_csv(gaze_csv(["0,0,0.1,0.2,600,0", "1,33.3,0.15,0.25,601,1"]))
        assert len(seq) == 2
        assert seq.frame_index[1] == 1
        assert seq.timestamp_ms[1] == 33.3
        assert seq.gaze_x[1] == 0.15
        assert bool(seq.eye_closed[1]) is True

    def test_missing_column_named(self):
        header = "frame,timestamp_ms,gaze_x,screen_distance_mm,eye_closed"
        with pytest.raises(SchemaError, match="gaze_y"):
            parse_gaze_csv(gaze_csv(["0,0,0.1,600,0"], header=header))

    def test_monotonicity_error_reports_row(self):
        rows = ["0,0,0,0,600,0", "1,33,0,0,600,0", "2,33,0,0,600,0"]
        with pytest.raises(ValidationError, match="row 3"):
            parse_gaze_csv(gaze_csv(rows))

    def test_unparseable_cell_reports_row_and_column(self):
        rows = ["0,0,0,0,600,0", "1,33,oops,0,600,0"]
        with pytest.raises(SchemaError, match="row 2.*gaze_x"):
            parse_gaze_csv(gaze_csv(rows))

    @pytest.mark.parametrize("frame", ["nan", "inf", "-inf", "1e300"])
    def test_unrepresentable_frame_reports_row(self, frame):
        rows = ["0,0,0,0,600,0", f"{frame},33,0,0,600,0"]
        with pytest.raises(SchemaError, match="row 2.*frame"):
            parse_gaze_csv(gaze_csv(rows))

    def test_eyelid_aperture_drives_closure(self):
        header = "frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eyelid_aperture"
        seq = parse_gaze_csv(gaze_csv(["0,0,0,0,600,0.1", "1,33,0,0,600,0.4"], header=header))
        assert seq.eye_closed.tolist() == [True, False]
        seq = parse_gaze_csv(
            gaze_csv(["0,0,0,0,600,0.1", "1,33,0,0,600,0.4"], header=header),
            closure_threshold=0.5,
        )
        assert seq.eye_closed.tolist() == [True, True]

    def test_missing_eye_column(self):
        header = "frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm"
        with pytest.raises(SchemaError, match="eye_closed"):
            parse_gaze_csv(gaze_csv(["0,0,0,0,600"], header=header))

    def test_eye_closed_must_be_binary(self):
        with pytest.raises(SchemaError, match="eye_closed"):
            parse_gaze_csv(gaze_csv(["0,0,0,0,600,0", "1,33,0,0,600,0.5"]))

    def test_nan_coordinates_are_admitted(self):
        seq = parse_gaze_csv(gaze_csv(["0,0,nan,0,600,0", "1,33,0.1,0,600,0"]))
        assert np.isnan(seq.gaze_x[0])

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValidationError, match="screen_distance_mm"):
            parse_gaze_csv(gaze_csv(["0,0,0,0,0,0", "1,33,0,0,600,0"]))

    def test_extra_columns_ignored(self):
        header = GAZE_HEADER + ",confidence"
        seq = parse_gaze_csv(gaze_csv(["0,0,0,0,600,0,0.99", "1,33,0,0,600,0,0.98"], header=header))
        assert len(seq) == 2

    def test_roundtrip_identical(self):
        spec = SynthesisSpec(
            duration_s=2.0,
            rate_hz=10.0,
            gaze_x=(ChannelSpec("sinusoid", frequency_hz=0.7, amplitude=0.33),),
            gaze_y=(ChannelSpec("noise", noise_std=0.2),),
            blinks_ms=((500.0, 800.0),),
        )
        seq = synthesize_sequence(spec, 42)
        buf = io.StringIO()
        write_gaze_csv(seq, buf)
        seq2 = parse_gaze_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(seq.timestamp_ms, seq2.timestamp_ms)
        assert np.array_equal(seq.gaze_x, seq2.gaze_x)
        assert np.array_equal(seq.gaze_y, seq2.gaze_y)
        assert np.array_equal(seq.screen_distance_mm, seq2.screen_distance_mm)
        assert np.array_equal(seq.eye_closed, seq2.eye_closed)


class TestParseAnnotationCsv:
    def test_headerless_two_points(self):
        track = parse_annotation_csv(io.StringIO("0,0.5\n2000,-0.2"), "valence")
        assert len(track) == 2
        assert track.values.tolist() == [0.5, -0.2]

    def test_header_accepted(self):
        track = parse_annotation_csv(io.StringIO("timestamp_ms,value\n0,0.5\n2000,-0.2"), "arousal")
        assert len(track) == 2

    def test_out_of_range_value(self):
        with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
            parse_annotation_csv(io.StringIO("0,1.5"), "valence")

    def test_empty_body(self):
        with pytest.raises(SchemaError, match="no data rows"):
            parse_annotation_csv(io.StringIO("timestamp_ms,value\n"), "valence")

    def test_only_first_line_may_be_header(self):
        text = "timestamp_ms,value\nnp.float64(0.0),np.float64(0.5)\n"
        with pytest.raises(SchemaError, match="row 1"):
            parse_annotation_csv(io.StringIO(text), "valence")

    def test_non_monotonic(self):
        with pytest.raises(ValidationError, match="increasing"):
            parse_annotation_csv(io.StringIO("0,0.1\n0,0.2"), "valence")

    def test_bad_dimension(self):
        with pytest.raises(ValidationError, match="dimension"):
            parse_annotation_csv(io.StringIO("0,0.1"), "happiness")

    def test_roundtrip(self):
        track = AnnotationTrack(np.array([0.0, 100.5, 4000.0]), np.array([0.1, -0.99, 1.0]), "valence")
        buf = io.StringIO()
        write_annotation_csv(track, buf)
        track2 = parse_annotation_csv(io.StringIO(buf.getvalue()), "valence")
        assert np.array_equal(track.timestamps_ms, track2.timestamps_ms)
        assert np.array_equal(track.values, track2.values)


class TestValidateSequence:
    def test_uniform_sequence_usable(self):
        report = validate_sequence(make_sequence(n=90, rate_hz=30.0))
        assert report.jitter_ratio == pytest.approx(1.0)
        assert report.nan_count == 0
        assert report.usable

    def test_gap_wider_than_twice_hop_unusable(self):
        ts = np.concatenate([np.arange(30) * 100.0, 7900.0 + np.arange(30) * 100.0])
        seq = GazeSequence(
            frame_index=np.arange(60),
            timestamp_ms=ts,
            gaze_x=np.zeros(60),
            gaze_y=np.zeros(60),
            screen_distance_mm=np.full(60, 600.0),
            eye_closed=np.zeros(60, dtype=bool),
        )
        report = validate_sequence(seq, hop_s=2.0)
        assert not report.usable
        assert report.max_gap_ms == pytest.approx(5000.0)

    def test_nan_count(self):
        xs = np.zeros(30)
        xs[7] = np.nan
        report = validate_sequence(make_sequence(n=30, xs=xs))
        assert report.nan_count == 1
        assert report.usable  # NaNs are reported, not a gap problem

    def test_does_not_mutate(self):
        seq = make_sequence(n=30)
        before = seq.gaze_x.copy()
        validate_sequence(seq)
        assert np.array_equal(seq.gaze_x, before)
        with pytest.raises(ValueError):
            seq.gaze_x[0] = 5.0  # columns are read-only


class TestSynthesize:
    def test_constant_channels(self):
        spec = SynthesisSpec(duration_s=60.0, rate_hz=30.0)
        seq = synthesize_sequence(spec, 0)
        assert len(seq) == 1800
        assert np.all(seq.gaze_x == 0.0)
        assert np.all(seq.screen_distance_mm == 600.0)

    def test_sinusoid_peak_to_peak(self):
        spec = SynthesisSpec(
            duration_s=60.0, rate_hz=30.0,
            gaze_x=(ChannelSpec("sinusoid", frequency_hz=0.1, amplitude=1.0),),
        )
        seq = synthesize_sequence(spec, 0)
        assert np.max(seq.gaze_x) - np.min(seq.gaze_x) == pytest.approx(2.0, abs=1e-6)

    def test_deterministic(self):
        spec = SynthesisSpec(
            duration_s=5.0, rate_hz=30.0,
            gaze_x=(ChannelSpec("noise", noise_std=0.3),),
            gaze_y=(ChannelSpec("noise", noise_std=0.3),),
        )
        a = synthesize_sequence(spec, 99)
        b = synthesize_sequence(spec, 99)
        assert np.array_equal(a.gaze_x, b.gaze_x)
        assert np.array_equal(a.gaze_y, b.gaze_y)
        c = synthesize_sequence(spec, 100)
        assert not np.array_equal(a.gaze_x, c.gaze_x)

    def test_channels_have_independent_streams(self):
        spec = SynthesisSpec(
            duration_s=5.0, rate_hz=30.0,
            gaze_x=(ChannelSpec("noise", noise_std=0.3),),
            gaze_y=(ChannelSpec("noise", noise_std=0.3),),
        )
        seq = synthesize_sequence(spec, 1)
        assert not np.array_equal(seq.gaze_x, seq.gaze_y)

    def test_blink_schedule(self):
        spec = SynthesisSpec(duration_s=1.0, rate_hz=10.0, blinks_ms=((200.0, 400.0),))
        seq = synthesize_sequence(spec, 0)
        assert seq.eye_closed.tolist() == [False, False, True, True, False, False, False, False, False, False]

    @pytest.mark.parametrize("duration,rate", [(-1.0, 30.0), (0.0, 30.0), (5.0, 0.0), (5.0, -2.0)])
    def test_nonpositive_duration_or_rate(self, duration, rate):
        with pytest.raises(ValidationError):
            synthesize_sequence(SynthesisSpec(duration_s=duration, rate_hz=rate), 0)

    def test_from_json(self):
        text = """
        {"duration_s": 2.0, "rate_hz": 10.0,
         "gaze_x": [{"kind": "sinusoid", "frequency_hz": 1.0, "amplitude": 0.5}],
         "blinks_ms": [[100, 300]]}
        """
        spec = SynthesisSpec.from_json(text)
        assert spec.gaze_x[0].amplitude == 0.5
        assert spec.blinks_ms == ((100.0, 300.0),)
        with pytest.raises(SchemaError):
            SynthesisSpec.from_json("{\"rate_hz\": 1.0}")


class TestSequenceInvariants:
    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            make_sequence(n=1)

    def test_nominal_rate_is_median_reciprocal_gap(self):
        ts = np.array([0.0, 10.0, 20.0, 30.0, 130.0])  # one straggler gap
        seq = GazeSequence(
            frame_index=np.arange(5),
            timestamp_ms=ts,
            gaze_x=np.zeros(5),
            gaze_y=np.zeros(5),
            screen_distance_mm=np.full(5, 600.0),
            eye_closed=np.zeros(5, dtype=bool),
        )
        assert seq.nominal_rate_hz == pytest.approx(100.0)

    @given(st.integers(min_value=2, max_value=200), st.floats(min_value=1.0, max_value=120.0))
    def test_duration_counts_one_trailing_frame(self, n, rate):
        seq = make_sequence(n=n, rate_hz=rate)
        assert seq.duration_ms == pytest.approx(n * 1000.0 / rate, rel=1e-9)
