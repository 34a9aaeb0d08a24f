import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazecast.cli import FEATURE_CSV_HEADER, read_feature_csv
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
    write_gaze_csv,
)

from helpers import make_sequence, write_annotation_csv

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

    @pytest.mark.parametrize("n", [5, 8192 * 2 + 3])
    def test_writer_bytes_match_a_csv_writer_loop(self, n):
        """The joined rows are the bytes of the csv.writer loop they replaced, across write boundaries."""
        special = [-0.0, 5e-324, 1e308, 600.0, -2.0]  # sign of zero, smallest subnormal, huge, integral
        rng = np.random.default_rng(n)
        x, y = (np.where(rng.random(n) < 0.5, np.resize(special, n), rng.normal(size=n)) for _ in range(2))
        dist = np.where(rng.random(n) < 0.5, np.resize(np.abs(special[1:]), n), 600.0 + rng.normal(size=n))
        ts = np.concatenate([[-0.0, 5e-324, 1.0], 2.0 + np.arange(n - 3) * 1000.0 / 30.0])
        seq = GazeSequence(np.arange(n) * 3, ts, x, y, dist, rng.random(n) < 0.3)
        want = io.StringIO()
        w = csv.writer(want, lineterminator="\n")
        w.writerow(["frame", "timestamp_ms", "gaze_x", "gaze_y", "screen_distance_mm", "eye_closed"])
        for i in range(n):
            w.writerow([int(seq.frame_index[i]), repr(float(seq.timestamp_ms[i])), repr(float(seq.gaze_x[i])),
                        repr(float(seq.gaze_y[i])), repr(float(seq.screen_distance_mm[i])), int(seq.eye_closed[i])])
        got = io.StringIO()
        write_gaze_csv(seq, got)
        got_lines, want_lines = got.getvalue().split("\n"), want.getvalue().split("\n")
        assert len(got_lines) == len(want_lines)
        assert [(i, a, b) for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b][:1] == []
        assert {"-0.0", "5e-324", "1e+308", "600.0"} <= set(",".join(got_lines).split(","))


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

    @pytest.mark.parametrize("text, error", [
        ('{"duration_s": "abc", "rate_hz": 30}', SchemaError),
        ('{"duration_s": 1, "rate_hz": 30, "blinks_ms": [[1, 2, 3]]}', SchemaError),
        ('{"duration_s": 1, "rate_hz": 30, "blinks_ms": [["a", 1]]}', SchemaError),
        ('{"duration_s": 1, "rate_hz": 30, "gaze_x": [{"kind": "constant", "level": "x"}]}', SchemaError),
        ('{"duration_s": 1, "rate_hz": 30, "gaze_x": [{"kind": "noise", "noise_std": -1}]}', ValidationError),
        ('{"duration_s": 1, "rate_hz": 30, "gaze_x": [{"kind": "noise", "noise_std": NaN}]}', ValidationError),
        ('{"duration_s": NaN, "rate_hz": 30}', ValidationError),
        ('{"duration_s": 1, "rate_hz": NaN}', ValidationError),
        ('{"duration_s": 1e300, "rate_hz": 1e300}', ValidationError),  # the sample count overflows
        ('{"duration_s": 1, "rate_hz": 30, "gaze_x": [{"kind": "constant", "level": NaN}]}', ValidationError),
        ('{"duration_s": 1, "rate_hz": 30, "gaze_y": [{"kind": "ramp", "slope": Infinity}]}', ValidationError),
        ('{"duration_s": 1, "rate_hz": 30, "distance_mm": [{"kind": "sinusoid", "frequency_hz": NaN}]}',
         ValidationError),
        ('{"duration_s": 1, "rate_hz": 30, "gaze_x": [{"kind": "sinusoid", "amplitude": -Infinity}]}',
         ValidationError),
        ('{"duration_s": 1, "rate_hz": 30, "gaze_x": [{"kind": "sinusoid", "phase_rad": NaN}]}', ValidationError),
        ('{"duration_s": 1, "rate_hz": 30, "blinks_ms": [[NaN, 5]]}', ValidationError),
        ('{"duration_s": 1, "rate_hz": 30, "blinks_ms": [[0, Infinity]]}', ValidationError),
        ("[1, 2]", SchemaError),  # not a JSON object
    ], ids=["duration_text", "blink_triple", "blink_text", "level_text", "negative_noise", "nan_noise",
            "nan_duration", "nan_rate", "infinite_product", "nan_level", "infinite_slope", "nan_frequency",
            "infinite_amplitude", "nan_phase", "nan_blink_start", "infinite_blink_end", "not_an_object"])
    def test_bad_spec_is_refused_when_read(self, text, error):
        with pytest.raises(error):
            SynthesisSpec.from_json(text)


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


def _columns(lines: list[str]) -> np.ndarray:
    return np.array([[float(c) for c in line.split(",")] for line in lines])


def _gaze_record(lines: list[str]) -> GazeSequence:
    a = _columns(lines)
    return GazeSequence(frame_index=a[:, 0], timestamp_ms=a[:, 1], gaze_x=a[:, 2], gaze_y=a[:, 3],
                        screen_distance_mm=a[:, 4], eye_closed=a[:, 5])


def _annotation_record(lines: list[str]) -> AnnotationTrack:
    a = _columns(lines)
    return AnnotationTrack(a[:, 0], a[:, 1], "valence")


APERTURE_HEADER = "frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eyelid_aperture"
GOOD_GAZE = [f"{i},{100 * i},0,0,600,0" for i in range(6)]
GOOD_ANNOTATION = [f"{1000 * i},0.1" for i in range(6)]


def _replace(lines: list[str], row: int, line: str) -> list[str]:
    return lines[: row - 1] + [line] + lines[row:]


class TestValueRules:
    """Each value rule lives once, in the record type, and names the first bad data row."""

    @pytest.mark.parametrize("header, lines, row, message", [
        (GAZE_HEADER, _replace(GOOD_GAZE, 3, "2,nan,0,0,600,0"), 3, "timestamp_ms must be finite"),
        (GAZE_HEADER, _replace(GOOD_GAZE, 4, "3,200,0,0,600,0"), 4, "timestamp_ms not strictly increasing"),
        (GAZE_HEADER, _replace(GOOD_GAZE, 2, "-1,100,0,0,600,0"), 2, "frame must be >= 0"),
        (GAZE_HEADER, _replace(GOOD_GAZE, 5, "4,400,0,0,0,0"), 5, "screen_distance_mm must be > 0"),
        (GAZE_HEADER, _replace(GOOD_GAZE, 6, "5,500,0,0,-3,0"), 6, "screen_distance_mm must be > 0"),
        (APERTURE_HEADER, _replace(GOOD_GAZE, 3, "2,200,0,0,600,-0.1"), 3, "eyelid_aperture must be >= 0"),
        (None, _replace(GOOD_ANNOTATION, 2, "nan,0.5"), 2, "annotation timestamp must be finite"),
        (None, _replace(GOOD_ANNOTATION, 3, "1000,0.5"), 3, "annotation timestamps not strictly increasing"),
        (None, _replace(GOOD_ANNOTATION, 2, "1000,1.5"), 2, r"annotation value outside \[-1, 1\]"),
        (None, _replace(GOOD_ANNOTATION, 4, "3000,nan"), 4, r"annotation value outside \[-1, 1\]"),
    ], ids=["gaze_nan_timestamp", "gaze_repeated_timestamp", "gaze_negative_frame", "gaze_zero_distance",
            "gaze_negative_distance", "gaze_negative_aperture", "annotation_nan_timestamp",
            "annotation_repeated_timestamp", "annotation_value_above_1", "annotation_nan_value"])
    def test_parser_and_record_name_the_same_row(self, header, lines, row, message):
        expected = f"^data row {row}: {message}"
        with pytest.raises(ValidationError, match=expected) as from_text:
            if header is None:
                parse_annotation_csv(io.StringIO("\n".join(lines)), "valence")
            else:
                parse_gaze_csv(gaze_csv(lines, header=header))
        if header != APERTURE_HEADER:  # the record keeps only the closed flag, not the aperture
            with pytest.raises(ValidationError, match=expected) as from_record:
                (_annotation_record if header is None else _gaze_record)(lines)
            assert str(from_record.value) == str(from_text.value)

    def test_schema_faults_are_reported_before_value_faults(self):
        gaze = _replace(_replace(GOOD_GAZE, 3, "2,100,0,0,600,0"), 6, "5,oops,0,0,600,0")
        with pytest.raises(SchemaError, match="data row 6: unparseable value 'oops'"):
            parse_gaze_csv(gaze_csv(gaze))
        annotation = _replace(_replace(GOOD_ANNOTATION, 2, "1000,1.5"), 5, "4000,oops")
        with pytest.raises(SchemaError, match="data row 5: unparseable value 'oops'"):
            parse_annotation_csv(io.StringIO("\n".join(annotation)), "valence")

    def test_blank_records_are_not_counted(self, tmp_path):
        text = "\n" + GAZE_HEADER + "\n0,0,0,0,600,0\n\n1,0,0,0,600,0\n"
        with pytest.raises(ValidationError, match="^data row 2: timestamp_ms not strictly increasing"):
            parse_gaze_csv(io.StringIO(text))
        text = "\ntimestamp_ms,value\n\n0,0.1\n\n\n1000,0.2\n1000,0.3\n"
        with pytest.raises(ValidationError, match="^data row 3: annotation timestamps not strictly increasing"):
            parse_annotation_csv(io.StringIO(text), "valence")
        features = tmp_path / "features.csv"
        features.write_text("\n" + ",".join(FEATURE_CSV_HEADER) + "\n" + ",".join(["0"] * 33) + "\n\n"
                            + ",".join(["x"] * 33) + "\n")
        with pytest.raises(SchemaError, match="data row 2: unparseable"):
            read_feature_csv(features)

    def test_empty_track_has_no_data_rows(self):
        with pytest.raises(SchemaError, match="no data rows"):
            AnnotationTrack(np.array([]), np.array([]), "valence")
