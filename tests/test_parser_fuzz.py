"""Any text fed to a parser ends in a result or a GazecastError, never in another exception.

A gaze or annotation record that a parser returns has finite, strictly increasing timestamps. Each CSV
reader's fast path (one loadtxt table) gives exactly what its row-wise loop gives alone: the same arrays,
byte for byte, or the same error class and message.
"""

import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazecast.cli import FEATURE_CSV_HEADER, read_feature_csv
from gazecast.errors import GazecastError
from gazecast.ingest import _CsvText, parse_annotation_csv, parse_gaze_csv
from gazecast.regression import model_from_text


def _read_feature_text(text: str):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "features.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        return read_feature_csv(path)


PARSERS = {
    "gaze": lambda text: parse_gaze_csv(io.StringIO(text)),
    "annotation": lambda text: parse_annotation_csv(io.StringIO(text), "valence"),
    "features": _read_feature_text,
    "model": model_from_text,
}
# The timestamp column of the record each parser returns, where it has one.
TIMESTAMPS = {"gaze": "timestamp_ms", "annotation": "timestamps_ms"}
# A valid first line for each format, so that generated bodies reach the row-level code.
HEADERS = {
    "gaze": "frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eye_closed\n",
    "annotation": "timestamp_ms,value\n",
    "features": ",".join(FEATURE_CSV_HEADER) + "\n",
    "model": "GAZESVR1\n",
}
CELLS = st.sampled_from(
    ["0", "1", "-1", "0.5", "33.3", "1e308", "1e-320", "nan", "inf", "-0", "", " ", "x", '"', "\r", "\x00",
     "dimension", "valence", "features", "2", "target", "bias"]
)
LINE = st.lists(CELLS, max_size=8).map(",".join) | st.lists(CELLS, max_size=4).map(" ".join)
BODY = st.text() | st.lists(LINE, max_size=12).map("\n".join)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@given(body=BODY, with_header=st.booleans())
@example(body="7" * 200_000, with_header=False)  # a field over the csv module's size limit
@example(body="0,0.5\r2000,1", with_header=True)  # a bare carriage return inside an unquoted field
@example(body="0,0.1\nnan,0.5\n5000,0.2", with_header=False)  # a NaN timestamp between increasing ones
@settings(max_examples=150, deadline=None)
def test_parsers_raise_only_gazecast_errors(kind, body, with_header):
    try:
        record = PARSERS[kind]((HEADERS[kind] if with_header else "") + body)
    except GazecastError:
        return
    if kind in TIMESTAMPS:
        ts = getattr(record, TIMESTAMPS[kind])
        assert np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)


# --- the fast path against the row-wise loop -----------------------------------------------------------------

def _parse_file(parse, path: Path, newline: str, *args):
    with open(path, encoding="utf-8", newline=newline) as f:
        return parse(f, *args)


# Each reader on a file; newline="" reads like the CLI, "\n" like a StringIO.
READERS = {
    "gaze": lambda path, newline: _parse_file(parse_gaze_csv, path, newline),
    "annotation": lambda path, newline: _parse_file(parse_annotation_csv, path, newline, "valence"),
    "features": lambda path, newline: read_feature_csv(path),
}
GAZE_HEADER = HEADERS["gaze"].encode()
# Cells both readers take, and cells where float() and loadtxt part ways or that neither takes.
PLAIN = ["0", "1", "2", "-1", "0.5", "33.3", "1e308", "-1e308", "1e-320", "5e-324", "nan", "-nan", "inf", "-inf",
         "-0", " 7 ", "9.3e18", "-9.3e18", "9.2e18"]
ODD = ["1_0", "\x0c3", "3\x1c", "٣", '"4"', ""]


@st.composite
def numeric_tables(draw) -> str:
    """Rows of one width, some free of odd cells; when *ascending*, columns 0 and 1 count up and column 5
    alternates 0/1, so that some tables pass validation too."""
    width = draw(st.sampled_from([1, 2, 2, 5, 6, 6, 7, 33, 33, 34]))
    cells = st.sampled_from(PLAIN if draw(st.booleans()) else PLAIN + ODD)
    ascending = draw(st.booleans())
    rows = []
    for i in range(draw(st.integers(0, 12))):
        row = draw(st.lists(cells, min_size=width, max_size=width))
        if ascending:
            row[:2] = [str(i)] * len(row[:2])
            row[5:6] = [str(i % 2)] * len(row[5:6])
        rows.append(",".join(row))
    return "\n".join(rows) + draw(st.sampled_from(["", "\n", "\r\n"]))


def _outcome(read, path: Path, newline: str):
    """Arrays as (dtype, shape, bytes), or the error's class and message."""
    try:
        result = read(path, newline)
    except GazecastError as e:
        return type(e), str(e)
    fields = vars(result).values() if hasattr(result, "__dict__") else result
    return [(a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in fields]


def _row_wise(read, path: Path, newline: str):
    with mock.patch.object(_CsvText, "table", return_value=None):
        return _outcome(read, path, newline)


FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = (FIXTURES / "golden_gaze.csv").read_bytes()
GOLDEN_BODY = GOLDEN.split(b"\n", 1)[1]
GOLDEN_FEATURES_BODY = (FIXTURES / "golden_features.csv").read_bytes().split(b"\n", 1)[1]


@pytest.mark.parametrize("newline", ["", "\n"])
@pytest.mark.parametrize("kind", sorted(READERS))
@given(
    body=(BODY | numeric_tables()).map(str.encode) | st.binary(max_size=40),
    with_header=st.booleans(),
)
@example(body=GOLDEN_BODY, with_header=True)  # accepted on the fast path
@example(body=GOLDEN_FEATURES_BODY, with_header=True)  # accepted on the fast path
@example(body=b"-0.5,1,0.1,0.2,600,0\n1.9,2,0.1,0.2,600,1\n", with_header=True)  # frames truncate like int()
@example(body=b"1_0,0.1\n20,0.2\n", with_header=True)  # float() reads 10.0, loadtxt refuses
@example(body=b'"0",0.1\n1,0.2\n', with_header=True)  # a quoted cell
@example(body=b'0,1,0.1,0.2,600,0,"a,b"\n1,2,0.1,0.2,600,0,"c,d"\n', with_header=True)  # quoted comma, unused column
@example(body=b"0,1,0.1,0.2,600,0\r\n1,2,0.1,0.2,600,1\r\n", with_header=True)  # \r\n
@example(body=b"0,1,0.1,0.2,600,0\r1,2,0.1,0.2,600,1\r", with_header=True)  # bare \r
@example(body=b"0,1,0.1,0.2,600,0\n\n1,2,0.1,0.2,600,1\n \n", with_header=True)  # blank, whitespace-only lines
@example(body=b"\n\r\n" + GOLDEN, with_header=False)  # blank lines before the header
@example(body=b"0,1,0.1,0.2,600\n1,2,0.1,0.2,600\n", with_header=True)  # short rows
@example(body=b"0,1,0.1,0.2,600,0,7\n1,2,0.1,0.2,600,1,8\n", with_header=True)  # extra columns
@example(body=b"0," + b"7" * 200_000 + b",0.1,0.2,600,0\n", with_header=True)  # a field over the csv limit
@example(body=b"0," + b"7" * 200_000 + b"\n", with_header=True)  # the same, in an annotation-wide row
@example(body=b"0,1,0.1,0.2\x0c,600,0\n1,2\x0c,0.1,0.2,600,1\n", with_header=True)  # \x0c inside a cell
@example(body=b"0,1,0.1,0.2,600,0\n1,2,0.1,0.2,600,1\x1c\n", with_header=True)  # \x1c: loadtxt strips it
@example(body=GOLDEN_BODY[:150] + b"\xff" + GOLDEN_BODY[150:], with_header=True)  # undecodable byte, line 4
@example(body=b"0,1,0.1,0.2,600,0\nx\n" + GOLDEN_BODY * 60 + b"\xff", with_header=True)  # fault after a bad row
@example(body=b"0,1,0.1,0.2,600,0\nnan,2,0.1,0.2,600,1\n", with_header=True)  # a NaN frame
@example(body=b"0,1,0.1,0.2,600,0\n1e19,2,0.1,0.2,600,1\n", with_header=True)  # a frame past int64
@example(body=b"0,1,0.1,0.2,600,0\n1,2,0.1,0.2,600,2\n", with_header=True)  # eye_closed = 2
@example(
    body=b"frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eyelid_aperture\n0,1,0.1,0.2,600,0.5\n1,2,0.1,0.2,600,0.1\n",
    with_header=False,
)  # an eyelid_aperture file
@example(
    body=b"frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eyelid_aperture\n0,1,0.1,0.2,600,0.5\n1,2,0.1,0.2,600,-1\n",
    with_header=False,
)  # a negative aperture
@example(body=b"0,0.1\n1000,0.5\n", with_header=False)  # an annotation without a header
@settings(max_examples=150, deadline=None)
def test_reader_matches_its_row_wise_loop(kind, newline, body, with_header):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.csv"
        path.write_bytes((HEADERS[kind].encode() if with_header else b"") + body)
        read = READERS[kind]
        assert _outcome(read, path, newline) == _row_wise(read, path, newline)


def test_undecodable_byte_names_its_line(tmp_path):
    path = tmp_path / "gaze.csv"
    path.write_bytes(GAZE_HEADER + GOLDEN_BODY[:150] + b"\xff" + GOLDEN_BODY[150:])
    assert GOLDEN_BODY[:150].count(b"\n") == 2
    with pytest.raises(GazecastError, match="^line 4: text is not utf-8"):
        _parse_file(parse_gaze_csv, path, "")
