"""Any text fed to a parser ends in a result or a GazecastError, never in another exception.

A gaze or annotation record that a parser returns has finite, strictly increasing timestamps.
"""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazecast.cli import FEATURE_CSV_HEADER, read_feature_csv
from gazecast.errors import GazecastError
from gazecast.ingest import parse_annotation_csv, parse_gaze_csv
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
