"""Parsing, validation, and synthesis of frame-wise gaze recordings.

A recording is a sequence of gaze samples (normalized screen coordinates,
eye-to-screen distance in mm, eyelid state) with strictly increasing
timestamps. Affect annotations are sparse (timestamp, value) tracks with
values in [-1, 1]. Gaze coordinates and distances may be NaN on tracker
dropout; :func:`validate_sequence` reports those and feature extraction
refuses windows containing them.

Parse, then validate. A parser reads the whole file into typed columns,
and the first record that does not fit the schema wins (SchemaError, exit
2). Only then are value rules checked (ValidationError, exit 3): each lives
once, in the record type's ``__post_init__``, and names the first bad data
row. "Data row N" is the N-th non-blank record after the header.

A CSV parser reads its file once and parses the rows with ``csv_rows``
and ``float()``. The gaze parser, whose files run to hundreds of
thousands of rows, first tries a fast path over its body: one
``np.loadtxt`` over every column, and vector checks for the per-cell
rules. Where loadtxt and the csv module could read the text differently,
or a check fails, it runs its row-wise loop over the same lines from the
top of the file instead. That loop is the judge: a file is accepted with
the arrays it would give, or refused with its message and row.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import SchemaError, ValidationError

GAZE_COLUMNS = ("frame", "timestamp_ms", "gaze_x", "gaze_y", "screen_distance_mm")
DIMENSIONS = ("arousal", "valence")
DEFAULT_CLOSURE_THRESHOLD = 0.15


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_rows(bad: np.ndarray, message: str) -> None:
    """Raise a ValidationError naming the first data row (1-based) where *bad* is True."""
    if np.any(bad):
        raise ValidationError(f"data row {int(np.argmax(bad)) + 1}: {message}")


@dataclass
class GazeSequence:
    """Ordered frame-wise gaze samples for one recording.

    Column arrays are parallel, immutable, and share the sample index.
    Timestamps are strictly increasing; at least two samples are required so
    a nominal rate is derivable.
    """

    frame_index: np.ndarray
    timestamp_ms: np.ndarray
    gaze_x: np.ndarray
    gaze_y: np.ndarray
    screen_distance_mm: np.ndarray
    eye_closed: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        self.frame_index = _readonly(np.asarray(self.frame_index, dtype=np.int64).copy())
        for name in ("timestamp_ms", "gaze_x", "gaze_y", "screen_distance_mm"):
            setattr(self, name, _readonly(np.asarray(getattr(self, name), dtype=np.float64).copy()))
        self.eye_closed = _readonly(np.asarray(self.eye_closed, dtype=bool).copy())
        n = len(self.timestamp_ms)
        if n < 2:
            raise ValidationError(f"a gaze sequence needs at least 2 samples, got {n}")
        for name in ("frame_index", "gaze_x", "gaze_y", "screen_distance_mm", "eye_closed"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"column {name} has {len(getattr(self, name))} rows, expected {n}")
        _check_rows(~np.isfinite(self.timestamp_ms), "timestamp_ms must be finite")
        _check_rows(np.diff(self.timestamp_ms, prepend=-np.inf) <= 0, "timestamp_ms not strictly increasing")
        _check_rows(self.frame_index < 0, "frame must be >= 0")
        dist = self.screen_distance_mm
        _check_rows(np.isfinite(dist) & (dist <= 0), "screen_distance_mm must be > 0 where present")

    def __len__(self) -> int:
        return len(self.timestamp_ms)

    @property
    def nominal_rate_hz(self) -> float:
        """Median reciprocal inter-frame interval, in Hz."""
        gaps_s = np.diff(self.timestamp_ms) / 1000.0
        return float(np.median(1.0 / gaps_s))

    @property
    def duration_ms(self) -> float:
        """Covered timeline: last-first span plus one nominal frame interval."""
        gaps = np.diff(self.timestamp_ms)
        return float(self.timestamp_ms[-1] - self.timestamp_ms[0] + np.median(gaps))


@dataclass
class AnnotationTrack:
    """Sparse affect annotations for one dimension, values in [-1, 1]."""

    timestamps_ms: np.ndarray
    values: np.ndarray
    dimension: str

    def __post_init__(self):
        self.timestamps_ms = _readonly(np.asarray(self.timestamps_ms, dtype=np.float64).copy())
        self.values = _readonly(np.asarray(self.values, dtype=np.float64).copy())
        if len(self.timestamps_ms) == 0:
            raise SchemaError("annotation track has no data rows")
        if self.dimension not in DIMENSIONS:
            raise ValidationError(f"dimension must be one of {DIMENSIONS}, got {self.dimension!r}")
        if len(self.values) != len(self.timestamps_ms):
            raise ValidationError("annotation timestamp/value lengths differ")
        _check_rows(~np.isfinite(self.timestamps_ms), "annotation timestamp must be finite")
        _check_rows(~((self.values >= -1.0) & (self.values <= 1.0)), "annotation value outside [-1, 1]")
        _check_rows(np.diff(self.timestamps_ms, prepend=-np.inf) <= 0, "annotation timestamps not strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps_ms)


@dataclass(frozen=True)
class ValidationReport:
    """Report-only quality summary for a sequence; never mutates its input."""

    n_samples: int
    duration_ms: float
    median_gap_ms: float
    max_gap_ms: float
    jitter_ratio: float
    nan_count: int
    usable: bool
    issues: tuple[str, ...] = ()


def csv_rows(stream: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (row, cells) for each non-blank CSV record of *stream*'s lines, numbered from 0.

    With a header record first, a record's number is its 1-based data row.
    Text the csv module cannot read (a field over its size limit, a bare
    carriage return inside a field) and undecodable bytes become a
    SchemaError naming the line.
    """
    reader = csv.reader(stream)
    try:
        yield from enumerate(filter(None, reader))
    except csv.Error as e:
        raise SchemaError(f"line {reader.line_num}: unreadable CSV: {e}") from None
    except UnicodeDecodeError as e:
        # A text stream decodes its next chunk only when the text it holds has
        # no line break left, so the failed chunk starts inside the next line.
        line = reader.line_num + 1 + len(re.findall(rb"\r\n?|\n", e.object[: e.start]))
        raise SchemaError(f"line {line}: text is not {e.encoding}: {e.reason}") from None


# Characters that loadtxt strips from a cell as whitespace but float() refuses.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


class _CsvText:
    """The lines of a gaze CSV stream, read once, and its body as one float table.

    Iterating replays the lines from the top, then raises the decode fault
    that ended the read, if any. So csv_rows over it numbers lines and data
    rows, and meets each fault, exactly as it would over the stream.
    """

    def __init__(self, stream: TextIO):
        self.lines: list[str] = []
        self.fault: UnicodeDecodeError | None = None
        self.taken = 0  # lines handed out by the latest iteration
        try:
            self.lines.extend(stream)  # keeps the lines read before a fault
        except UnicodeDecodeError as e:
            self.fault = e

    def __iter__(self) -> Iterator[str]:
        self.taken = 0
        for line in self.lines:
            self.taken += 1
            yield line
        if self.fault is not None:
            raise self.fault

    def table(self, width: int) -> np.ndarray | None:
        """The gaze reader's fast path: the lines past those taken as a (rows, *width*) float table, or None.

        None means that only the row-wise loop may judge those lines: the
        text has a decode fault, no line longer than a line break, a line
        longer than the csv module's field limit, or a character loadtxt
        reads as whitespace but float() refuses; or loadtxt refused it, or
        found another number of columns. Blank lines are skipped, as
        csv_rows skips them, so table row i is data row i + 1.
        """
        body = self.lines[self.taken :]
        if self.fault is not None or not body:
            return None
        # A body of line breaks alone would make loadtxt warn that it holds no data.
        if not 2 < max(map(len, body)) <= csv.field_size_limit():
            return None
        if any(map("".join(body).__contains__, _LOADTXT_ONLY_SPACE)):  # joined once, freed before loadtxt
            return None
        try:
            table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
        return table if table.shape[1] == width else None


def _parse_float(cell: str, row: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(f"data row {row}: unparseable value {cell!r} in column {column!r}") from None


def _parse_frame(cell: str, row: int) -> int:
    v = _parse_float(cell, row, "frame")
    if not (math.isfinite(v) and -(2.0**63) <= v < 2.0**63):
        raise SchemaError(f"data row {row}: frame {cell!r} is not a finite 64-bit integer")
    return int(v)


def parse_gaze_csv(
    stream: TextIO,
    *,
    closure_threshold: float = DEFAULT_CLOSURE_THRESHOLD,
    source_id: str = "",
) -> GazeSequence:
    """Parse the gaze CSV schema into a validated :class:`GazeSequence`.

    Required columns: ``frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm``
    plus either ``eye_closed`` (0/1) or ``eyelid_aperture`` (float >= 0, eye
    counted closed when aperture <= *closure_threshold*). Extra columns are
    ignored. Errors are reported with the 1-based data row number.
    """
    if not (closure_threshold >= 0):
        raise ValidationError("closure_threshold must be >= 0")
    text = _CsvText(stream)
    rows = csv_rows(text)
    _, header = next(rows, (0, None))
    if header is None:
        raise SchemaError("gaze CSV is empty (header row required)")
    header = [h.strip() for h in header]
    col = {name: idx for idx, name in enumerate(header)}
    missing = [c for c in GAZE_COLUMNS if c not in col]
    if missing:
        raise SchemaError(f"gaze CSV missing required column(s): {', '.join(missing)}")
    if "eye_closed" in col:
        eye_name = "eye_closed"
    elif "eyelid_aperture" in col:
        eye_name = "eyelid_aperture"
    else:
        raise SchemaError("gaze CSV missing required column(s): eye_closed (or eyelid_aperture)")
    used = [col[c] for c in GAZE_COLUMNS] + [col[eye_name]]

    columns = None
    table = text.table(len(header))
    if table is not None:
        frames, eyes = table[:, used[0]], table[:, used[-1]]
        # The row-wise rules as vector checks; NaN fails every comparison.
        if np.all((frames >= -(2.0**63)) & (frames < 2.0**63)) and (
            eye_name != "eye_closed" or np.all((eyes == 0.0) | (eyes == 1.0))
        ):
            columns = [frames.astype(np.int64), *(table[:, i] for i in used[1:])]  # astype truncates like int()
    if columns is None:
        columns = _gaze_rows(rows, col, eye_name)
    frames, ts, xs, ys, dists, eyes = columns
    if eye_name == "eyelid_aperture":
        # The record keeps only the closed/open flag, so this rule is checked here.
        _check_rows(eyes < 0, "eyelid_aperture must be >= 0")
        eyes = eyes <= closure_threshold
    return GazeSequence(
        frame_index=frames,
        timestamp_ms=ts,
        gaze_x=xs,
        gaze_y=ys,
        screen_distance_mm=dists,
        eye_closed=eyes,
        source_id=source_id,
    )


def _gaze_rows(rows: Iterator[tuple[int, list[str]]], col: dict[str, int], eye_name: str) -> list[np.ndarray]:
    """The row-wise gaze loop: frame, timestamp, x, y, distance and eye columns, parsed cell by cell."""
    frames, ts, xs, ys, dists, eyes = [], [], [], [], [], []
    eye_col = col[eye_name]
    width = max(col[c] for c in GAZE_COLUMNS) + 1
    width = max(width, eye_col + 1)
    for row_no, row in rows:
        if len(row) < width:
            raise SchemaError(f"data row {row_no}: expected at least {width} columns, got {len(row)}")
        frames.append(_parse_frame(row[col["frame"]], row_no))
        ts.append(_parse_float(row[col["timestamp_ms"]], row_no, "timestamp_ms"))
        xs.append(_parse_float(row[col["gaze_x"]], row_no, "gaze_x"))
        ys.append(_parse_float(row[col["gaze_y"]], row_no, "gaze_y"))
        dists.append(_parse_float(row[col["screen_distance_mm"]], row_no, "screen_distance_mm"))
        eye = _parse_float(row[eye_col], row_no, eye_name)
        if eye_name == "eye_closed" and eye not in (0.0, 1.0):
            raise SchemaError(f"data row {row_no}: eye_closed must be 0 or 1, got {row[eye_col]!r}")
        eyes.append(eye)
    return [np.array(frames, dtype=np.int64), *map(np.array, (ts, xs, ys, dists, eyes))]


def parse_annotation_csv(stream: TextIO, dimension: str) -> AnnotationTrack:
    """Parse ``timestamp_ms,value`` rows into an :class:`AnnotationTrack`.

    The header line is optional: a first non-empty line whose first cell does
    not parse as a number is treated as a header. Any later non-numeric row
    is a :class:`SchemaError` naming its data row.
    """
    ts, values = [], []
    shift = 1  # without a header, record 0 is data row 1
    for row_no, raw in csv_rows(stream):
        if row_no == 0:
            try:
                float(raw[0])
            except ValueError:
                shift = 0
                continue  # header line
        row_no += shift
        if len(raw) < 2:
            raise SchemaError(f"data row {row_no}: expected 2 columns, got {len(raw)}")
        ts.append(_parse_float(raw[0], row_no, "timestamp_ms"))
        values.append(_parse_float(raw[1], row_no, "value"))
    return AnnotationTrack(np.array(ts), np.array(values), dimension)


def write_gaze_csv(seq: GazeSequence, stream: TextIO) -> None:
    """Write *seq* as a gaze CSV, floats as repr, a few thousand rows per write.

    No field needs quoting, so the bytes are those of csv.writer with "\n" line ends.
    """
    stream.write("frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eye_closed\n")
    columns = (seq.frame_index, seq.timestamp_ms, seq.gaze_x, seq.gaze_y, seq.screen_distance_mm,
               seq.eye_closed.view(np.uint8))
    rows_per_write = 8192
    for a in range(0, len(seq), rows_per_write):
        rows = zip(*(col[a : a + rows_per_write].tolist() for col in columns))
        stream.write("".join([f"{f},{t!r},{x!r},{y!r},{d!r},{e}\n" for f, t, x, y, d, e in rows]))


def write_annotation_csv(track: AnnotationTrack, stream: TextIO) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["timestamp_ms", "value"])
    for t, v in zip(track.timestamps_ms, track.values):
        w.writerow([repr(float(t)), repr(float(v))])


def validate_sequence(seq: GazeSequence, hop_s: float = 2.0) -> ValidationReport:
    """Summarize rate jitter, NaN counts, and duration; flag unusable sequences.

    A sequence is unusable when any inter-frame gap exceeds twice the window
    hop: a window could then fall entirely inside the gap.
    """
    gaps = np.diff(seq.timestamp_ms)
    median_gap = float(np.median(gaps))
    max_gap = float(np.max(gaps))
    jitter = max_gap / median_gap if median_gap > 0 else math.inf
    nan_count = int(
        np.sum(~np.isfinite(seq.gaze_x))
        + np.sum(~np.isfinite(seq.gaze_y))
        + np.sum(~np.isfinite(seq.screen_distance_mm))
    )
    issues = []
    usable = True
    if max_gap > 2.0 * hop_s * 1000.0:
        usable = False
        issues.append(f"max inter-frame gap {max_gap:.1f} ms exceeds 2x hop ({2 * hop_s * 1000:.0f} ms)")
    if nan_count:
        issues.append(f"{nan_count} non-finite value(s) in gaze/distance channels")
    return ValidationReport(
        n_samples=len(seq),
        duration_ms=seq.duration_ms,
        median_gap_ms=median_gap,
        max_gap_ms=max_gap,
        jitter_ratio=jitter,
        nan_count=nan_count,
        usable=usable,
        issues=tuple(issues),
    )


# --- synthesis -------------------------------------------------------------

CHANNEL_KINDS = ("constant", "ramp", "sinusoid", "noise")


@dataclass(frozen=True)
class ChannelSpec:
    """One additive component of a synthesized channel.

    kind=constant: level. kind=ramp: level + slope*t_s. kind=sinusoid:
    level + amplitude*sin(2*pi*frequency_hz*t_s + phase_rad). kind=noise:
    level + N(0, noise_std), seeded.
    """

    kind: str
    level: float = 0.0
    slope: float = 0.0
    frequency_hz: float = 0.0
    amplitude: float = 0.0
    phase_rad: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValidationError(f"channel kind must be one of {CHANNEL_KINDS}, got {self.kind!r}")
        for name in ("level", "slope", "frequency_hz", "amplitude", "phase_rad"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not (self.noise_std >= 0):
            raise ValidationError("noise_std must be >= 0")


@dataclass(frozen=True)
class SynthesisSpec:
    """Deterministic recipe for a synthetic recording.

    Each channel is the sum of its components; blink intervals are half-open
    [start_ms, end_ms) spans during which the eyes count as closed.
    """

    duration_s: float
    rate_hz: float
    gaze_x: tuple[ChannelSpec, ...] = (ChannelSpec("constant"),)
    gaze_y: tuple[ChannelSpec, ...] = (ChannelSpec("constant"),)
    distance_mm: tuple[ChannelSpec, ...] = (ChannelSpec("constant", level=600.0),)
    blinks_ms: tuple[tuple[float, float], ...] = ()
    source_id: str = "synthetic"

    def __post_init__(self):
        # Written as not (v > 0) so that NaN fails too; a finite product bounds the sample count.
        if not (self.duration_s > 0 and self.rate_hz > 0 and math.isfinite(self.duration_s * self.rate_hz)):
            raise ValidationError("duration_s and rate_hz must be positive with a finite product")
        if not all(math.isfinite(t) for blink in self.blinks_ms for t in blink):
            raise ValidationError("blink bounds must be finite")

    @classmethod
    def from_dict(cls, d: dict) -> "SynthesisSpec":
        def channel(key, default):
            specs = d.get(key)
            if specs is None:
                return default
            return tuple(ChannelSpec(c["kind"], **{k: float(v) for k, v in c.items() if k != "kind"}) for c in specs)

        return cls(
            duration_s=float(d["duration_s"]),
            rate_hz=float(d["rate_hz"]),
            gaze_x=channel("gaze_x", (ChannelSpec("constant"),)),
            gaze_y=channel("gaze_y", (ChannelSpec("constant"),)),
            distance_mm=channel("distance_mm", (ChannelSpec("constant", level=600.0),)),
            blinks_ms=tuple((float(a), float(b)) for a, b in d.get("blinks_ms", ())),
            source_id=str(d.get("source_id", "synthetic")),
        )

    @classmethod
    def from_json(cls, text: str) -> "SynthesisSpec":
        try:
            return cls.from_dict(json.loads(text))
        except (KeyError, TypeError, ValueError) as e:  # ValueError includes json.JSONDecodeError
            raise SchemaError(f"bad synthesis spec: {e}") from None


def _render_channel(components: tuple[ChannelSpec, ...], t_s: np.ndarray, seed: int, channel_idx: int) -> np.ndarray:
    out = np.zeros_like(t_s)
    for comp_idx, c in enumerate(components):
        if c.kind == "constant":
            out += c.level
        elif c.kind == "ramp":
            out += c.level + c.slope * t_s
        elif c.kind == "sinusoid":
            out += c.level + c.amplitude * np.sin(2.0 * np.pi * c.frequency_hz * t_s + c.phase_rad)
        elif c.kind == "noise":
            rng = np.random.default_rng([seed % 2**64, channel_idx, comp_idx])
            out += c.level + rng.normal(0.0, c.noise_std, size=t_s.shape)
    return out


def synthesize_sequence(spec: SynthesisSpec, seed: int) -> GazeSequence:
    """Render *spec* into a gaze sequence; bit-identical for a given (spec, seed)."""
    n = int(round(spec.duration_s * spec.rate_hz))
    if n < 2:
        raise ValidationError(f"spec yields {n} samples; at least 2 required")
    try:
        t_s = np.arange(n) / spec.rate_hz
        t_ms = t_s * 1000.0
        xs = _render_channel(spec.gaze_x, t_s, seed, 0)
        ys = _render_channel(spec.gaze_y, t_s, seed, 1)
        dist = _render_channel(spec.distance_mm, t_s, seed, 2)
        closed = np.zeros(n, dtype=bool)
        for start, end in spec.blinks_ms:
            closed |= (t_ms >= start) & (t_ms < end)
        return GazeSequence(
            frame_index=np.arange(n),
            timestamp_ms=t_ms,
            gaze_x=xs,
            gaze_y=ys,
            screen_distance_mm=dist,
            eye_closed=closed,
            source_id=spec.source_id,
        )
    except MemoryError:
        raise ValidationError(f"duration_s * rate_hz gives {n} samples, too many to allocate") from None
