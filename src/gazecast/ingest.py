"""Parsing, validation, and synthesis of frame-wise gaze recordings.

A recording is a sequence of gaze samples (normalized screen coordinates,
eye-to-screen distance in mm, eyelid state) with strictly increasing
timestamps. Affect annotations are sparse (timestamp, value) tracks with
values in [-1, 1]. Gaze coordinates and distances may be NaN on tracker
dropout; :func:`validate_sequence` reports those and feature extraction
refuses windows containing them.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .errors import SchemaError, ValidationError

GAZE_COLUMNS = ("frame", "timestamp_ms", "gaze_x", "gaze_y", "screen_distance_mm")
DIMENSIONS = ("arousal", "valence")
DEFAULT_CLOSURE_THRESHOLD = 0.15


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
            raise ValidationError("a gaze sequence needs at least 2 samples")
        for name in ("frame_index", "gaze_x", "gaze_y", "screen_distance_mm", "eye_closed"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"column {name} has {len(getattr(self, name))} rows, expected {n}")
        if not np.all(np.isfinite(self.timestamp_ms)):
            raise ValidationError("timestamps must be finite")
        if np.any(np.diff(self.timestamp_ms) <= 0):
            bad = int(np.flatnonzero(np.diff(self.timestamp_ms) <= 0)[0]) + 2
            raise ValidationError(f"data row {bad}: timestamp_ms not strictly increasing")
        if np.any(self.frame_index < 0):
            raise ValidationError("frame indices must be non-negative")
        dist = self.screen_distance_mm
        if np.any(dist[np.isfinite(dist)] <= 0):
            raise ValidationError("screen_distance_mm must be > 0 where present")

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
        if self.dimension not in DIMENSIONS:
            raise ValidationError(f"dimension must be one of {DIMENSIONS}, got {self.dimension!r}")
        if len(self.timestamps_ms) == 0:
            raise SchemaError("annotation track has no points")
        if len(self.values) != len(self.timestamps_ms):
            raise ValidationError("annotation timestamp/value lengths differ")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("annotation values must be finite")
        if np.any(self.values < -1.0) or np.any(self.values > 1.0):
            bad = int(np.flatnonzero((self.values < -1.0) | (self.values > 1.0))[0]) + 1
            raise ValidationError(f"data row {bad}: annotation value outside [-1, 1]")
        if len(self.timestamps_ms) > 1 and np.any(np.diff(self.timestamps_ms) <= 0):
            bad = int(np.flatnonzero(np.diff(self.timestamps_ms) <= 0)[0]) + 2
            raise ValidationError(f"data row {bad}: annotation timestamps not strictly increasing")

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


def csv_rows(stream: TextIO) -> Iterator[tuple[int, list[str]]]:
    """Yield (row, cells) for each CSV record of *stream*, numbered from 0.

    With a header record first, a record's number is its 1-based data row.
    Text the csv module cannot read (a field over its size limit, a bare
    carriage return inside a field) and undecodable bytes become a
    SchemaError naming the line.
    """
    reader = csv.reader(stream)
    try:
        yield from enumerate(reader)
    except csv.Error as e:
        raise SchemaError(f"line {reader.line_num}: unreadable CSV: {e}") from None
    except UnicodeDecodeError as e:
        # A text stream decodes its next chunk only when the text it holds has
        # no line break left, so the failed chunk starts inside the next line.
        line = reader.line_num + 1 + len(re.findall(rb"\r\n?|\n", e.object[: e.start]))
        raise SchemaError(f"line {line}: text is not {e.encoding}: {e.reason}") from None


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
    rows = csv_rows(stream)
    _, header = next(rows, (0, None))
    if header is None:
        raise SchemaError("gaze CSV is empty (header row required)")
    header = [h.strip() for h in header]
    col = {name: idx for idx, name in enumerate(header)}
    missing = [c for c in GAZE_COLUMNS if c not in col]
    if missing:
        raise SchemaError(f"gaze CSV missing required column(s): {', '.join(missing)}")
    if "eye_closed" in col:
        eye_col, eye_mode = col["eye_closed"], "closed"
    elif "eyelid_aperture" in col:
        eye_col, eye_mode = col["eyelid_aperture"], "aperture"
    else:
        raise SchemaError("gaze CSV missing required column(s): eye_closed (or eyelid_aperture)")

    frames, ts, xs, ys, dists, closed = [], [], [], [], [], []
    width = max(col[c] for c in GAZE_COLUMNS) + 1
    width = max(width, eye_col + 1)
    for row_no, row in rows:
        if not row:
            continue
        if len(row) < width:
            raise SchemaError(f"data row {row_no}: expected at least {width} columns, got {len(row)}")
        frames.append(_parse_frame(row[col["frame"]], row_no))
        t = _parse_float(row[col["timestamp_ms"]], row_no, "timestamp_ms")
        if ts and t <= ts[-1]:
            raise ValidationError(f"data row {row_no}: timestamp_ms not strictly increasing")
        ts.append(t)
        xs.append(_parse_float(row[col["gaze_x"]], row_no, "gaze_x"))
        ys.append(_parse_float(row[col["gaze_y"]], row_no, "gaze_y"))
        dists.append(_parse_float(row[col["screen_distance_mm"]], row_no, "screen_distance_mm"))
        if eye_mode == "closed":
            v = _parse_float(row[eye_col], row_no, "eye_closed")
            if v not in (0.0, 1.0):
                raise SchemaError(f"data row {row_no}: eye_closed must be 0 or 1, got {row[eye_col]!r}")
            closed.append(bool(v))
        else:
            ap = _parse_float(row[eye_col], row_no, "eyelid_aperture")
            if not math.isnan(ap) and ap < 0:
                raise ValidationError(f"data row {row_no}: eyelid_aperture must be >= 0")
            closed.append(ap <= closure_threshold)
    if len(ts) < 2:
        raise ValidationError(f"gaze CSV has {len(ts)} data row(s); at least 2 required")
    return GazeSequence(
        frame_index=np.array(frames),
        timestamp_ms=np.array(ts),
        gaze_x=np.array(xs),
        gaze_y=np.array(ys),
        screen_distance_mm=np.array(dists),
        eye_closed=np.array(closed),
        source_id=source_id,
    )


def parse_annotation_csv(stream: TextIO, dimension: str) -> AnnotationTrack:
    """Parse ``timestamp_ms,value`` rows into an :class:`AnnotationTrack`.

    The header line is optional: a first non-empty line whose first cell does
    not parse as a number is treated as a header. Any later non-numeric row
    is a :class:`SchemaError` naming its data row.
    """
    ts, values = [], []
    row_no = 0
    first_line = True
    for _, raw in csv_rows(stream):
        if not raw:
            continue
        if first_line:
            first_line = False
            try:
                float(raw[0])
            except ValueError:
                continue  # header line
        row_no += 1
        if len(raw) < 2:
            raise SchemaError(f"data row {row_no}: expected 2 columns, got {len(raw)}")
        t = _parse_float(raw[0], row_no, "timestamp_ms")
        v = _parse_float(raw[1], row_no, "value")
        if not (-1.0 <= v <= 1.0):
            raise ValidationError(f"data row {row_no}: annotation value {v} outside [-1, 1]")
        if ts and t <= ts[-1]:
            raise ValidationError(f"data row {row_no}: annotation timestamps not strictly increasing")
        ts.append(t)
        values.append(v)
    if not ts:
        raise SchemaError("annotation CSV has no data rows")
    return AnnotationTrack(np.array(ts), np.array(values), dimension)


def write_gaze_csv(seq: GazeSequence, stream: TextIO) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["frame", "timestamp_ms", "gaze_x", "gaze_y", "screen_distance_mm", "eye_closed"])
    for i in range(len(seq)):
        w.writerow(
            [
                int(seq.frame_index[i]),
                repr(float(seq.timestamp_ms[i])),
                repr(float(seq.gaze_x[i])),
                repr(float(seq.gaze_y[i])),
                repr(float(seq.screen_distance_mm[i])),
                int(seq.eye_closed[i]),
            ]
        )


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

    @classmethod
    def from_dict(cls, d: dict) -> "SynthesisSpec":
        def channel(key, default):
            specs = d.get(key)
            if specs is None:
                return default
            return tuple(ChannelSpec(**c) for c in specs)

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
        except (json.JSONDecodeError, KeyError, TypeError) as e:
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
    if spec.duration_s <= 0 or spec.rate_hz <= 0:
        raise ValidationError("duration_s and rate_hz must be positive")
    n = int(round(spec.duration_s * spec.rate_hz))
    if n < 2:
        raise ValidationError(f"spec yields {n} samples; at least 2 required")
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
