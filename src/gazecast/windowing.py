"""Fixed-length overlapping windows over a sequence, joined to affect targets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import AnnotationTrack, GazeSequence

DEFAULT_WINDOW_S = 3.0
DEFAULT_HOP_S = 2.0


@dataclass(frozen=True)
class Window:
    """A [start_ms, end_ms) slice of a parent sequence (no copying)."""

    seq: GazeSequence
    start_ms: float
    end_ms: float
    lo: int
    hi: int

    @property
    def n_samples(self) -> int:
        return self.hi - self.lo

    @property
    def timestamps_ms(self) -> np.ndarray:
        return self.seq.timestamp_ms[self.lo : self.hi]

    @property
    def xs(self) -> np.ndarray:
        return self.seq.gaze_x[self.lo : self.hi]

    @property
    def ys(self) -> np.ndarray:
        return self.seq.gaze_y[self.lo : self.hi]

    @property
    def distances_mm(self) -> np.ndarray:
        return self.seq.screen_distance_mm[self.lo : self.hi]

    @property
    def closed(self) -> np.ndarray:
        return self.seq.eye_closed[self.lo : self.hi]


@dataclass(frozen=True)
class LabeledWindow:
    """A window paired with one affect target value in [-1, 1]."""

    window: Window
    target: float
    dimension: str

    def __post_init__(self):
        if not math.isfinite(self.target) or not (-1.0 <= self.target <= 1.0):
            raise ValidationError(f"window target {self.target} outside [-1, 1]")


def expected_window_count(duration_ms: float, window_ms: float, hop_ms: float) -> int:
    """Closed-form count: 0 if too short, else floor((duration-window)/hop)+1."""
    if duration_ms < window_ms:
        return 0
    return int(math.floor((duration_ms - window_ms) / hop_ms + 1e-9)) + 1


def segment(seq: GazeSequence, window_s: float = DEFAULT_WINDOW_S, hop_s: float = DEFAULT_HOP_S) -> list[Window]:
    """Cut *seq* into full windows starting at 0, hop, 2*hop, ... after its first timestamp.

    A window is emitted only if the sequence covers its whole span, where a
    sample covers one nominal frame interval; trailing partial windows are
    dropped. Raises if a gap leaves an in-span window without samples.
    """
    if window_s <= 0 or hop_s <= 0:
        raise ValidationError("window_s and hop_s must be positive")
    window_ms = window_s * 1000.0
    hop_ms = hop_s * 1000.0
    first = float(seq.timestamp_ms[0])
    count = expected_window_count(seq.duration_ms, window_ms, hop_ms)
    windows = []
    for k in range(count):
        start = first + k * hop_ms
        end = start + window_ms
        lo, hi = np.searchsorted(seq.timestamp_ms, [start, end], side="left")
        if hi <= lo:
            raise ValidationError(
                f"window at {start:.1f} ms contains no samples; the sequence has a gap wider than the window"
            )
        windows.append(Window(seq=seq, start_ms=start, end_ms=end, lo=int(lo), hi=int(hi)))
    return windows


def targets_for_spans(spans: np.ndarray, track: AnnotationTrack) -> np.ndarray:
    """One target per [start_ms, end_ms) span: mean of in-span annotation points.

    Spans without points fall back to the last value at or before their
    start (or the earliest point if none precedes it). Coverage rule: the
    track's last point must lie at or after the start of the span that ends
    last, so the final window is annotated; a point-sampled track need not
    reach that span's end.
    """
    spans = np.asarray(spans, dtype=np.float64)
    if spans.ndim != 2 or spans.shape[1] != 2 or len(spans) == 0:
        raise ValidationError("spans must be a non-empty (k, 2) array of [start_ms, end_ms)")
    final_start = float(spans[int(np.argmax(spans[:, 1])), 0])
    ts = track.timestamps_ms
    if ts[-1] < final_start:
        raise ValidationError(
            f"annotation track ends at {ts[-1]:.1f} ms, before the final window starting at {final_start:.1f} ms"
        )
    targets = np.empty(len(spans))
    for i, (start, end) in enumerate(spans):
        lo, hi = np.searchsorted(ts, [start, end], side="left")
        if hi > lo:
            targets[i] = float(np.mean(track.values[lo:hi]))
        else:
            j = np.searchsorted(ts, start, side="right") - 1
            targets[i] = float(track.values[max(j, 0)])
    return targets


def align_annotations(windows: list[Window], track: AnnotationTrack) -> list[LabeledWindow]:
    """Pair each window with one target from *track* (see :func:`targets_for_spans`)."""
    if not windows:
        raise ValidationError("no windows to align")
    spans = np.array([[w.start_ms, w.end_ms] for w in windows])
    targets = targets_for_spans(spans, track)
    return [LabeledWindow(window=w, target=float(t), dimension=track.dimension) for w, t in zip(windows, targets)]
