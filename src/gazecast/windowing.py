"""Fixed-length overlapping windows over a sequence, joined to affect targets.

:func:`segment` gives the windows of one sequence as a single record of
index arrays (:class:`Windows`): their [start_ms, end_ms) spans and the
sample range [lo, hi) each one covers. Features are computed from that
record, and targets from its spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import AnnotationTrack, GazeSequence

DEFAULT_WINDOW_S = 3.0
DEFAULT_HOP_S = 2.0


@dataclass(frozen=True)
class Windows:
    """The windows of one sequence: spans[i] = [start_ms, end_ms) holds samples lo[i]:hi[i].

    Windows are in time order; a record holds no copy of the samples.
    """

    seq: GazeSequence
    spans: np.ndarray  # (k, 2) float
    lo: np.ndarray  # (k,) int
    hi: np.ndarray  # (k,) int

    def __len__(self) -> int:
        return len(self.lo)


def expected_window_count(duration_ms: float, window_ms: float, hop_ms: float) -> int:
    """Closed-form count: 0 if too short, else floor((duration-window)/hop)+1."""
    if duration_ms < window_ms:
        return 0
    return int(math.floor((duration_ms - window_ms) / hop_ms + 1e-9)) + 1


def segment(seq: GazeSequence, window_s: float = DEFAULT_WINDOW_S, hop_s: float = DEFAULT_HOP_S) -> Windows:
    """Cut *seq* into full windows starting at 0, hop, 2*hop, ... after its first timestamp.

    A window is emitted only if the sequence covers its whole span, where a
    sample covers one nominal frame interval; trailing partial windows are
    dropped. Raises if a gap leaves an in-span window without samples.
    """
    window_ms, hop_ms = window_s * 1000.0, hop_s * 1000.0
    if not (0 < window_ms < math.inf and 0 < hop_ms < math.inf):  # also refuses NaN
        raise ValidationError("window_s and hop_s must be positive and finite")
    count = expected_window_count(seq.duration_ms, window_ms, hop_ms)
    starts = float(seq.timestamp_ms[0]) + np.arange(count) * hop_ms
    spans = np.column_stack([starts, starts + window_ms])
    lo = np.searchsorted(seq.timestamp_ms, spans[:, 0], side="left")
    hi = np.searchsorted(seq.timestamp_ms, spans[:, 1], side="left")
    empty = np.flatnonzero(hi <= lo)
    if len(empty):
        raise ValidationError(
            f"window at {starts[empty[0]]:.1f} ms contains no samples; the sequence has a gap wider than the window"
        )
    return Windows(seq, spans, lo, hi)


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
