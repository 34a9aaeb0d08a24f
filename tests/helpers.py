"""Small builders shared across test modules."""

from __future__ import annotations

import csv
from typing import TextIO

import numpy as np

from gazecast.ingest import AnnotationTrack, GazeSequence


def make_sequence(
    n: int = 90,
    rate_hz: float = 30.0,
    xs=None,
    ys=None,
    dist=None,
    closed=None,
) -> GazeSequence:
    ts = np.arange(n) * 1000.0 / rate_hz
    return GazeSequence(
        frame_index=np.arange(n),
        timestamp_ms=ts,
        gaze_x=np.zeros(n) if xs is None else np.asarray(xs, dtype=float),
        gaze_y=np.zeros(n) if ys is None else np.asarray(ys, dtype=float),
        screen_distance_mm=np.full(n, 600.0) if dist is None else np.asarray(dist, dtype=float),
        eye_closed=np.zeros(n, dtype=bool) if closed is None else np.asarray(closed, dtype=bool),
    )


def write_annotation_csv(track: AnnotationTrack, stream: TextIO) -> None:
    """*track* as an annotation CSV: a timestamp_ms,value header, then one repr'd row per point."""
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["timestamp_ms", "value"])
    for t, v in zip(track.timestamps_ms, track.values):
        w.writerow([repr(float(t)), repr(float(v))])


def make_qp(seed: int, n: int, d: int = 3, *, ties: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Raw (x, y) of a random regression problem; with *ties*, integer values and duplicated rows."""
    rng = np.random.default_rng(seed)
    if ties:
        x = rng.integers(-2, 3, size=(n, d)).astype(float)
        y = rng.integers(-3, 4, size=n).astype(float)
        x[n // 2:], y[n // 2:] = x[: n - n // 2], y[: n - n // 2]  # duplicated rows
        return x, y
    x = rng.normal(size=(n, d))
    return x, x @ rng.normal(size=d) + rng.normal(size=n)
