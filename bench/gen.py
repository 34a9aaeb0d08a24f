"""Seeded synthetic gaze recordings with a learnable arousal signal.

A smooth latent arousal curve a(t) in [-0.9, 0.9] drives four channels:

* fixation dispersion: gaze jitter around each fixation centre grows with a;
* saccade rate: fixations get shorter (more saccades) as a rises;
* screen distance: the viewer leans in as a rises;
* blink rate and length: blinks get more frequent and longer as a rises.

The annotation track is a(t) plus rater noise, sampled at 4 Hz from 0 ms to
past the end of the recording, so it covers the last window. Random targets
would give near-zero correlation and unrepresentative solver iteration
counts; this signal makes the SVR learn something real.

The files are written by the frozen seed-commit copy of the public
``write_gaze_csv`` / ``write_annotation_csv``, so the inputs depend only on
the seed, never on the program under test.
"""

from __future__ import annotations

import numpy as np

from gazecast_seed.ingest import AnnotationTrack, GazeSequence, write_annotation_csv, write_gaze_csv

RATE_HZ = 30.0
ANNOTATION_HZ = 4.0
# The annotation track runs this far past the last sample.
ANNOTATION_TAIL_S = 4.0
LATENT_PERIODS_S = np.array([23.0, 41.0, 67.0, 109.0, 173.0])


def _latent_raw(phases: np.ndarray, t_s: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * t_s[:, None] / LATENT_PERIODS_S + phases).sum(axis=1)


def make_recording(key: tuple[int, ...], duration_s: float) -> tuple[GazeSequence, AnnotationTrack]:
    """The recording named by *key* (seed, input set, recording): 30 Hz gaze plus its arousal track."""
    rng = np.random.default_rng(list(key))
    n = int(round(duration_s * RATE_HZ))
    t_s = np.arange(n) / RATE_HZ
    t_ann = np.arange(0.0, duration_s + ANNOTATION_TAIL_S, 1.0 / ANNOTATION_HZ)
    # Fixed periods, seeded phases and a fixed spread (std 0.4 over the
    # recording) give every recording the same range of arousal.
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(LATENT_PERIODS_S))
    raw = _latent_raw(phases, t_s)
    mu, sd = np.mean(raw), np.std(raw)
    a = np.clip(0.4 * (raw - mu) / sd, -0.9, 0.9)
    a_ann = np.clip(0.4 * (_latent_raw(phases, t_ann) - mu) / sd, -0.9, 0.9)

    # Fixations: durations shrink as arousal rises, so saccades get more frequent.
    starts = [0.0]
    while starts[-1] < duration_s:
        a_now = a[min(int(starts[-1] * RATE_HZ), n - 1)]
        starts.append(starts[-1] + rng.gamma(4.0, 0.1 * np.exp(-0.8 * a_now)))
    fix = np.searchsorted(np.array(starts), t_s, side="right") - 1
    centres = np.clip(rng.normal(0.0, 0.45, size=(len(starts), 2)), -1.0, 1.0)
    spread = 0.004 * np.exp(0.9 * a)
    xs = centres[fix, 0] + rng.normal(0.0, 1.0, size=n) * spread
    ys = centres[fix, 1] + rng.normal(0.0, 1.0, size=n) * spread

    drift = np.cumsum(rng.normal(0.0, 0.05, size=n))
    dist = 600.0 - 40.0 * a + drift - np.mean(drift) + rng.normal(0.0, 0.8, size=n)

    # Blinks: a Bernoulli onset per frame, 100-300 ms long, both rising with arousal.
    closed = np.zeros(n, dtype=bool)
    onsets = np.flatnonzero(rng.random(n) < 0.25 * np.exp(0.9 * a) / RATE_HZ)
    for i in onsets:
        frames = int(round(RATE_HZ * 0.1 * (2.0 + a[i] + rng.uniform(-0.5, 0.5))))
        closed[i : i + max(frames, 1)] = True

    seq = GazeSequence(
        frame_index=np.arange(n),
        timestamp_ms=t_s * 1000.0,
        gaze_x=xs,
        gaze_y=ys,
        screen_distance_mm=dist,
        eye_closed=closed,
        source_id="bench-" + "-".join(map(str, key)),
    )
    values = np.clip(a_ann + rng.normal(0.0, 0.05, size=len(t_ann)), -1.0, 1.0)
    track = AnnotationTrack(t_ann * 1000.0, values, "arousal")
    return seq, track


def write_recording(key: tuple[int, ...], duration_s: float, gaze_path, annotation_path) -> dict:
    """Write one recording's gaze and annotation CSVs; returns its sample and byte counts."""
    seq, track = make_recording(key, duration_s)
    with open(gaze_path, "w", encoding="utf-8", newline="") as f:
        write_gaze_csv(seq, f)
    with open(annotation_path, "w", encoding="utf-8", newline="") as f:
        write_annotation_csv(track, f)
    return {
        "samples": len(seq),
        "gaze_bytes": gaze_path.stat().st_size,
        "annotation_bytes": annotation_path.stat().st_size,
    }
