"""Regenerate golden_window.json from the independent oracles.

The fixture input is a synthesized 3 s window; every one of the 31 expected
values is computed by the oracle implementations in tests/oracles.py (scipy
statistics, brute-force DFT, plain-loop episode detection), never by the
library's feature code. Run from the repo root:

    python3 tests/fixtures/gen_golden_window.py
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles
from gazecast.ingest import ChannelSpec, SynthesisSpec, synthesize_sequence

GOLDEN_SEED = 1234
GOLDEN_SPEC = SynthesisSpec(
    duration_s=3.0,
    rate_hz=30.0,
    gaze_x=(
        ChannelSpec("sinusoid", level=0.1, frequency_hz=1.0, amplitude=0.4),
        ChannelSpec("noise", noise_std=0.05),
    ),
    gaze_y=(
        ChannelSpec("ramp", level=-0.5, slope=0.3),
        ChannelSpec("noise", noise_std=0.02),
    ),
    distance_mm=(
        ChannelSpec("sinusoid", level=600.0, frequency_hz=0.4, amplitude=25.0, phase_rad=0.7),
        ChannelSpec("noise", noise_std=1.5),
    ),
    blinks_ms=((600.0, 733.4), (1500.0, 1700.0)),
)

VELOCITY_THRESHOLD = 0.5
ZONE_GRID = 3
ZONE_BOUNDS = (-1.0, 1.0, -1.0, 1.0)


def oracle_values(seq) -> dict[str, float]:
    xs, ys = seq.gaze_x, seq.gaze_y
    ts, dist, closed = seq.timestamp_ms, seq.screen_distance_mm, seq.eye_closed
    rate = seq.nominal_rate_hz
    out: dict[str, float] = {}

    ratio, avg_ms = oracles.loop_approach(dist, ts, 0.0)
    out["approach_ratio"] = ratio
    out["approach_time_avg_ms"] = avg_ms

    paths = oracles.loop_scan_paths(xs, ys, ts, VELOCITY_THRESHOLD)
    if not paths:
        out["scan_path_len_avg"], out["scan_path_len_std"] = 0.0, 0.0
    elif len(paths) == 1:
        out["scan_path_len_avg"], out["scan_path_len_std"] = paths[0], 0.0
    else:
        out["scan_path_len_avg"] = float(np.mean(paths))
        out["scan_path_len_std"] = float(np.std(paths, ddof=1))

    for prefix, coords in (("x", xs), ("y", ys)):
        mean, std, skew, iqr12, iqr23 = oracles.reference_stats(coords)
        out[f"{prefix}_mean"] = mean
        out[f"{prefix}_iqr_q1q2"] = iqr12
        out[f"{prefix}_iqr_q2q3"] = iqr23
        out[f"{prefix}_std"] = std
        out[f"{prefix}_skewness"] = skew
        bands = oracles.dft_band_psd(coords, rate, 0.011, "hz")
        for b in range(5):
            out[f"{prefix}_psd_b{b + 1}"] = float(bands[b])
        avg_std, std_std = oracles.loop_zone_stats(xs, ys, prefix, ZONE_GRID, ZONE_BOUNDS)
        out[f"{prefix}_fixzone_std_avg"] = avg_std
        out[f"{prefix}_fixzone_std_std"] = std_std

    avg, std, skew = oracles.loop_closure(closed)
    out["eye_close_count_avg"] = avg
    out["eye_close_count_std"] = std
    out["eye_close_count_skew"] = skew
    return out


def main() -> None:
    seq = synthesize_sequence(GOLDEN_SPEC, GOLDEN_SEED)
    values = oracle_values(seq)
    payload = {
        "seed": GOLDEN_SEED,
        "note": "expected values computed by tests/oracles.py, not by gazecast.features",
        "values": values,
    }
    out_path = Path(__file__).with_name("golden_window.json")
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path} ({len(values)} values)")


if __name__ == "__main__":
    main()
