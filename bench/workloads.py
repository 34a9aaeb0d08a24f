"""The three benchmark workloads: their inputs, CLI arguments and output checks.

Each workload is one ``gazecast`` command. Its reference outputs come from
running the same arguments on the same files through ``gazecast_seed``, the
frozen copy of the program at the seed commit, so every output of the program
under test is compared with what the seed commit produced on that input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from gazecast_seed import cli as seed_cli

# Tolerance of the golden feature fixtures in tests/test_features.py.
FEATURE_REL = 1e-9
FEATURE_ABS = 1e-9
# The CLI's default solver KKT tolerance, which every benchmark command uses.
SOLVER_TOL = 1e-3
# Two fits that each stop within SOLVER_TOL of the optimum were measured to
# differ by at most 0.02 target standard deviations in prediction and 5e-4 in
# held-out CC on this data; the bounds below leave a 2.5x and 4x margin.
PRED_ATOL_PER_TOL_STD = 50.0
CC_ATOL_PER_TOL = 2.0

GRID_C = "0.0325,0.091"
SHORT_S = 300.0
LONG_S = 3600.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # True when the command's cost varies with the data, so each repetition
    # in a run gets a fresh input set and the run reports the median.
    fresh_inputs: bool
    make_inputs: Callable[[tuple[int, int], Path], dict]
    argv: Callable[[Path, Path], list[str]]
    check: Callable[[Path, Path], tuple[list[str], float | None]]
    # Tolerances derived from a reference run, saved next to its outputs.
    tolerances: Callable[[Path], dict] | None = None


def run_reference(argv: list[str]) -> None:
    """Run the seed-commit program in-process on *argv*."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = seed_cli.main(argv)
    if code != 0:
        raise RuntimeError(f"seed-commit program exited {code} on {argv}")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _numeric(rows: list[list[str]]) -> np.ndarray:
    return np.array([[float(v) for v in r] for r in rows], dtype=np.float64)


def _first_mismatch(got: np.ndarray, want: np.ndarray, header: list[str], rel: float, abs_: float) -> str | None:
    # Written as "not within" so that NaN output counts as a mismatch.
    bad = ~(np.abs(got - want) <= np.maximum(rel * np.abs(want), abs_))
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return f"row {i + 1} column {header[j]}: {float(got[i, j])!r} != reference {float(want[i, j])!r}"


def _guard(check: Callable[[Path, Path], tuple[list[str], float | None]]):
    """Turn unreadable or missing output into a reported mismatch."""

    def guarded(out: Path, ref: Path) -> tuple[list[str], float | None]:
        try:
            return check(out, ref)
        except (OSError, ValueError, IndexError, KeyError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"], None

    guarded.__doc__ = check.__doc__
    return guarded


# --- extract_long ------------------------------------------------------------


def _extract_inputs(key: tuple[int, int], d: Path) -> dict:
    rec = gen.write_recording((*key, 0), LONG_S, d / "gaze.csv", d / "arousal.csv")
    rec["windows"] = 1799
    return rec


def _extract_argv(inputs: Path, out: Path) -> list[str]:
    return ["extract", "--gaze", str(inputs / "gaze.csv"), "--out", str(out / "features.csv")]


@_guard
def check_extract(out: Path, ref: Path) -> tuple[list[str], float | None]:
    """Same header and shape; every value within the golden-fixture tolerance."""
    header, rows = _read_csv(out / "features.csv")
    ref_header, ref_rows = _read_csv(ref / "features.csv")
    if header != ref_header:
        return ["feature CSV header differs"], None
    got, want = _numeric(rows), _numeric(ref_rows)
    if got.shape != want.shape:
        return [f"feature matrix shape {got.shape} != reference {want.shape}"], None
    bad = _first_mismatch(got, want, header, FEATURE_REL, FEATURE_ABS)
    return ([bad] if bad else []), None


# --- pipeline_grid -----------------------------------------------------------


def _pipeline_inputs(key: tuple[int, int], d: Path) -> dict:
    manifest = {"train": [], "test": []}
    samples = size = 0
    for i in range(6):
        gaze, ann = f"rec{i}.csv", f"rec{i}_arousal.csv"
        rec = gen.write_recording((*key, i), SHORT_S, d / gaze, d / ann)
        samples += rec["samples"]
        size += rec["gaze_bytes"] + rec["annotation_bytes"]
        manifest["train" if i < 4 else "test"].append({"gaze": gaze, "annotations": ann})
    (d / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return {"samples": samples, "bytes": size, "windows": 6 * 149}


def _pipeline_argv(inputs: Path, out: Path) -> list[str]:
    return [
        "pipeline", "--manifest", str(inputs / "manifest.json"), "--dimension", "arousal",
        "--grid-c", GRID_C, "--folds", "10",
        "--model-out", str(out / "model.txt"),
        "--csv-out", str(out / "evaluation.csv"),
        "--predictions-out", str(out / "predictions.csv"),
    ]


def _model_fields(path: Path) -> dict[str, list[str]]:
    lines = (line.split() for line in path.read_text(encoding="utf-8").splitlines())
    return {parts[0]: parts[1:] for parts in lines if parts}


def pipeline_tolerances(ref: Path) -> dict:
    """Prediction and CC tolerances for a reference run, from SOLVER_TOL and the target's spread."""
    target_std = float(_model_fields(ref / "model.txt")["target"][1])
    return {
        "pred_atol": PRED_ATOL_PER_TOL_STD * SOLVER_TOL * target_std,
        "cc_atol": CC_ATOL_PER_TOL * SOLVER_TOL,
    }


@_guard
def check_pipeline(out: Path, ref: Path) -> tuple[list[str], float | None]:
    """Same selected C; held-out predictions and CC within the solver-derived tolerance."""
    tol = json.loads((ref / "tolerance.json").read_text(encoding="utf-8"))
    problems = []
    c = float(_model_fields(out / "model.txt")["complexity_c"][0])
    ref_c = float(_model_fields(ref / "model.txt")["complexity_c"][0])
    if c != ref_c:
        problems.append(f"selected C {c!r} != reference {ref_c!r}")
    header, rows = _read_csv(out / "predictions.csv")
    _, ref_rows = _read_csv(ref / "predictions.csv")
    got, want = _numeric(rows), _numeric(ref_rows)
    if got.shape != want.shape:
        problems.append(f"predictions shape {got.shape} != reference {want.shape}")
    else:
        bad = _first_mismatch(got[:, :2], want[:, :2], header, 0.0, 0.0)
        bad = bad or _first_mismatch(got[:, 2:], want[:, 2:], header[2:], 0.0, tol["pred_atol"])
        if bad:
            problems.append(bad)
    _, ev = _read_csv(out / "evaluation.csv")
    _, ref_ev = _read_csv(ref / "evaluation.csv")
    cc, ref_cc = float(ev[0][2]), float(ref_ev[0][2])
    if not abs(cc - ref_cc) <= tol["cc_atol"]:
        problems.append(f"held-out CC {cc!r} != reference {ref_cc!r} (atol {tol['cc_atol']:g})")
    return problems, cc


# --- select_wrapper ----------------------------------------------------------


def _select_inputs(key: tuple[int, int], d: Path) -> dict:
    rec = gen.write_recording((*key, 0), SHORT_S, d / "gaze.csv", d / "arousal.csv")
    # The wrapper reads a feature CSV; the frozen seed program makes it, so the
    # input does not depend on the program under test.
    run_reference(["extract", "--gaze", str(d / "gaze.csv"), "--out", str(d / "features.csv")])
    rec["windows"] = 149
    rec["feature_bytes"] = (d / "features.csv").stat().st_size
    return rec


def _select_argv(inputs: Path, out: Path) -> list[str]:
    return [
        "select", "--features", str(inputs / "features.csv"), "--annotations", str(inputs / "arousal.csv"),
        "--dimension", "arousal", "--max-steps", "3", "--folds", "10",
        "--csv-out", str(out / "selection.csv"),
    ]


@_guard
def check_select(out: Path, ref: Path) -> tuple[list[str], float | None]:
    """The same features selected in the same order."""
    _, rows = _read_csv(out / "selection.csv")
    _, ref_rows = _read_csv(ref / "selection.csv")
    subset, ref_subset = [r[1] for r in rows], [r[1] for r in ref_rows]
    problems = [] if subset == ref_subset else [f"selected subset {subset} != reference {ref_subset}"]
    return problems, (float(rows[-1][2]) if rows else None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extract_long",
            "one 60-min recording: features and CSV parse do nearly all the work (O(N*W) rate median); "
            "the solver does none, so a solver change should not move it",
            False, _extract_inputs, _extract_argv, check_extract,
        ),
        Workload(
            "pipeline_grid",
            "the whole user path, dominated by 21 SMO fits of ~540 rows: where C-grid warm starts, "
            "second-order selection and Gram-free fits act",
            True, _pipeline_inputs, _pipeline_argv, check_pipeline, pipeline_tolerances,
        ),
        Workload(
            "select_wrapper",
            "900 SMO fits of ~134 rows where per-call Python overhead dominates: wrapper warm starts "
            "and rank-1 Gram updates act here; no ingest or feature work",
            True, _select_inputs, _select_argv, check_select,
        ),
    )
}


def make_reference(workload: Workload, inputs: Path, ref: Path) -> None:
    """Write the seed-commit outputs for *inputs* into *ref*."""
    ref.mkdir(parents=True, exist_ok=True)
    run_reference(workload.argv(inputs, ref))
    if workload.tolerances is not None:
        (ref / "tolerance.json").write_text(json.dumps(workload.tolerances(ref)), encoding="utf-8")
