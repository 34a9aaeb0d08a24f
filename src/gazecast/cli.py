"""Command-line front end: synth, extract, train, predict, evaluate, rank, select, pipeline.

Every command is deterministic given identical inputs, flags, and seed.
Every input file is opened through one reader, so a fault in a gaze,
annotation, feature, model, spec or manifest file names that file.
Output files are written atomically (temp file + rename). Exit codes:
0 ok, 2 input schema error or a file that cannot be read or written,
3 validation failure, 4 degenerate data, 5 solver non-convergence.
Set GAZECAST_LOG=INFO (or DEBUG) for progress logs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import replace
from pathlib import Path
from typing import TextIO

import numpy as np

from . import evaluation, windowing
from .errors import GazecastError, SchemaError, ValidationError
from .features import FEATURE_NAMES, FeatureConfig, extract_matrix
from .ingest import (
    DEFAULT_CLOSURE_THRESHOLD,
    DIMENSIONS,
    SynthesisSpec,
    csv_rows,
    parse_annotation_csv,
    parse_gaze_csv,
    synthesize_sequence,
    validate_sequence,
    write_gaze_csv,
)
from .regression import (
    SvrConfig,
    TrainingSet,
    filter_zero_targets,
    fit_linear_svr,
    model_from_text,
    model_to_text,
    predict_matrix,
)

logger = logging.getLogger("gazecast")

DEFAULT_COMPLEXITY = {"valence": 0.0325, "arousal": 0.091}
FEATURE_CSV_HEADER = ["window_start_ms", "window_end_ms", *FEATURE_NAMES]


def _write_text_atomic(path: str | Path, text: str | Callable[[TextIO], object]) -> None:
    """Write *text* to a temp file unique to this call in *path*'s directory, then rename it onto *path*.

    *text* is the text, or a function that writes it to the open file.

    Concurrent writers never share a temp file, and the temp file is removed
    if the write or the rename fails. It is created like a plain open()
    would create it (mode 0o666 less the umask), which mkstemp's 0o600 is not.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as f:
                if callable(text):
                    text(f)
                else:
                    f.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as e:  # name the file the user gave, not the temp file
        raise OSError(e.errno, e.strerror, str(path)) from None


@contextlib.contextmanager
def _reading(path: str | Path) -> Iterator[TextIO]:
    """Open *path* as UTF-8 text; a GazecastError raised inside, or undecodable text, then names the file.

    The error keeps its class, and so its exit code, with "{path}: " prefixed; undecodable text is a SchemaError.
    """
    try:
        with open(path, encoding="utf-8", newline="") as f:
            yield f
    except GazecastError as e:
        raise type(e)(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: {e}") from None


def _float_csv_text(header: str, rows: np.ndarray) -> str:
    """*header* and one line per row of *rows*, each value as repr(float)."""
    lines = [header]
    lines.extend(",".join(map(repr, row)) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def feature_csv_text(spans: np.ndarray, matrix: np.ndarray) -> str:
    return _float_csv_text(",".join(FEATURE_CSV_HEADER), np.column_stack([spans, matrix]))


def read_feature_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature CSV back into (spans (k,2), features (k,31))."""
    spans, rows = [], []
    with _reading(path) as f:
        records = csv_rows(f)
        _, header = next(records, (0, None))
        if header is None:
            raise SchemaError("empty feature CSV")
        if header != FEATURE_CSV_HEADER:
            raise SchemaError("feature CSV header does not match the canonical 31-feature layout")
        for row_no, row in records:
            if len(row) != len(FEATURE_CSV_HEADER):
                raise SchemaError(f"data row {row_no}: expected {len(FEATURE_CSV_HEADER)} columns")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise SchemaError(f"data row {row_no}: unparseable numeric cell") from None
            if not all(map(math.isfinite, values)):
                raise SchemaError(f"data row {row_no}: non-finite numeric cell")
            spans.append(values[:2])
            rows.append(values[2:])
        if not rows:
            raise SchemaError("feature CSV has no data rows")
    return np.array(spans), np.array(rows)


def predictions_csv_text(spans: np.ndarray, pred: np.ndarray) -> str:
    return _float_csv_text("window_start_ms,window_end_ms,prediction", np.column_stack([spans, pred]))


# --- shared flag groups ------------------------------------------------------


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-sec", type=float, default=3.0, help="window length in seconds (default 3)")
    p.add_argument("--hop-sec", type=float, default=2.0, help="hop between window starts in seconds (default 2)")


def _add_feature_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--velocity-threshold", type=float, default=0.5,
        help="scanning-vs-fixed gaze velocity threshold, units/second (default 0.5)",
    )
    p.add_argument(
        "--approach-delta-mm", type=float, default=0.0,
        help="distance decrease needed to count a step as approaching, mm (default 0)",
    )
    p.add_argument("--zone-grid", type=int, default=3, help="fixation zone grid dimension (default 3 = 3x3)")
    p.add_argument(
        "--zone-bounds", type=str, default="-1,1,-1,1",
        help="fixation zone bounding box xmin,xmax,ymin,ymax (default -1,1,-1,1)",
    )
    p.add_argument(
        "--psd-mode", choices=["hz", "normalized"], default="hz",
        help="band edges as absolute Hz, or cycles/frame scaled by the rate (default hz)",
    )
    p.add_argument(
        "--psd-resolution-hz", type=float, default=0.011,
        help="max periodogram bin spacing after zero padding, Hz (default 0.011)",
    )
    p.add_argument(
        "--closure-threshold", type=float, default=DEFAULT_CLOSURE_THRESHOLD,
        help="eyelid_aperture at or below this counts as closed (default 0.15)",
    )


def _feature_config(args) -> FeatureConfig:
    try:
        bounds = tuple(float(v) for v in args.zone_bounds.split(","))
    except ValueError:
        raise ValidationError(f"bad --zone-bounds {args.zone_bounds!r}") from None
    if len(bounds) != 4:
        raise ValidationError("--zone-bounds needs four comma-separated numbers")
    return FeatureConfig(
        velocity_threshold=args.velocity_threshold,
        approach_delta_mm=args.approach_delta_mm,
        zone_grid=args.zone_grid,
        zone_bounds=bounds,
        psd_mode=args.psd_mode,
        psd_pad_resolution_hz=args.psd_resolution_hz,
    )


def _add_svr_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--complexity", type=float, default=None,
        help="SVR complexity C (default 0.0325 for valence, 0.091 for arousal)",
    )
    p.add_argument("--epsilon", type=float, default=0.001, help="insensitivity tube half-width (default 0.001)")
    p.add_argument("--tolerance", type=float, default=0.001, help="solver KKT tolerance (default 0.001)")
    p.add_argument("--max-passes", type=int, default=200_000, help="solver update cap (default 200000)")


def _add_drop_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--drop-zero-target", action=argparse.BooleanOptionalAction, default=None,
        help="drop rows whose target is exactly 0.0 (default: on for valence, off for arousal)",
    )


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    """The labelled feature rows that train, rank and select read."""
    p.add_argument("--features", required=True, help="feature CSV from `extract`")
    p.add_argument("--annotations", required=True, help="annotation CSV (timestamp_ms,value)")
    p.add_argument("--dimension", choices=list(DIMENSIONS), required=True)
    _add_drop_flag(p)


def _add_cv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--folds", type=int, default=10, help="CV folds (default 10)")
    p.add_argument("--seed", type=int, default=0, help="seed for CV splits (default 0)")


def _svr_config(args, dimension: str) -> SvrConfig:
    c = args.complexity if args.complexity is not None else DEFAULT_COMPLEXITY[dimension]
    return SvrConfig(complexity_c=c, epsilon=args.epsilon, tolerance=args.tolerance, max_passes=args.max_passes)


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"bad --grid-c {text!r}") from None
    if not grid:
        raise ValidationError("--grid-c needs at least one value")
    return grid


# --- ingestion helpers -------------------------------------------------------


def _extract_spans(path: str | Path, args, config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Load, check, segment and extract one gaze CSV: (spans (k, 2), features (k, 31))."""
    with _reading(path) as f:
        seq = parse_gaze_csv(f, closure_threshold=args.closure_threshold)
        report = validate_sequence(seq, hop_s=args.hop_sec)
        if not report.usable or report.nan_count:
            raise ValidationError(f"unusable sequence: {'; '.join(report.issues)}")
    windows = windowing.segment(seq, args.window_sec, args.hop_sec)
    return windows.spans, extract_matrix(windows, config)


def _targets_for(spans: np.ndarray, annotations: str | Path, dimension: str) -> np.ndarray:
    with _reading(annotations) as f:
        return windowing.targets_for_spans(spans, parse_annotation_csv(f, dimension))


def _training_set(args, x: np.ndarray, targets: np.ndarray, dimension: str) -> TrainingSet:
    """The rows to train on, less zero-target rows under --drop-zero-target (default: on for valence)."""
    data = TrainingSet(x, targets, dimension)
    drop = dimension == "valence" if args.drop_zero_target is None else args.drop_zero_target
    kept = filter_zero_targets(data) if drop else data
    logger.info("training on %d row(s) (%d zero-target row(s) dropped)", kept.n_rows, data.n_rows - kept.n_rows)
    return kept


def _load_training_set(args) -> TrainingSet:
    spans, x = read_feature_csv(args.features)
    return _training_set(args, x, _targets_for(spans, args.annotations, args.dimension), args.dimension)


# --- commands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    with _reading(args.spec) as f:
        spec = SynthesisSpec.from_json(f.read())
    seq = synthesize_sequence(spec, args.seed)
    _write_text_atomic(args.out, lambda f: write_gaze_csv(seq, f))
    logger.info("wrote %d samples to %s", len(seq), args.out)
    return 0


def cmd_extract(args) -> int:
    spans, matrix = _extract_spans(args.gaze, args, _feature_config(args))
    _write_text_atomic(args.out, feature_csv_text(spans, matrix))
    logger.info("extracted %d windows from %s", len(spans), args.gaze)
    return 0


def _train_model(args, data: TrainingSet):
    config = _svr_config(args, data.dimension)
    if args.grid_c:
        grid = _parse_grid(args.grid_c)
        best_c, results = evaluation.grid_search_c(data.features, data.targets, grid, config, args.folds, args.seed)
        for c, score in results:
            logger.info("grid C=%g -> cv_cc=%.5f", c, score)
        logger.info("grid selected C=%g", best_c)
        config = replace(config, complexity_c=best_c)
    return fit_linear_svr(data.features, data.targets, config, names=FEATURE_NAMES, dimension=data.dimension)


def cmd_train(args) -> int:
    model = _train_model(args, _load_training_set(args))
    _write_text_atomic(args.out, model_to_text(model))
    logger.info("wrote model to %s", args.out)
    return 0


def cmd_predict(args) -> int:
    with _reading(args.model) as f:
        model = model_from_text(f.read())
    spans, x = read_feature_csv(args.features)
    _write_text_atomic(args.out, predictions_csv_text(spans, predict_matrix(model, x)))
    return 0


def _write_report(args, report, text: Callable[[object], str], csv: Callable[[object], str]) -> int:
    """Print *report* as *text* renders it; under --csv-out also write it as *csv* renders it."""
    sys.stdout.write(text(report))
    if args.csv_out:
        _write_text_atomic(args.csv_out, csv(report))
    return 0


def cmd_evaluate(args) -> int:
    with _reading(args.model) as f:
        model = model_from_text(f.read())
    dimension = args.dimension or model.dimension
    if dimension not in DIMENSIONS:
        raise ValidationError("model has no dimension; pass --dimension")
    spans, x = read_feature_csv(args.features)
    gold = _targets_for(spans, args.annotations, dimension)
    report = evaluation.evaluate_arrays(predict_matrix(model, x), gold, dimension)
    return _write_report(args, report, evaluation.format_evaluation, evaluation.evaluation_csv)


def cmd_rank(args) -> int:
    report = evaluation.rank_by_correlation(_load_training_set(args))
    return _write_report(args, report, evaluation.format_ranking, evaluation.ranking_csv)


def cmd_select(args) -> int:
    data = _load_training_set(args)
    report = evaluation.wrapper_greedy_stepwise(
        data, _svr_config(args, data.dimension), k=args.folds, seed=args.seed,
        min_improvement=args.min_improvement, max_steps=args.max_steps,
    )
    return _write_report(args, report, evaluation.format_selection, evaluation.selection_csv)


def _pipeline_rows(entries, base_dir: Path, args, dimension: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    config = _feature_config(args)
    xs, targets, all_spans = [], [], []
    for entry in entries:
        gaze_path, ann_path = base_dir / entry["gaze"], base_dir / entry["annotations"]
        spans, matrix = _extract_spans(gaze_path, args, config)
        if not len(spans):
            raise ValidationError(f"{gaze_path}: recording is shorter than one {args.window_sec:g} s window")
        xs.append(matrix)
        targets.append(_targets_for(spans, ann_path, dimension))
        all_spans.append(spans)
        logger.info("pipeline: %s -> %d windows", gaze_path, len(spans))
    return np.vstack(xs), np.concatenate(targets), np.vstack(all_spans)


def _is_manifest_entry(entry) -> bool:
    return isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in ("gaze", "annotations"))


def cmd_pipeline(args) -> int:
    with _reading(args.manifest) as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"bad manifest: {e}") from None
        for key in ("train", "test"):
            entries = manifest.get(key) if isinstance(manifest, dict) else None
            if not (isinstance(entries, list) and entries and all(_is_manifest_entry(e) for e in entries)):
                raise SchemaError(f"bad manifest: {key!r} must be a non-empty list of "
                                  "objects with string 'gaze' and 'annotations' fields")
    dimension = args.dimension or manifest.get("dimension")
    if dimension not in DIMENSIONS:
        raise ValidationError("pipeline needs a dimension (flag or manifest field)")
    base = Path(args.manifest).parent

    x_train, y_train, _ = _pipeline_rows(manifest["train"], base, args, dimension)
    model = _train_model(args, _training_set(args, x_train, y_train, dimension))

    x_test, y_test, test_spans = _pipeline_rows(manifest["test"], base, args, dimension)
    pred = predict_matrix(model, x_test)
    report = evaluation.evaluate_arrays(pred, y_test, dimension)
    sys.stdout.write(evaluation.format_evaluation(report))
    if args.model_out:
        _write_text_atomic(args.model_out, model_to_text(model))
    if args.csv_out:
        _write_text_atomic(args.csv_out, evaluation.evaluation_csv(report))
    if args.predictions_out:
        _write_text_atomic(args.predictions_out, predictions_csv_text(test_spans, pred))
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazecast",
        description="Continuous valence/arousal prediction from eye-gaze time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a deterministic synthetic gaze CSV from a JSON spec")
    p.add_argument("--spec", required=True, help="synthesis spec JSON file")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output gaze CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="window a gaze CSV and emit the 31-feature CSV")
    p.add_argument("--gaze", required=True, help="input gaze CSV")
    p.add_argument("--out", required=True, help="output feature CSV path")
    _add_window_flags(p)
    _add_feature_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train an epsilon-SVR from a feature CSV and an annotation CSV")
    _add_training_flags(p)
    p.add_argument("--out", required=True, help="output model file path")
    _add_svr_flags(p)
    p.add_argument("--grid-c", default=None, help="comma-separated C grid; picks the CV-best (e.g. 0.01,0.1,1)")
    _add_cv_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a model to a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="Pearson CC of model predictions against annotations")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--dimension", choices=list(DIMENSIONS), default=None, help="default: the model's dimension")
    p.add_argument("--csv-out", default=None, help="also write the report as CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="per-feature correlation ranking against the target")
    _add_training_flags(p)
    p.add_argument("--csv-out", default=None, help="also write the report as CSV")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("select", help="forward greedy wrapper feature selection with k-fold CV")
    _add_training_flags(p)
    _add_svr_flags(p)
    _add_cv_flags(p)
    p.add_argument("--min-improvement", type=float, default=1e-4, help="minimum CV gain to add a feature (default 1e-4)")
    p.add_argument("--max-steps", type=int, default=None, help="stop after this many accepted features")
    p.add_argument("--csv-out", default=None, help="also write the report as CSV")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("pipeline", help="extract -> train -> evaluate over a train/test split manifest")
    p.add_argument("--manifest", required=True, help='JSON: {"train": [{"gaze", "annotations"}...], "test": [...]}')
    p.add_argument("--dimension", choices=list(DIMENSIONS), default=None, help="overrides the manifest field")
    _add_window_flags(p)
    _add_feature_flags(p)
    _add_svr_flags(p)
    _add_drop_flag(p)
    p.add_argument("--grid-c", default=None, help="comma-separated C grid; picks the CV-best (e.g. 0.01,0.1,1)")
    _add_cv_flags(p)
    p.add_argument("--model-out", default=None, help="also save the trained model")
    p.add_argument("--csv-out", default=None, help="also write the evaluation report as CSV")
    p.add_argument("--predictions-out", default=None, help="also write held-out predictions as CSV")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("GAZECAST_LOG", "WARNING").upper()
    if level not in ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG"):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GazecastError, OSError) as e:
        print(f"gazecast: error: {e}", file=sys.stderr)
        return e.exit_code if isinstance(e, GazecastError) else SchemaError.exit_code


if __name__ == "__main__":
    sys.exit(main())
