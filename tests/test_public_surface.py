"""The public surface of ``gazecast``: a new or removed export shows up as a diff of this test."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import gazecast

PUBLIC_NAMES = {
    # errors
    "ConvergenceError", "DegenerateDataError", "GazecastError", "SchemaError", "ValidationError",
    # evaluation
    "EvaluationReport", "RankingReport", "SelectionReport", "cross_val_cc", "grid_search_c", "kfold_split",
    "pearson_cc", "rank_by_correlation", "wrapper_greedy_stepwise",
    # features
    "FeatureConfig", "extract_matrix",
    # ingest
    "AnnotationTrack", "ChannelSpec", "GazeSequence", "SynthesisSpec", "ValidationReport",
    "parse_annotation_csv", "parse_gaze_csv", "synthesize_sequence", "validate_sequence",
    "write_gaze_csv",
    # regression
    "SvrConfig", "SvrModel", "TrainingSet", "filter_zero_targets", "fit_linear_svr",
    # windowing
    "segment",
}


def test_exported_names_are_exactly_the_public_surface():
    exported = {
        name for name, value in vars(gazecast).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(PUBLIC_NAMES) == 32
    assert exported == PUBLIC_NAMES


def test_cli_import_loads_only_gazecast_and_the_standard_library():
    """Starting the CLI loads no third-party module beyond numpy (guards the benchmark's setup_s)."""
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import gazecast.cli\n"
        "gazecast.cli.build_parser()\n"
        "roots = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(r for r in roots if r != 'gazecast' and r not in sys.stdlib_module_names))\n"
    )
    src = str(Path(gazecast.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_function_the_benchmark_traces_exists():
    """bench/spans.py times functions by module and name; a missing one would make its metric read 0 unnoticed."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, function in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"gazecast.{module}"), function, None)), (module, function)
