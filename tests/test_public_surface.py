"""The public surface of ``gazecast``: a new or removed export shows up as a diff of this test."""

import inspect

import gazecast

PUBLIC_NAMES = {
    # errors
    "ConvergenceError", "DegenerateDataError", "GazecastError", "SchemaError", "ValidationError",
    # evaluation
    "EvaluationReport", "RankingReport", "SelectionReport", "cross_val_cc", "grid_search_c", "kfold_split",
    "pearson_cc", "rank_by_correlation", "wrapper_greedy_stepwise",
    # features
    "FeatureConfig", "approach_stats", "band_psd", "descriptive_stats", "extract_matrix", "eye_closure_stats",
    "fixation_zone_stats", "scan_path_stats",
    # ingest
    "AnnotationTrack", "ChannelSpec", "GazeSequence", "SynthesisSpec", "ValidationReport",
    "parse_annotation_csv", "parse_gaze_csv", "synthesize_sequence", "validate_sequence",
    "write_annotation_csv", "write_gaze_csv",
    # regression
    "SvrConfig", "SvrModel", "TrainingSet", "filter_zero_targets", "fit_linear_svr",
    # windowing
    "segment",
}


def test_exported_names_are_exactly_the_public_surface():
    exported = {
        name for name, value in vars(gazecast).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(PUBLIC_NAMES) == 39
    assert exported == PUBLIC_NAMES
