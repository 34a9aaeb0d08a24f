"""Continuous valence/arousal prediction from eye-gaze time series."""

from .errors import (
    ConvergenceError,
    DegenerateDataError,
    GazecastError,
    SchemaError,
    ValidationError,
)
from .evaluation import (
    EvaluationReport,
    RankingReport,
    SelectionReport,
    cross_val_cc,
    evaluate_predictions,
    grid_search_c,
    kfold_split,
    pearson_cc,
    rank_by_correlation,
    wrapper_greedy_stepwise,
)
from .features import (
    FeatureConfig,
    FeatureVector,
    approach_stats,
    band_psd,
    descriptive_stats,
    extract,
    extract_matrix,
    eye_closure_stats,
    feature_names,
    fixation_zone_stats,
    periodogram,
    scan_path_stats,
)
from .ingest import (
    AnnotationTrack,
    ChannelSpec,
    GazeSample,
    GazeSequence,
    SynthesisSpec,
    ValidationReport,
    parse_annotation_csv,
    parse_gaze_csv,
    synthesize_sequence,
    validate_sequence,
    write_annotation_csv,
    write_gaze_csv,
)
from .regression import (
    SvrConfig,
    SvrModel,
    TrainingSet,
    filter_zero_targets,
    fit_linear_svr,
    kkt_violations,
    load_model,
    save_model,
    standardize_fit,
    svr_fit,
    svr_predict,
)
from .windowing import LabeledWindow, Window, align_annotations, segment

__version__ = "0.1.0"
