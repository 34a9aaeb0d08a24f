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
    grid_search_c,
    kfold_split,
    pearson_cc,
    rank_by_correlation,
    wrapper_greedy_stepwise,
)
from .features import FeatureConfig, extract_matrix
from .ingest import (
    AnnotationTrack,
    ChannelSpec,
    GazeSequence,
    SynthesisSpec,
    ValidationReport,
    parse_annotation_csv,
    parse_gaze_csv,
    synthesize_sequence,
    validate_sequence,
    write_gaze_csv,
)
from .regression import (
    SvrConfig,
    SvrModel,
    TrainingSet,
    filter_zero_targets,
    fit_linear_svr,
)
from .windowing import segment

__version__ = "0.1.0"
