"""Pearson-correlation scoring, feature ranking, and wrapper subset selection.

Two feature-evaluation procedures are provided: a learner-independent
per-feature correlation ranking (signed, strongest positive first) and a
forward greedy wrapper that scores candidate subsets by k-fold
cross-validated Pearson CC of the SVR itself. Cross-validation folds where
the learner degenerates to constant predictions score the worst value (-1)
rather than erroring, and are counted in the reports.

One routine, :func:`cross_val_cc`, cross-validates: it takes a list of
column subsets (all the candidates of a wrapper step, or the one matrix of a
C-grid point) and folds drawn once by :func:`kfold_split`, and fits and
scores one subset and fold after another through fit_linear_svr, so the
first ConvergenceError is that of the first fit in (subset, fold) order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .features import FEATURE_NAMES
from .regression import SvrConfig, TrainingSet, fit_linear_svr, predict_matrix

WORST_CC = -1.0


def pearson_cc(pred, gold) -> float:
    """Product-moment correlation between two equal-length series."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(gold, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    if len(a) < 2:
        raise ValidationError("pearson_cc needs at least 2 points")
    # Constant input is checked by value: its computed variance can round to
    # a nonzero 1e-33 and would otherwise yield a garbage correlation.
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateDataError("zero-variance input to pearson_cc")
    da = a - np.mean(a)
    db = b - np.mean(b)
    ssa = float(da @ da)
    ssb = float(db @ db)
    if ssa == 0.0 or ssb == 0.0:
        raise DegenerateDataError("zero-variance input to pearson_cc")
    return float(np.clip((da @ db) / np.sqrt(ssa * ssb), -1.0, 1.0))


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle then contiguous split into k folds (sizes differ by <= 1)."""
    if k < 2:
        raise ValidationError("k must be >= 2")
    if k > n:
        raise ValidationError(f"k={k} folds exceed n={n} rows")
    perm = np.random.default_rng(seed % 2**64).permutation(n)
    return list(np.array_split(perm, k))


def cross_val_cc(
    xs: list[np.ndarray], y: np.ndarray, config: SvrConfig, folds: list[np.ndarray]
) -> list[tuple[float, list[float], int]]:
    """(mean CC, per-fold CCs, degenerate folds) of each feature matrix in *xs* over the shared *folds*.

    A fold scores its held-out Pearson CC, or WORST_CC (and is counted as
    degenerate) where the learner's predictions or the targets are constant.

    The fits run in (matrix, fold) order, so the first error raised is that
    of the first failing fit in that order. A held-out fold of fewer than 2
    rows has no CC, so such folds are refused before any fit.
    """
    n = len(y)
    if min(map(len, folds), default=2) < 2:
        raise ValidationError(f"{len(folds)} folds of {n} rows leave a held-out fold of fewer than 2 rows, "
                              f"which has no CC; at most {n // 2} folds can be scored")
    results = []
    for x in xs:
        scores: list[float] = []
        degenerate = 0
        for fold in folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            model = fit_linear_svr(x[mask], y[mask], config)
            pred = predict_matrix(model, x[fold])
            try:
                scores.append(pearson_cc(pred, y[fold]))
            except DegenerateDataError:
                scores.append(WORST_CC)
                degenerate += 1
        results.append((float(np.mean(scores)), scores, degenerate))
    return results


def grid_search_c(
    x: np.ndarray, y: np.ndarray, cs, base_config: SvrConfig, k: int, seed: int
) -> tuple[float, list[tuple[float, float]]]:
    """CV-score every candidate C; returns (best C, [(C, mean CC), ...]).

    Ties keep the earliest candidate in the given order.
    """
    configs = [replace(base_config, complexity_c=float(c)) for c in cs]  # refuses a bad C before any fit
    if not configs:
        raise ValidationError("empty complexity grid")
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    folds = kfold_split(len(y), k, seed)
    results = []
    for config in configs:
        [(mean_cc, _, _)] = cross_val_cc([x], y, config, folds)
        results.append((config.complexity_c, mean_cc))
    best_score = max(score for _, score in results)
    best_c = next(c for c, score in results if score == best_score)  # earliest wins ties
    return best_c, results


@dataclass
class RankingReport:
    """Per-feature correlation to the target, strongest positive first."""

    entries: tuple[tuple[str, float], ...]
    dimension: str

    def by_absolute(self) -> list[tuple[str, float]]:
        order = {name: i for i, name in enumerate(FEATURE_NAMES)}
        return sorted(self.entries, key=lambda e: (-abs(e[1]), order[e[0]]))


def rank_by_correlation(data: TrainingSet) -> RankingReport:
    """Signed Pearson CC of each feature against the target, sorted descending.

    Zero-variance features (those :func:`pearson_cc` calls degenerate) score 0;
    ties break by canonical feature index.
    """
    if data.n_rows < 3:
        raise ValidationError("ranking needs at least 3 rows")
    y = data.targets
    dy = y - np.mean(y)
    if np.all(y == y[0]) or float(dy @ dy) == 0.0:
        raise DegenerateDataError("target has zero variance; ranking undefined")
    ccs = []
    for col in data.features.T:
        try:
            ccs.append(pearson_cc(col, y))
        except DegenerateDataError:
            ccs.append(0.0)
    order = sorted(range(len(ccs)), key=lambda j: (-ccs[j], j))
    entries = tuple((FEATURE_NAMES[j], ccs[j]) for j in order)
    return RankingReport(entries=entries, dimension=data.dimension)


@dataclass(frozen=True)
class SelectionStep:
    feature: str
    cv_score: float
    degenerate_folds: int


@dataclass
class SelectionReport:
    """Forward-selection trace: accepted features in add order with CV scores."""

    steps: tuple[SelectionStep, ...]
    final_subset: tuple[str, ...]
    dimension: str
    folds: int
    seed: int
    min_improvement: float


def wrapper_greedy_stepwise(
    data: TrainingSet,
    svr_config: SvrConfig,
    k: int = 10,
    seed: int = 0,
    *,
    min_improvement: float = 1e-4,
    max_steps: int | None = None,
) -> SelectionReport:
    """Forward greedy wrapper selection scored by k-fold CV Pearson CC.

    Starting from the empty subset (score 0), every unselected feature is
    scored by CV of an SVR on (subset + candidate); the best candidate is
    added while it improves the running score by more than min_improvement.
    Folds are drawn once and shared by all evaluations, so the result is
    deterministic per seed and independent of candidate evaluation order.
    """
    if not np.isfinite(min_improvement):
        raise ValidationError("min_improvement must be finite")
    if not (max_steps is None or max_steps >= 1):
        raise ValidationError("max_steps must be None or >= 1")
    x, y = data.features, data.targets
    folds = kfold_split(len(y), k, seed)
    selected: list[int] = []
    steps: list[SelectionStep] = []
    current = 0.0
    while len(selected) < x.shape[1]:
        if max_steps is not None and len(steps) >= max_steps:
            break
        best_j, best_score, best_degenerate = -1, -np.inf, 0
        candidates = [j for j in range(x.shape[1]) if j not in selected]
        scored = cross_val_cc([x[:, selected + [j]] for j in candidates], y, svr_config, folds)
        for j, (score, _, degenerate) in zip(candidates, scored):
            if score > best_score:
                best_j, best_score, best_degenerate = j, score, degenerate
        if best_j < 0 or best_score <= current + min_improvement:
            break
        selected.append(best_j)
        steps.append(SelectionStep(FEATURE_NAMES[best_j], best_score, best_degenerate))
        current = best_score
    return SelectionReport(
        steps=tuple(steps),
        final_subset=tuple(FEATURE_NAMES[j] for j in selected),
        dimension=data.dimension,
        folds=k,
        seed=seed,
        min_improvement=min_improvement,
    )


@dataclass
class EvaluationReport:
    """Predictions vs gold for one dimension; cc is None when undefined."""

    dimension: str
    n_windows: int
    cc: float | None
    error: str | None = None


def evaluate_arrays(pred: np.ndarray, gold: np.ndarray, dimension: str) -> EvaluationReport:
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    try:
        return EvaluationReport(dimension=dimension, n_windows=len(gold), cc=pearson_cc(pred, gold))
    except DegenerateDataError as e:
        return EvaluationReport(dimension=dimension, n_windows=len(gold), cc=None, error=str(e))


# --- report rendering --------------------------------------------------------


def format_ranking(report: RankingReport) -> str:
    lines = [f"Per-feature correlation ranking (dimension: {report.dimension})", ""]
    lines.append(f"{'rank':>4}  {'feature':<24} {'correlation':>12}")
    for rank, (name, cc) in enumerate(report.entries, start=1):
        lines.append(f"{rank:>4}  {name:<24} {cc:>12.5f}")
    lines.append("")
    lines.append("By absolute correlation:")
    lines.append(f"{'rank':>4}  {'feature':<24} {'correlation':>12}")
    for rank, (name, cc) in enumerate(report.by_absolute(), start=1):
        lines.append(f"{rank:>4}  {name:<24} {cc:>12.5f}")
    return "\n".join(lines) + "\n"


def ranking_csv(report: RankingReport) -> str:
    lines = ["rank,feature,correlation"]
    for rank, (name, cc) in enumerate(report.entries, start=1):
        lines.append(f"{rank},{name},{cc!r}")
    return "\n".join(lines) + "\n"


def format_selection(report: SelectionReport) -> str:
    lines = [
        f"Wrapper forward selection (dimension: {report.dimension}, "
        f"{report.folds}-fold CV, seed {report.seed}, min improvement {report.min_improvement:g})",
        "",
    ]
    if not report.steps:
        lines.append("No feature improved on the empty subset.")
    else:
        lines.append(f"{'step':>4}  {'feature added':<24} {'cv_cc':>10}  {'degenerate folds':>16}")
        for i, s in enumerate(report.steps, start=1):
            lines.append(f"{i:>4}  {s.feature:<24} {s.cv_score:>10.5f}  {s.degenerate_folds:>16d}")
        lines.append("")
        lines.append(f"Selected subset ({len(report.final_subset)}): {', '.join(report.final_subset)}")
    return "\n".join(lines) + "\n"


def selection_csv(report: SelectionReport) -> str:
    lines = ["step,feature,cv_cc,degenerate_folds"]
    for i, s in enumerate(report.steps, start=1):
        lines.append(f"{i},{s.feature},{s.cv_score!r},{s.degenerate_folds}")
    return "\n".join(lines) + "\n"


def format_evaluation(report: EvaluationReport) -> str:
    lines = [f"Prediction evaluation (dimension: {report.dimension})", ""]
    lines.append(f"windows: {report.n_windows}")
    if report.cc is not None:
        lines.append(f"pearson_cc: {report.cc:.5f}")
    else:
        lines.append(f"pearson_cc: undefined ({report.error})")
    return "\n".join(lines) + "\n"


def evaluation_csv(report: EvaluationReport) -> str:
    cc = repr(report.cc) if report.cc is not None else ""
    err = report.error or ""
    return "dimension,n_windows,pearson_cc,error\n" + f"{report.dimension},{report.n_windows},{cc},{err}\n"
