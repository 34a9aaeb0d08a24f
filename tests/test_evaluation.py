import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast import evaluation
from gazecast.errors import ConvergenceError, DegenerateDataError, ValidationError
from gazecast.evaluation import (
    WORST_CC,
    SelectionReport,
    SelectionStep,
    cross_val_cc,
    evaluate_arrays,
    evaluation_csv,
    format_evaluation,
    format_ranking,
    format_selection,
    grid_search_c,
    kfold_split,
    pearson_cc,
    rank_by_correlation,
    ranking_csv,
    selection_csv,
    wrapper_greedy_stepwise,
)
from gazecast.features import FEATURE_NAMES, N_FEATURES, extract_matrix
from gazecast.regression import SvrConfig, SvrModel, TrainingSet, predict_matrix
from gazecast.windowing import segment

from helpers import make_sequence
from oracles import pearson_oracle


class TestPearson:
    def test_identical_lists(self):
        x = [0.2, -0.4, 0.9, 0.1]
        assert pearson_cc(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negated(self):
        x = np.array([0.2, -0.4, 0.9, 0.1])
        assert pearson_cc(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert pearson_cc([1, -1, 1, -1], [1, 1, -1, -1]) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson_cc([1, 2], [1, 2, 3])

    def test_zero_variance_is_reported(self):
        with pytest.raises(DegenerateDataError):
            pearson_cc([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
        with pytest.raises(DegenerateDataError):
            pearson_cc([0.1, 0.2, 0.3], [2.0, 2.0, 2.0])

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=60)
    def test_matches_numpy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=20), rng.normal(size=20)
        assert pearson_cc(a, b) == pytest.approx(pearson_oracle(a, b), rel=1e-10, abs=1e-12)

    @given(
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=60)
    def test_symmetry_and_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=15), rng.normal(size=15)
        cc = pearson_cc(a, b)
        assert pearson_cc(b, a) == pytest.approx(cc, abs=1e-12)
        assert pearson_cc(scale * a + shift, b) == pytest.approx(cc, rel=1e-9, abs=1e-9)
        assert pearson_cc(-a, b) == pytest.approx(-cc, abs=1e-12)


class TestKfold:
    def test_singleton_folds(self):
        folds = kfold_split(10, 10, seed=0)
        assert len(folds) == 10
        assert all(len(f) == 1 for f in folds)

    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=2, max_value=20), st.integers())
    @settings(max_examples=80)
    def test_partition_property(self, n, k, seed):
        if k > n:
            with pytest.raises(ValidationError):
                kfold_split(n, k, seed)
            return
        folds = kfold_split(n, k, seed)
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(n))

    def test_deterministic(self):
        a = kfold_split(37, 5, seed=9)
        b = kfold_split(37, 5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = kfold_split(37, 5, seed=10)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_k_below_two(self):
        with pytest.raises(ValidationError):
            kfold_split(10, 1, seed=0)


def signal_training_set(seed=0, n=60, signal_col=1, noise=0.05, dimension="arousal") -> TrainingSet:
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 31))
    targets = np.clip(0.5 * features[:, signal_col] + rng.normal(0, noise, n), -0.99, 0.99)
    return TrainingSet(features, targets, dimension)


class TestRanking:
    def test_perfect_correlate_first(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(40, 31))
        targets = np.clip(features[:, 7] * 0.3, -1, 1)
        report = rank_by_correlation(TrainingSet(features, targets, "valence"))
        assert report.entries[0][0] == FEATURE_NAMES[7]
        assert report.entries[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_perfect_anticorrelate_last(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(40, 31))
        targets = np.clip(-features[:, 7] * 0.3, -1, 1)
        report = rank_by_correlation(TrainingSet(features, targets, "valence"))
        assert report.entries[-1][0] == FEATURE_NAMES[7]
        assert report.entries[-1][1] == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_full_ordering_matches_oracle(self, seed):
        data = signal_training_set(seed=seed)
        report = rank_by_correlation(data)
        ccs = [pearson_oracle(data.features[:, j], data.targets) for j in range(31)]
        expected = [FEATURE_NAMES[j] for j in sorted(range(31), key=lambda j: (-ccs[j], j))]
        assert [name for name, _ in report.entries] == expected
        got = dict(report.entries)
        for j, cc in enumerate(ccs):
            assert got[FEATURE_NAMES[j]] == pytest.approx(cc, rel=1e-9, abs=1e-12)

    def test_zero_variance_feature_scores_zero(self):
        data = signal_training_set(seed=3)
        features = data.features.copy()
        features[:, 12] = 0.77
        report = rank_by_correlation(TrainingSet(features, data.targets, "arousal"))
        assert dict(report.entries)[FEATURE_NAMES[12]] == 0.0

    def test_degenerate_target(self):
        rng = np.random.default_rng(4)
        data = TrainingSet(rng.normal(size=(10, 31)), np.full(10, 0.5), "valence")
        with pytest.raises(DegenerateDataError):
            rank_by_correlation(data)

    def test_needs_three_rows(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValidationError):
            rank_by_correlation(TrainingSet(rng.normal(size=(2, 31)), np.array([0.1, 0.2]), "valence"))

    def test_ordering_invariant_under_positive_affine_rescale(self):
        data = signal_training_set(seed=6)
        report_a = rank_by_correlation(data)
        features = data.features.copy()
        features[:, 4] = 2.3 * features[:, 4] + 0.5
        features[:, 20] = 0.1 * features[:, 20] - 3.0
        report_b = rank_by_correlation(TrainingSet(features, data.targets, data.dimension))
        assert [n for n, _ in report_a.entries] == [n for n, _ in report_b.entries]

    def test_by_absolute_view(self):
        data = signal_training_set(seed=7)
        report = rank_by_correlation(data)
        abs_ccs = [abs(cc) for _, cc in report.by_absolute()]
        assert abs_ccs == sorted(abs_ccs, reverse=True)
        assert sorted(n for n, _ in report.by_absolute()) == sorted(FEATURE_NAMES)


class TestCrossVal:
    def test_degenerate_folds_score_worst(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 3))
        y = np.full(20, 0.3)  # constant target -> constant predictions everywhere
        [(mean_cc, scores, degenerate)] = cross_val_cc([x], y, SvrConfig(complexity_c=1.0), kfold_split(20, 4, 0))
        assert degenerate == 4
        assert scores == [-1.0] * 4
        assert mean_cc == -1.0

    @pytest.mark.parametrize("n, k", [(14, 10), (15, 8), (5, 3)])
    def test_single_row_folds_are_refused_before_any_fit(self, monkeypatch, n, k):
        x, y = np.random.default_rng(n).normal(size=(n, 3)), np.arange(n, dtype=float)
        counter = _CountFits(monkeypatch)
        with pytest.raises(ValidationError, match=rf"^{k} folds of {n} rows .* at most {n // 2} folds can be scored$"):
            cross_val_cc([x], y, SvrConfig(complexity_c=1.0), kfold_split(n, k, 0))
        assert counter.calls == 0
        [(_, scores, _)] = cross_val_cc([x], y, SvrConfig(complexity_c=1.0), kfold_split(n, n // 2, 0))
        assert len(scores) == n // 2

    def test_grid_search_picks_cv_best(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.0, -0.5, 0.25]) + rng.normal(0, 0.4, 40)
        base = SvrConfig(complexity_c=1.0)
        grid = [0.001, 0.1, 10.0]
        best, results = grid_search_c(x, y, grid, base, k=5, seed=3)
        assert [c for c, _ in results] == grid
        for c, score in results:
            cfg = SvrConfig(complexity_c=c)
            [(expected, _, _)] = cross_val_cc([x], y, cfg, kfold_split(40, 5, 3))
            assert score == expected
        assert best == max(results, key=lambda t: t[1])[0]


# --- cross_val_cc against a loop over subsets and folds -------------------------


def _sequential_cv(x, y, config, folds):
    n = len(y)
    scores, degenerate = [], 0
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        model = evaluation.fit_linear_svr(x[mask], y[mask], config)
        pred = predict_matrix(model, x[fold])
        try:
            scores.append(pearson_cc(pred, y[fold]))
        except DegenerateDataError:
            scores.append(WORST_CC)
            degenerate += 1
    return float(np.mean(scores)), scores, degenerate


def _sequential_wrapper(data, config, k, seed, min_improvement=1e-4, max_steps=None):
    x, y = data.features, data.targets
    folds = kfold_split(len(y), k, seed)
    selected, steps, current = [], [], 0.0
    while len(selected) < x.shape[1]:
        if max_steps is not None and len(steps) >= max_steps:
            break
        best_j, best_score, best_degenerate = -1, -np.inf, 0
        for j in range(x.shape[1]):
            if j in selected:
                continue
            score, _, degenerate = _sequential_cv(x[:, selected + [j]], y, config, folds)
            if score > best_score:
                best_j, best_score, best_degenerate = j, score, degenerate
        if best_j < 0 or best_score <= current + min_improvement:
            break
        selected.append(best_j)
        steps.append(SelectionStep(FEATURE_NAMES[best_j], best_score, best_degenerate))
        current = best_score
    return SelectionReport(tuple(steps), tuple(FEATURE_NAMES[j] for j in selected), data.dimension,
                           k, seed, min_improvement)


def _training_set(seed: int, n: int = 47) -> TrainingSet:
    """31 features, four of them constant (their folds score WORST_CC), one a copy of another."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, N_FEATURES))
    x[:, [2, 9, 17, 30]] = 1.5
    x[:, 12] = x[:, 4]
    y = np.tanh(x[:, 0] - 0.5 * x[:, 4] + 0.3 * x[:, 7] + 0.4 * rng.normal(size=n))
    return TrainingSet(x, y, "arousal")


class _CountFits:
    """Counts the fits made through evaluation.fit_linear_svr, as a tracer does."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = evaluation.fit_linear_svr

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_linear_svr", counted)


class TestCrossValOrder:
    """cross_val_cc fits and scores in (subset, fold) order: it gives a loop over subsets and folds bit for bit."""

    def test_scores_match_a_loop_over_subsets_and_folds(self, monkeypatch):
        data = _training_set(1)
        x, y = data.features, data.targets
        folds = kfold_split(len(y), 10, 0)
        config = SvrConfig(complexity_c=0.5, epsilon=0.0)
        subsets = [[j] for j in range(N_FEATURES)] + [[0, j] for j in range(1, N_FEATURES)]
        expected = [_sequential_cv(x[:, cols], y, config, folds) for cols in subsets]
        counter = _CountFits(monkeypatch)
        got = cross_val_cc([x[:, cols] for cols in subsets], y, config, folds)
        assert got == expected
        assert counter.calls == len(subsets) * len(folds)
        assert sum(d for _, _, d in got) >= 4 * len(folds)

    def test_wrapper_matches_the_sequential_loop(self):
        data = _training_set(2)
        config = SvrConfig(complexity_c=0.091)
        got = wrapper_greedy_stepwise(data, config, k=10, seed=3, max_steps=3)
        assert got == _sequential_wrapper(data, config, 10, 3, max_steps=3)
        assert len(got.steps) == 3

    def test_first_convergence_error_matches(self, monkeypatch):
        data = _training_set(3)
        config = SvrConfig(complexity_c=0.5, max_passes=300)  # fit 41 is the first to need more
        x, y = data.features, data.targets
        folds = kfold_split(len(y), 10, 0)
        subsets = [x[:, [j]] for j in range(N_FEATURES)]
        counter = _CountFits(monkeypatch)
        with pytest.raises(ConvergenceError) as want:
            for xs in subsets:
                _sequential_cv(xs, y, config, folds)
        want_calls, counter.calls = counter.calls, 0
        assert want_calls == 41
        with pytest.raises(ConvergenceError) as got:
            cross_val_cc(subsets, y, config, folds)
        assert counter.calls == want_calls
        assert (str(got.value), got.value.violation) == (str(want.value), want.value.violation)
        assert got.value.model.diagnostics.alpha_up.tobytes() == want.value.model.diagnostics.alpha_up.tobytes()


class TestWrapper:
    def test_signal_feature_selected_first(self):
        for seed in range(3):
            data = signal_training_set(seed=100 + seed, n=40)
            report = wrapper_greedy_stepwise(
                data, SvrConfig(complexity_c=1.0), k=5, seed=seed, max_steps=1
            )
            assert report.steps[0].feature == FEATURE_NAMES[1]

    def test_duplicate_column_never_added(self):
        rng = np.random.default_rng(20)
        features = rng.normal(size=(30, 31))
        features[:, 2] = features[:, 0]  # exact duplicate
        targets = np.clip(0.4 * features[:, 0], -0.99, 0.99)  # noiseless signal
        data = TrainingSet(features, targets, "arousal")
        report = wrapper_greedy_stepwise(data, SvrConfig(complexity_c=1.0), k=5, seed=1)
        assert report.steps[0].feature == FEATURE_NAMES[0]
        assert FEATURE_NAMES[2] not in report.final_subset

    def test_pure_noise_with_collapsing_learner_selects_nothing(self):
        rng = np.random.default_rng(21)
        features = rng.normal(size=(40, 31))
        targets = np.clip(rng.normal(0, 0.3, 40), -0.99, 0.99)
        data = TrainingSet(features, targets, "valence")
        # epsilon wider than the standardized target spread: the learner collapses
        # to constant predictions, every fold degenerates, nothing improves on 0.
        config = SvrConfig(complexity_c=0.0325, epsilon=8.0)
        report = wrapper_greedy_stepwise(data, config, k=5, seed=2)
        assert report.steps == ()
        assert report.final_subset == ()

    def test_scores_strictly_increase_and_subset_unique(self):
        rng = np.random.default_rng(22)
        features = rng.normal(size=(50, 31))
        targets = np.clip(
            0.45 * features[:, 0] + 0.3 * features[:, 5] + rng.normal(0, 0.03, 50), -0.99, 0.99
        )
        data = TrainingSet(features, targets, "arousal")
        report = wrapper_greedy_stepwise(
            data, SvrConfig(complexity_c=1.0), k=5, seed=4, min_improvement=0.003
        )
        assert len(report.steps) >= 2
        scores = [s.cv_score for s in report.steps]
        assert all(b > a + report.min_improvement for a, b in zip(scores, scores[1:]))
        assert len(set(report.final_subset)) == len(report.final_subset)
        assert len(report.steps) <= 31

    def test_deterministic_per_seed(self):
        data = signal_training_set(seed=23, n=30)
        cfg = SvrConfig(complexity_c=1.0)
        a = wrapper_greedy_stepwise(data, cfg, k=5, seed=7, max_steps=1)
        b = wrapper_greedy_stepwise(data, cfg, k=5, seed=7, max_steps=1)
        assert a.steps == b.steps
        assert a.final_subset == b.final_subset


def _manual_model(weights, bias=0.0):
    return SvrModel(
        weights=np.asarray(weights, dtype=float),
        bias=bias,
        feature_means=np.zeros(31),
        feature_stds=np.ones(31),
        target_mean=0.0,
        target_std=1.0,
        dimension="arousal",
        config=SvrConfig(complexity_c=0.091),
        feature_names=tuple(FEATURE_NAMES),
    )


def _evaluate_windows(model, levels):
    """extract_matrix -> predict_matrix -> evaluate_arrays over one 3 s window per level, gold = level."""
    # One constant 3 s stretch per level; with no level, a 2.5 s recording, too short for a window.
    seq = make_sequence(n=90 * len(levels), xs=np.repeat(levels, 90)) if levels else make_sequence(n=75)
    windows = segment(seq, window_s=3.0, hop_s=3.0)
    return evaluate_arrays(predict_matrix(model, extract_matrix(windows)), np.array(levels), "arousal")


class TestEvaluatePredictions:
    def test_exact_model_scores_one(self):
        weights = np.zeros(31)
        weights[4] = 1.0  # x_mean passthrough
        model = _manual_model(weights)
        report = _evaluate_windows(model, [-0.4, -0.1, 0.2, 0.5])
        assert report.cc == pytest.approx(1.0, abs=1e-12)
        assert report.error is None

    def test_constant_model_records_zero_variance(self):
        model = _manual_model(np.zeros(31), bias=0.3)
        report = _evaluate_windows(model, [-0.4, 0.0, 0.4])
        assert report.cc is None
        assert "zero-variance" in report.error
        assert report.n_windows == 3

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            _evaluate_windows(_manual_model(np.zeros(31)), [])


class TestReportRendering:
    def test_ranking_text_and_csv(self):
        data = signal_training_set(seed=30)
        report = rank_by_correlation(data)
        text = format_ranking(report)
        assert "rank" in text and FEATURE_NAMES[1] in text
        csv_text = ranking_csv(report)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "rank,feature,correlation"
        assert len(lines) == 32

    def test_selection_text_and_csv(self):
        data = signal_training_set(seed=31, n=40)
        report = wrapper_greedy_stepwise(data, SvrConfig(complexity_c=1.0), k=5, seed=0, max_steps=1)
        text = format_selection(report)
        assert "cv_cc" in text
        lines = selection_csv(report).strip().splitlines()
        assert lines[0] == "step,feature,cv_cc,degenerate_folds"
        assert len(lines) == len(report.steps) + 1

    def test_evaluation_text_and_csv(self):
        report = evaluate_arrays(np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.25, 0.28]), "valence")
        assert "pearson_cc" in format_evaluation(report)
        assert evaluation_csv(report).splitlines()[0] == "dimension,n_windows,pearson_cc,error"
