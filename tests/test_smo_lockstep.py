"""The lock-step SMO pool and the batched CV give the scalar solver's results bit for bit.

Every fit that leaves the pool is finished by ``fit_linear_svr(..., start=state)``
and compared with a fresh ``fit_linear_svr``: multipliers, bias, update count,
KKT gap and, for a fit that hits max_passes, the ConvergenceError. Epsilon 0
and duplicated integer rows make the up and down slots of a point tie, so
the tie rule (up before down, lowest index first) is exercised.
"""

import numpy as np
import pytest

from gazecast import evaluation
from gazecast.errors import ConvergenceError, DegenerateDataError, ValidationError
from gazecast.evaluation import (
    WORST_CC,
    SelectionReport,
    SelectionStep,
    cross_val_cc,
    kfold_split,
    pearson_cc,
    wrapper_greedy_stepwise,
)
from gazecast.features import FEATURE_NAMES, N_FEATURES
from gazecast.regression import (
    _REFRESH_EVERY,
    _SCALAR_TAIL,
    SvrConfig,
    TrainingSet,
    _smo_lockstep,
    fit_linear_svr,
    predict_matrix,
)


def _qp(seed: int, n: int, d: int = 3, *, ties: bool = False) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    if ties:
        x = rng.integers(-2, 3, size=(n, d)).astype(float)
        y = rng.integers(-3, 4, size=n).astype(float)
        x[n // 2:], y[n // 2:] = x[: n - n // 2], y[: n - n // 2]  # duplicated rows
        return x, y
    x = rng.normal(size=(n, d))
    return x, x @ rng.normal(size=d) + rng.normal(size=n)


def _outcome(x, y, config, start=None):
    """Everything a fit's solver decides, as bytes where a float is involved."""
    try:
        model, error = fit_linear_svr(x, y, config, start=start), None
    except ConvergenceError as e:
        model, error = e.model, (str(e), e.violation)
    d = model.diagnostics
    return (
        d.alpha_up.tobytes(), d.alpha_down.tobytes(), np.float64(d.bias_std).tobytes(),
        d.n_iterations, np.float64(d.kkt_gap).tobytes(), model.weights.tobytes(), error,
    )


def _pool(problems, config, gram_bytes):
    """Run *problems* (one row count) through the pool: {index: state}, each index yielded once."""
    n_rows = len(problems[0][1])
    yielded = list(_smo_lockstep([lambda p=p: p for p in problems], n_rows, config, gram_bytes))
    assert sorted(i for i, _ in yielded) == list(range(len(problems)))
    return dict(yielded)


def _check_resumes(problems, config, gram_bytes=1 << 30):
    states = _pool(problems, config, gram_bytes)
    for i, (x, y) in enumerate(problems):
        assert _outcome(x, y, config, start=states[i]) == _outcome(x, y, config), f"problem {i}"
    return states


class TestLockstep:
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_mixed_sizes_match_the_scalar_solver(self, epsilon):
        config = SvrConfig(complexity_c=1.0, epsilon=epsilon)
        for n in (12, 25, 40):
            problems = [_qp(100 * n + s, n, d=1 + s % 4, ties=s % 2 == 0) for s in range(14)]
            states = _check_resumes(problems, config)
            assert sum(s is not None and s[3] > 0 for s in states.values()) > _SCALAR_TAIL

    def test_refresh_is_crossed_in_lock_step(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 3))
        y = x @ rng.normal(size=3) + 2.0 * rng.normal(size=30)
        # 9 near-copies take 5,250-6,506 updates each, so the pool runs them all past the refresh.
        problems = [(x, y + 1e-3 * np.random.default_rng(100 + v).normal(size=30)) for v in range(9)]
        states = _check_resumes(problems, SvrConfig(complexity_c=60.0, epsilon=0.01))
        assert min(s[3] for s in states.values()) > _REFRESH_EVERY

    def test_convergence_error_matches(self):
        config = SvrConfig(complexity_c=5.0, epsilon=0.0, max_passes=40)
        problems = [_qp(s, 30, ties=s % 3 == 0) for s in range(16)]
        states = _check_resumes(problems, config)
        capped = [i for i, s in states.items() if s is not None and s[3] == 40]
        assert len(capped) > _SCALAR_TAIL
        x, y = problems[capped[0]]
        with pytest.raises(ConvergenceError):
            fit_linear_svr(x, y, config, start=states[capped[0]])

    def test_small_budget_refills_slots_and_leaves_a_tail(self):
        n, config = 20, SvrConfig(complexity_c=2.0, epsilon=0.01)
        problems = [_qp(s, n, d=2, ties=s % 4 == 0) for s in range(30)]
        states = _check_resumes(problems, config, gram_bytes=(_SCALAR_TAIL + 1) * 8 * n * n)
        finished = [fit_linear_svr(*problems[i], config).diagnostics.n_iterations for i in range(30)]
        stopped = [i for i, s in states.items() if s is not None and s[3] == finished[i]]
        mid_run = [i for i, s in states.items() if s is not None and 0 < s[3] < finished[i]]
        assert len(stopped) > _SCALAR_TAIL + 1  # some slots took a second fit
        assert 0 < len(mid_run) <= _SCALAR_TAIL

    def test_pool_of_no_more_slots_than_the_tail_is_not_built(self):
        problems = [_qp(s, 20) for s in range(30)]
        states = _pool(problems, SvrConfig(complexity_c=1.0), _SCALAR_TAIL * 8 * 20 * 20)
        assert all(s is None for s in states.values())

    def test_non_finite_problem_is_left_to_fit_linear_svr(self):
        config = SvrConfig(complexity_c=1.0)
        problems = [_qp(s, 20) for s in range(12)]
        x, y = problems[3]
        x = x.copy()
        x[5, 1] = np.nan
        problems[3] = (x, y)
        states = _pool(problems, config, 1 << 30)
        assert states[3] is None
        with pytest.raises(ValidationError):
            fit_linear_svr(x, y, config, start=states[3])
        for i in (0, 11):
            assert _outcome(*problems[i], config, start=states[i]) == _outcome(*problems[i], config)


# --- the batched CV against the loop it replaced --------------------------------


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


class TestBatchedCv:
    def test_scores_match_a_loop_over_subsets_and_folds(self, monkeypatch):
        data = _training_set(1)
        x, y = data.features, data.targets
        folds = kfold_split(len(y), 10, 0)  # 42 and 43 training rows: two pools
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
