import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast.errors import ConvergenceError, DegenerateDataError, SchemaError, ValidationError
from gazecast.features import FEATURE_NAMES
from gazecast.regression import (
    SvrConfig,
    TrainingSet,
    filter_zero_targets,
    fit_linear_svr,
    model_from_text,
    model_to_text,
    predict_matrix,
    standardize_columns,
)

from oracles import kkt_violations, qp_oracle_svr


def _standardize_target(y):
    """(mean, std, z) of a target, z-scored as fit_linear_svr does it: as one standardize_columns column."""
    (mean,), (std,), z = standardize_columns(np.asarray(y, dtype=np.float64)[:, None])
    return mean, std, z[:, 0]


def fit_set(data: TrainingSet, config: SvrConfig):
    return fit_linear_svr(data.features, data.targets, config, names=FEATURE_NAMES, dimension=data.dimension)


def training_set(targets, seed=0, dimension="valence") -> TrainingSet:
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(len(targets), 31))
    return TrainingSet(features, np.asarray(targets, dtype=float), dimension)


class TestFilterZeroTargets:
    def test_drops_exact_zeros_preserving_order(self):
        data = training_set([0.0, 0.5, -0.2, 0.0])
        kept = filter_zero_targets(data)
        assert kept.targets.tolist() == [0.5, -0.2]
        assert np.array_equal(kept.features[0], data.features[1])
        assert np.array_equal(kept.features[1], data.features[2])

    def test_identity_without_zeros(self):
        data = training_set([0.1, -0.1, 0.3])
        kept = filter_zero_targets(data)
        assert np.array_equal(kept.targets, data.targets)
        assert np.array_equal(kept.features, data.features)

    def test_all_zero_is_error(self):
        with pytest.raises(DegenerateDataError):
            filter_zero_targets(training_set([0.0, 0.0, 0.0]))

    @given(st.lists(st.sampled_from([0.0, 0.25, -0.5, 1.0]), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_idempotent(self, targets):
        if all(t == 0.0 for t in targets):
            return
        data = training_set(targets)
        once = filter_zero_targets(data)
        twice = filter_zero_targets(once)
        assert np.array_equal(once.targets, twice.targets)
        assert np.array_equal(once.features, twice.features)

    def test_negative_zero_counts_as_zero(self):
        data = training_set([-0.0, 0.5])
        assert filter_zero_targets(data).targets.tolist() == [0.5]


class TestStandardize:
    def test_two_point_column(self):
        data = training_set([0.1, 0.9], seed=1)
        features = data.features.copy()
        features[:, 0] = [1.0, 3.0]
        _, _, z = standardize_columns(features)
        assert z[0, 0] == pytest.approx(-0.7071067811865475, rel=1e-12)
        assert z[1, 0] == pytest.approx(0.7071067811865475, rel=1e-12)

    def test_constant_column_sentinel(self):
        data = training_set([0.1, 0.9, -0.4], seed=2)
        features = data.features.copy()
        features[:, 5] = 1.3  # non-dyadic on purpose
        _, stds, z = standardize_columns(features)
        assert stds[5] == 1.0
        assert np.all(z[:, 5] == 0.0)

    def test_roundtrip(self):
        data = training_set(np.linspace(-0.9, 0.9, 7), seed=3)
        means, stds, z = standardize_columns(data.features)
        back = z * stds + means
        np.testing.assert_allclose(back, data.features, rtol=1e-12, atol=1e-12)
        t_mean, t_std, z_targets = _standardize_target(data.targets)
        back_t = z_targets * t_std + t_mean
        np.testing.assert_allclose(back_t, data.targets, rtol=1e-12, atol=1e-12)


class TestSvrFit:
    def test_line_through_origin(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = fit_linear_svr(x, y, SvrConfig(complexity_c=1000.0, epsilon=0.001))
        pred = predict_matrix(model, np.array([[4.0], [1.0]]))
        assert pred.tolist() == pytest.approx([8.0, 2.0], abs=0.05)

    def test_constant_target(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 3))
        model = fit_linear_svr(x, np.full(10, 0.7), SvrConfig(complexity_c=1.0))
        assert np.all(model.weights == 0.0)
        assert model.bias == 0.7

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 4))
        y = x @ np.array([1.0, 0.5, -2.0, 0.0]) + rng.normal(0, 0.1, 30)
        cfg = SvrConfig(complexity_c=2.0)
        a, b = fit_linear_svr(x, y, cfg), fit_linear_svr(x, y, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_permutation_invariance_of_predictions(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 3))
        y = x @ np.array([0.8, -0.3, 1.1]) + rng.normal(0, 0.05, 25)
        cfg = SvrConfig(complexity_c=5.0, tolerance=1e-8, max_passes=500_000)
        perm = rng.permutation(25)
        a = fit_linear_svr(x, y, cfg)
        b = fit_linear_svr(x[perm], y[perm], cfg)
        pts = rng.normal(size=(8, 3))
        np.testing.assert_allclose(pts @ a.weights + a.bias, pts @ b.weights + b.bias, atol=1e-5)

    def test_target_scaling_by_power_of_two_is_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(15, 2))
        y = x @ np.array([1.0, -1.0]) + rng.normal(0, 0.1, 15)
        cfg = SvrConfig(complexity_c=1.0)
        a = fit_linear_svr(x, y, cfg)
        b = fit_linear_svr(x, 2.0 * y, cfg)
        pts = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(2.0 * (pts @ a.weights + a.bias), pts @ b.weights + b.bias)

    def test_target_scaling_generic(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 2))
        y = x @ np.array([0.5, 0.25]) + rng.normal(0, 0.05, 12)
        cfg = SvrConfig(complexity_c=1.0, tolerance=1e-10, max_passes=500_000)
        a = fit_linear_svr(x, y, cfg)
        b = fit_linear_svr(x, 3.0 * y, cfg)
        pts = rng.normal(size=(5, 2))
        np.testing.assert_allclose(3.0 * (pts @ a.weights + a.bias), pts @ b.weights + b.bias, rtol=1e-6, atol=1e-8)

    def test_truncated_fit_reports_violation_and_carries_model(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 3))
        y = x @ np.array([2.0, -1.0, 0.5]) + rng.normal(0, 0.1, 20)
        with pytest.raises(ConvergenceError) as exc:
            fit_linear_svr(x, y, SvrConfig(complexity_c=10.0, max_passes=1))
        assert exc.value.violation > 0.001
        model = exc.value.model
        assert model is not None
        assert kkt_violations(model, (x, y)) > 0.001

    def test_kkt_below_tolerance_on_converged_fit(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(35, 5))
        y = x @ rng.normal(size=5) + rng.normal(0, 0.2, 35)
        cfg = SvrConfig(complexity_c=0.5)
        model = fit_linear_svr(x, y, cfg)
        assert kkt_violations(model, (x, y)) <= cfg.tolerance

    def test_kkt_zero_for_constant_target(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(10, 2))
        model = fit_linear_svr(x, np.full(10, -0.25), SvrConfig(complexity_c=1.0))
        assert kkt_violations(model, (x, np.full(10, -0.25))) == 0.0

    def test_error_cases(self):
        with pytest.raises(DegenerateDataError):
            fit_linear_svr(np.empty((0, 3)), np.empty(0), SvrConfig(complexity_c=1.0))
        with pytest.raises(DegenerateDataError):
            fit_linear_svr(np.ones((1, 3)), np.ones(1), SvrConfig(complexity_c=1.0))
        bad = np.ones((4, 2))
        bad[2, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            fit_linear_svr(bad, np.ones(4), SvrConfig(complexity_c=1.0))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SvrConfig(complexity_c=0.0)
        with pytest.raises(ValidationError):
            SvrConfig(complexity_c=1.0, epsilon=-0.1)
        with pytest.raises(ValidationError):
            SvrConfig(complexity_c=1.0, tolerance=0.0)


class TestAgainstQpOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_projected_gradient_oracle(self, seed):
        r = np.random.default_rng(40_000 + seed)
        n = int(r.integers(2, 13))
        d = int(r.integers(1, 6))
        x = r.normal(size=(n, d))
        y = x @ r.normal(size=d) + r.normal(0, 0.3, n)
        c = float(10 ** r.uniform(-2, 2))
        eps = float(r.uniform(0, 0.15))
        cfg = SvrConfig(complexity_c=c, epsilon=eps, tolerance=1e-8, max_passes=500_000)
        model = fit_linear_svr(x, y, cfg)
        oracle = qp_oracle_svr(x, y, c, eps)
        rel = abs(model.diagnostics.dual_objective - oracle["dual_objective"])
        rel /= max(1e-9, abs(oracle["dual_objective"]))
        assert rel <= 1e-6
        pts = np.vstack([x, r.normal(size=(4, d))])
        np.testing.assert_allclose(pts @ model.weights + model.bias, oracle["predict"](pts), atol=1e-4)

    @pytest.mark.parametrize("seed", range(10))
    def test_box_and_equality_constraints(self, seed):
        r = np.random.default_rng(50_000 + seed)
        n = int(r.integers(3, 13))
        x = r.normal(size=(n, 2))
        y = x @ np.array([1.0, -0.5]) + r.normal(0, 0.2, n)
        c = float(10 ** r.uniform(-2, 1.5))
        model = fit_linear_svr(x, y, SvrConfig(complexity_c=c, tolerance=1e-8, max_passes=500_000))
        d = model.diagnostics
        assert np.all(d.alpha_up >= 0.0) and np.all(d.alpha_up <= c)
        assert np.all(d.alpha_down >= 0.0) and np.all(d.alpha_down <= c)
        assert abs(np.sum(d.alpha_up) - np.sum(d.alpha_down)) <= 1e-12 * max(1.0, c)


class TestPredict:
    def test_zero_weights_bias(self):
        data = training_set(np.full(5, 0.2), seed=12)
        model = fit_set(data, SvrConfig(complexity_c=0.0325))
        for _ in range(3):
            x = np.random.default_rng(13).normal(size=(1, 31))
            assert predict_matrix(model, x).tolist() == [0.2]

    def test_dimension_mismatch(self):
        data = training_set([0.1, 0.4, -0.2], seed=14)
        model = fit_set(data, SvrConfig(complexity_c=0.0325))
        with pytest.raises(ValidationError):
            predict_matrix(model, np.ones((1, 30)))


class TestModelFile:
    def _model(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(20, 31))
        y = x[:, 3] * 0.4 + rng.normal(0, 0.05, 20)
        return fit_set(TrainingSet(x, y, "valence"), SvrConfig(complexity_c=0.091))

    def test_roundtrip_exact(self):
        model = self._model()
        loaded = model_from_text(model_to_text(model))
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.feature_means, model.feature_means)
        assert np.array_equal(loaded.feature_stds, model.feature_stds)
        assert loaded.bias == model.bias
        assert loaded.target_mean == model.target_mean
        assert loaded.target_std == model.target_std
        assert loaded.dimension == model.dimension
        assert loaded.config.complexity_c == model.config.complexity_c
        assert loaded.config.epsilon == model.config.epsilon
        assert loaded.feature_names == tuple(FEATURE_NAMES)

    def test_resave_is_byte_identical(self):
        text = model_to_text(self._model())
        assert model_to_text(model_from_text(text)) == text

    def test_magic_line(self):
        model = self._model()
        assert model_to_text(model).splitlines()[0] == "GAZESVR1"
        with pytest.raises(SchemaError, match="GAZESVR1"):
            model_from_text("NOTAMODEL\n")

    def test_truncated_file(self):
        model = self._model()
        text = model_to_text(model)
        with pytest.raises(SchemaError):
            model_from_text("\n".join(text.splitlines()[:10]))

    def test_unknown_dimension_is_refused(self):
        text = model_to_text(self._model())
        assert "dimension valence\n" in text
        with pytest.raises(ValidationError, match="'bogus'"):
            model_from_text(text.replace("dimension valence\n", "dimension bogus\n"))
        assert model_from_text(text.replace("dimension valence\n", "dimension -\n")).dimension == ""

    def test_loaded_model_cannot_be_audited(self):
        loaded = model_from_text(model_to_text(self._model()))
        with pytest.raises(ValidationError, match="diagnostics"):
            kkt_violations(loaded, (np.zeros((2, 31)), np.zeros(2)))
