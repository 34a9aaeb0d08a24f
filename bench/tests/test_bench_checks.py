"""The benchmark's output checks catch small deviations; its tracer times the right calls.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import Tracer  # noqa: E402
from workloads import FEATURE_REL, check_extract, check_pipeline, check_select  # noqa: E402

HEADER = "window_start_ms,window_end_ms,approach_ratio,x_mean"
FEATURES = [[0.0, 3000.0, 0.5, 0.125], [2000.0, 5000.0, 0.25, -0.0625]]


def _features_csv(d: Path, rows) -> None:
    d.mkdir(exist_ok=True)
    lines = [HEADER] + [",".join(repr(float(v)) for v in r) for r in rows]
    (d / "features.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _selection_csv(d: Path, features) -> None:
    d.mkdir(exist_ok=True)
    lines = ["step,feature,cv_cc,degenerate_folds"]
    lines += [f"{i},{f},{0.5 + 0.1 * i!r},0" for i, f in enumerate(features, start=1)]
    (d / "selection.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _pipeline_out(d: Path, c: float, preds, cc: float) -> None:
    d.mkdir(exist_ok=True)
    (d / "model.txt").write_text(
        f"GAZECAST-SVR 1\ndimension arousal\ncomplexity_c {c!r}\nepsilon 0.001\nfeatures 0\ntarget 0.1 0.4\nbias 0.0\n",
        encoding="utf-8",
    )
    lines = ["window_start_ms,window_end_ms,prediction"]
    lines += [f"{2000.0 * i!r},{2000.0 * i + 3000.0!r},{p!r}" for i, p in enumerate(preds)]
    (d / "predictions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (d / "evaluation.csv").write_text(f"dimension,n_windows,pearson_cc,error\narousal,{len(preds)},{cc!r},\n")
    (d / "tolerance.json").write_text(json.dumps({"pred_atol": 0.02, "cc_atol": 0.002}))


class TestExtractCheck:
    def test_identical_output_passes(self, tmp_path):
        _features_csv(tmp_path / "ref", FEATURES)
        _features_csv(tmp_path / "out", FEATURES)
        assert check_extract(tmp_path / "out", tmp_path / "ref") == ([], None)

    def test_difference_within_tolerance_passes(self, tmp_path):
        _features_csv(tmp_path / "ref", FEATURES)
        _features_csv(tmp_path / "out", [[*r[:3], r[3] * (1 + FEATURE_REL / 2)] for r in FEATURES])
        assert check_extract(tmp_path / "out", tmp_path / "ref")[0] == []

    @pytest.mark.parametrize("value", [0.125 * (1 + 1e-7), float("nan"), 0.126])
    def test_perturbed_feature_value_is_caught(self, tmp_path, value):
        _features_csv(tmp_path / "ref", FEATURES)
        _features_csv(tmp_path / "out", [[0.0, 3000.0, 0.5, value], FEATURES[1]])
        problems, _ = check_extract(tmp_path / "out", tmp_path / "ref")
        assert len(problems) == 1 and "row 1 column x_mean" in problems[0]

    def test_missing_row_is_caught(self, tmp_path):
        _features_csv(tmp_path / "ref", FEATURES)
        _features_csv(tmp_path / "out", FEATURES[:1])
        assert "shape" in check_extract(tmp_path / "out", tmp_path / "ref")[0][0]

    def test_missing_output_is_caught(self, tmp_path):
        _features_csv(tmp_path / "ref", FEATURES)
        (tmp_path / "out").mkdir()
        assert "unreadable output" in check_extract(tmp_path / "out", tmp_path / "ref")[0][0]


class TestSelectCheck:
    def test_same_subset_passes_and_reports_final_cc(self, tmp_path):
        _selection_csv(tmp_path / "ref", ["scan_path_len_avg", "x_std", "eye_close_count_avg"])
        _selection_csv(tmp_path / "out", ["scan_path_len_avg", "x_std", "eye_close_count_avg"])
        assert check_select(tmp_path / "out", tmp_path / "ref") == ([], pytest.approx(0.8))

    def test_swapped_subset_is_caught(self, tmp_path):
        _selection_csv(tmp_path / "ref", ["scan_path_len_avg", "x_std", "eye_close_count_avg"])
        _selection_csv(tmp_path / "out", ["x_std", "scan_path_len_avg", "eye_close_count_avg"])
        problems, _ = check_select(tmp_path / "out", tmp_path / "ref")
        assert len(problems) == 1 and "selected subset" in problems[0]


class TestPipelineCheck:
    def test_within_solver_tolerance_passes(self, tmp_path):
        _pipeline_out(tmp_path / "ref", 0.091, [0.1, -0.2, 0.3], 0.75)
        _pipeline_out(tmp_path / "out", 0.091, [0.11, -0.2, 0.3], 0.751)
        assert check_pipeline(tmp_path / "out", tmp_path / "ref") == ([], 0.751)

    def test_other_c_is_caught(self, tmp_path):
        _pipeline_out(tmp_path / "ref", 0.091, [0.1, -0.2, 0.3], 0.75)
        _pipeline_out(tmp_path / "out", 0.0325, [0.1, -0.2, 0.3], 0.75)
        assert "selected C" in check_pipeline(tmp_path / "out", tmp_path / "ref")[0][0]

    def test_prediction_outside_tolerance_is_caught(self, tmp_path):
        _pipeline_out(tmp_path / "ref", 0.091, [0.1, -0.2, 0.3], 0.75)
        _pipeline_out(tmp_path / "out", 0.091, [0.1, -0.2, 0.33], 0.75)
        assert "row 3 column prediction" in check_pipeline(tmp_path / "out", tmp_path / "ref")[0][0]

    def test_cc_outside_tolerance_is_caught(self, tmp_path):
        _pipeline_out(tmp_path / "ref", 0.091, [0.1, -0.2, 0.3], 0.75)
        _pipeline_out(tmp_path / "out", 0.091, [0.1, -0.2, 0.3], 0.76)
        assert "held-out CC" in check_pipeline(tmp_path / "out", tmp_path / "ref")[0][0]


class TestTracer:
    @pytest.fixture(autouse=True)
    def _program_on_path(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2] / "src"))

    def test_wraps_imported_names_and_restores_them(self):
        import gazecast.cli as cli
        import gazecast.evaluation as evaluation
        import gazecast.features as features

        originals = (cli.extract_matrix, evaluation.fit_linear_svr, features.extract_matrix)
        with Tracer() as tracer:
            assert cli.extract_matrix is features.extract_matrix
            assert cli.extract_matrix.__wrapped__ is originals[0]
            assert evaluation.fit_linear_svr.__wrapped__ is originals[1]
            tracer.span("cli.main", evaluation.pearson_cc, [1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert (cli.extract_matrix, evaluation.fit_linear_svr, features.extract_matrix) == originals
        assert [(name, parent) for name, _, _, parent in tracer.spans] == [
            ("cli.main", -1), ("evaluation.pearson_cc", 0)
        ]
        selft = tracer.self_times()
        outer = tracer.spans[0][2] - tracer.spans[0][1]
        assert selft["cli.main"] + selft["evaluation.pearson_cc"] == pytest.approx(outer)

    def test_counts_degenerate_pearson_and_solver_iterations(self):
        import numpy as np

        import gazecast.evaluation as evaluation
        from gazecast.errors import DegenerateDataError
        from gazecast.regression import SvrConfig

        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        with Tracer() as tracer:
            with pytest.raises(DegenerateDataError):
                evaluation.pearson_cc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
            model = evaluation.fit_linear_svr(x, x @ [1.0, -1.0], SvrConfig(complexity_c=1.0))
        assert tracer.counts["pearson_failed"] == 1
        assert tracer.counts["fits"] == 1 and tracer.counts["fit_rows"] == 30
        assert tracer.counts["smo_iters"] == model.diagnostics.n_iterations > 0
