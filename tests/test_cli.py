import io
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gazecast.cli import (
    FEATURE_CSV_HEADER,
    _write_text_atomic,
    feature_csv_text,
    main,
    predictions_csv_text,
    read_feature_csv,
)
from gazecast.features import FEATURE_NAMES
from gazecast.regression import SvrConfig, SvrModel, model_to_text
from gazecast.evaluation import grid_search_c

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def synth_spec_text(duration_s=9.0, rate_hz=30.0, amp=0.4, slope_mm_s=-3.0, seed_noise=0.03):
    return json.dumps(
        {
            "duration_s": duration_s,
            "rate_hz": rate_hz,
            "gaze_x": [
                {"kind": "sinusoid", "frequency_hz": 1.0, "amplitude": amp},
                {"kind": "noise", "noise_std": seed_noise},
            ],
            "gaze_y": [{"kind": "noise", "noise_std": 0.25}],
            "distance_mm": [
                {"kind": "ramp", "level": 620.0, "slope": slope_mm_s},
                {"kind": "noise", "noise_std": 0.2},
            ],
            "blinks_ms": [[4000.0, 4200.0]],
        }
    )


def write_annotation(path: Path, points: list[tuple[float, float]]) -> None:
    lines = ["timestamp_ms,value"] + [f"{float(t)!r},{float(v)!r}" for t, v in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Bytes that make a CSV unreadable, and the reason the error names.
UNREADABLE_TEXT = pytest.mark.parametrize("damage, message", [
    (b"\xff", "not utf-8"),
    (b"7" * 200_000, "field larger than field limit"),
], ids=["byte_ff", "oversized_field"])


def make_recording(tmp_path: Path, name: str, seed: int, duration_s=63.0, **kw) -> tuple[Path, Path]:
    spec = tmp_path / f"{name}_spec.json"
    spec.write_text(synth_spec_text(duration_s=duration_s, **kw), encoding="utf-8")
    gaze = tmp_path / f"{name}_gaze.csv"
    assert run("synth", "--spec", spec, "--seed", seed, "--out", gaze) == 0
    features = tmp_path / f"{name}_features.csv"
    assert run("extract", "--gaze", gaze, "--out", features) == 0
    return gaze, features


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(synth_spec_text(duration_s=4.0), encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("synth", "--spec", spec, "--seed", "5", "--out", a) == 0
        assert run("synth", "--spec", spec, "--seed", "5", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{\"rate_hz\": 30.0}", encoding="utf-8")
        assert run("synth", "--spec", spec, "--seed", "0", "--out", tmp_path / "x.csv") == 2
        assert "error" in capsys.readouterr().err


class TestExtract:
    def test_nine_second_default_gives_four_rows(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(synth_spec_text(duration_s=9.0), encoding="utf-8")
        gaze = tmp_path / "gaze.csv"
        out = tmp_path / "features.csv"
        assert run("synth", "--spec", spec, "--seed", "3", "--out", gaze) == 0
        assert run("extract", "--gaze", gaze, "--out", out) == 0
        spans, x = read_feature_csv(out)
        assert len(spans) == 4
        assert x.shape == (4, 31)

    def test_explicit_default_flags_are_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(synth_spec_text(duration_s=9.0), encoding="utf-8")
        gaze = tmp_path / "gaze.csv"
        assert run("synth", "--spec", spec, "--seed", "3", "--out", gaze) == 0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("extract", "--gaze", gaze, "--out", a) == 0
        assert run("extract", "--gaze", gaze, "--out", b, "--window-sec", "3", "--hop-sec", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_golden_fixture_bytes(self, tmp_path):
        out = tmp_path / "features.csv"
        assert run("extract", "--gaze", FIXTURES / "golden_gaze.csv", "--out", out) == 0
        assert out.read_bytes() == (FIXTURES / "golden_features.csv").read_bytes()

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("frame,timestamp_ms,gaze_x,screen_distance_mm,eye_closed\n0,0,0,600,0\n")
        assert run("extract", "--gaze", bad, "--out", tmp_path / "f.csv") == 2
        assert "gaze_y" in capsys.readouterr().err

    def test_nan_input_exits_3(self, tmp_path):
        bad = tmp_path / "nan.csv"
        rows = ["frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eye_closed"]
        for i in range(120):
            x = "nan" if i == 5 else "0.1"
            rows.append(f"{i},{i * 100.0},{x},0.0,600,0")
        bad.write_text("\n".join(rows) + "\n")
        assert run("extract", "--gaze", bad, "--out", tmp_path / "f.csv") == 3

    def test_nan_frame_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan_frame.csv"
        bad.write_text("frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eye_closed\n"
                       "nan,0,0.1,0.0,600,0\n1,33.3,0.1,0.0,600,0\n")
        assert run("extract", "--gaze", bad, "--out", tmp_path / "f.csv") == 2
        assert "data row 1" in capsys.readouterr().err

    def test_gap_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "gap.csv"
        rows = ["frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eye_closed"]
        ts = list(np.arange(40) * 100.0) + list(9000.0 + np.arange(40) * 100.0)
        for i, t in enumerate(ts):
            rows.append(f"{i},{t},0.1,0.0,600,0")
        bad.write_text("\n".join(rows) + "\n")
        assert run("extract", "--gaze", bad, "--out", tmp_path / "f.csv") == 3
        assert "unusable" in capsys.readouterr().err

    @UNREADABLE_TEXT
    def test_unreadable_gaze_text_exits_2(self, tmp_path, capsys, damage, message):
        bad = tmp_path / "bad.csv"
        lines = (FIXTURES / "golden_gaze.csv").read_bytes().splitlines(keepends=True)
        lines[3] = lines[3][:4] + damage + lines[3][4:]
        bad.write_bytes(b"".join(lines))
        assert run("extract", "--gaze", bad, "--out", tmp_path / "f.csv") == 2
        err = capsys.readouterr().err
        assert message in err and "line 4" in err


class TestSizesTooLargeToAllocate:
    """A setting that asks for PiB-scale arrays exits 3 naming it; NumPy refuses such sizes before touching memory."""

    def test_synth_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_s": 1e12, "rate_hz": 1000}), encoding="utf-8")
        assert run("synth", "--spec", spec, "--out", tmp_path / "g.csv") == 3
        assert "duration_s * rate_hz gives 1000000000000000 samples, too many to allocate" in capsys.readouterr().err

    def test_psd_resolution(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run("extract", "--gaze", FIXTURES / "golden_gaze.csv", "--out", out, "--psd-resolution-hz", "1e-15") == 3
        assert "psd_pad_resolution_hz 1e-15 needs" in capsys.readouterr().err
        assert not out.exists()

    # 3e-18 at the fixture's 10 Hz asks for 3.3e18 points: past NumPy's array size limit, below 2**62.
    @pytest.mark.parametrize("value", ["3e-18", "1e-300", "1e-320"])
    def test_psd_resolution_past_the_array_size_limit(self, tmp_path, capsys, value):
        out = tmp_path / "f.csv"
        assert run("extract", "--gaze", FIXTURES / "golden_gaze.csv", "--out", out, "--psd-resolution-hz", value) == 3
        err = capsys.readouterr().err
        assert err.startswith("gazecast: error: psd_pad_resolution_hz") and "too large to allocate" in err
        assert not out.exists()


def _feature_csv_text_loop(spans, matrix) -> str:
    """The per-value writer loop that feature_csv_text replaced."""
    lines = [",".join(FEATURE_CSV_HEADER)]
    for (start, end), row in zip(spans, matrix):
        lines.append(",".join([repr(float(start)), repr(float(end))] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def _predictions_csv_text_loop(spans, pred) -> str:
    """The per-value writer loop that predictions_csv_text replaced."""
    lines = ["window_start_ms,window_end_ms,prediction"]
    for (start, end), p in zip(spans, pred):
        lines.append(f"{float(start)!r},{float(end)!r},{float(p)!r}")
    return "\n".join(lines) + "\n"


class TestWriterBytes:
    """The table writers give the bytes of the per-value loops they replaced."""

    VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1.7976931348623157e308,
              3.0, -42.0, 2.0**53, 0.1, 1 / 3, -2.5e-7, 123456789.125]

    def _spans_and_matrix(self, rows: int):
        rng = np.random.default_rng(rows)
        matrix = rng.choice(self.VALUES, size=(rows, 31)) * rng.choice([1.0, -1.0], size=(rows, 31))
        spans = np.column_stack([np.arange(rows) * 2000.0, np.arange(rows) * 2000.0 + 3000.0])
        spans[rows // 2 :] = rng.choice(self.VALUES, size=(rows - rows // 2, 2))
        return spans, matrix

    @pytest.mark.parametrize("rows", [1, 2, 7, 40])
    def test_feature_csv_text(self, rows):
        spans, matrix = self._spans_and_matrix(rows)
        assert feature_csv_text(spans, matrix).encode() == _feature_csv_text_loop(spans, matrix).encode()

    @pytest.mark.parametrize("rows", [1, 2, 7, 40])
    def test_predictions_csv_text(self, rows):
        spans, matrix = self._spans_and_matrix(rows)
        pred = matrix[:, 0]
        assert predictions_csv_text(spans, pred).encode() == _predictions_csv_text_loop(spans, pred).encode()

    @pytest.mark.parametrize("matrix", [np.empty((0, 31)), np.array([])], ids=["0x31", "extract_matrix_empty"])
    def test_no_rows(self, matrix):
        spans = np.empty((0, 2))
        assert feature_csv_text(spans, matrix) == _feature_csv_text_loop(spans, matrix) == ",".join(FEATURE_CSV_HEADER) + "\n"
        assert predictions_csv_text(spans, np.array([])) == _predictions_csv_text_loop(spans, [])

    def test_values_cover_the_edges(self):
        values = np.array(self.VALUES)
        assert np.any(np.signbit(values) & (values == 0.0))
        assert np.any((values != 0.0) & (np.abs(values) < np.finfo(float).tiny))  # subnormal
        assert np.any(np.abs(values) >= 1e308) and np.any(values == np.round(values))


class TestNanSettings:
    """A NaN setting fails its range check (exit 3) instead of a traceback, a silent default or a long solve."""

    @pytest.mark.parametrize("command, flag, message", [
        ("extract", "--window-sec", "window_s and hop_s must be positive"),
        ("extract", "--hop-sec", "window_s and hop_s must be positive"),
        ("extract", "--velocity-threshold", "velocity_threshold must be > 0"),
        ("extract", "--psd-resolution-hz", "psd_pad_resolution_hz must be > 0"),
        ("train", "--complexity", "complexity_c must be > 0"),
        ("train", "--epsilon", "epsilon must be >= 0"),
        ("train", "--tolerance", "tolerance must be > 0"),
        ("extract", "--approach-delta-mm", "approach_delta_mm must be >= 0"),
        ("extract", "--closure-threshold", "closure_threshold must be >= 0"),
        ("select", "--min-improvement", "min_improvement must be finite"),
    ])
    def test_nan_exits_3(self, tmp_path, capsys, command, flag, message):
        self._check_exits_3(tmp_path, capsys, command, flag, "nan", message)

    @pytest.mark.parametrize("setting, message", [
        ("--window-sec=inf", "window_s and hop_s must be positive and finite"),
        ("--hop-sec=inf", "window_s and hop_s must be positive and finite"),
        ("--zone-bounds=-inf,1,-1,1", "zone_bounds must be finite"),
        ("--zone-bounds=nan,1,-1,1", "zone_bounds must be finite"),
    ])
    def test_non_finite_extract_setting_exits_3(self, tmp_path, capsys, setting, message):
        out = tmp_path / "out"
        assert run("extract", "--gaze", FIXTURES / "golden_gaze.csv", "--out", out, setting) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--complexity", "inf", "complexity_c must be > 0 and finite"),
        ("--grid-c", "inf,0.1", "complexity_c must be > 0 and finite"),
        ("--epsilon", "inf", "epsilon must be >= 0 and finite"),
        ("--tolerance", "inf", "tolerance must be > 0 and finite"),
    ])
    def test_non_finite_solver_setting_exits_3(self, tmp_path, capsys, flag, value, message):
        self._check_exits_3(tmp_path, capsys, "train", flag, value, message)

    @pytest.mark.parametrize("value", [str(2**40), "99999999999999999999"])
    def test_zone_grid_whose_cell_key_overflows_int64_exits_3(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert run("extract", "--gaze", FIXTURES / "golden_gaze.csv", "--out", out, "--zone-grid", value) == 3
        assert capsys.readouterr().err.startswith("gazecast: error: zone_grid must be <= 3037000499")
        assert not out.exists()

    def test_max_steps_below_one_exits_3(self, tmp_path, capsys):
        self._check_exits_3(tmp_path, capsys, "select", "--max-steps", "-1", "max_steps must be None or >= 1")

    @staticmethod
    def _check_exits_3(tmp_path, capsys, command, flag, value, message):
        if command == "extract":
            argv = ["extract", "--gaze", FIXTURES / "golden_gaze.csv"]
        else:
            ann = tmp_path / "ann.csv"
            write_annotation(ann, [(500.0 * i, 0.1 * (i % 5) - 0.2) for i in range(12)])
            argv = [command, "--features", FIXTURES / "golden_features.csv", "--annotations", ann,
                    "--dimension", "arousal"]
        out = tmp_path / "out"
        assert run(*argv, "--csv-out" if command == "select" else "--out", out, flag, value) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


# Numeric edges as flag text: zero, subnormal, huge, tiny, infinite, NaN and integers past int64.
EDGE_VALUES = ["0", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300", "-1e-300", "inf", "-inf", "nan",
               str(2**63 + 1), str(-(2**63 + 1))]
EXTRACT_NUMBER_FLAGS = ["--window-sec", "--hop-sec", "--velocity-threshold", "--approach-delta-mm",
                        "--zone-grid", "--psd-resolution-hz", "--closure-threshold"]


class TestExtractFlagEdges:
    """Every numeric extract setting at a numeric edge ends in exit 0 with finite features, or in a refusal."""

    @settings(max_examples=200)
    @given(
        flags=st.dictionaries(st.sampled_from(EXTRACT_NUMBER_FLAGS), st.sampled_from(EDGE_VALUES), max_size=2),
        bounds=st.tuples(*(st.sampled_from([default, *EDGE_VALUES]) for default in ("-1", "1", "-1", "1"))),
    )
    @example(flags={}, bounds=("-5e-324", "5e-324", "-1", "1"))  # the zone quotient overflows to inf
    def test_exit_code_is_documented(self, flags, bounds):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "f.csv"
            argv = ["extract", "--gaze", str(FIXTURES / "golden_gaze.csv"), "--out", str(out),
                    f"--zone-bounds={','.join(bounds)}", *(f"{flag}={value}" for flag, value in flags.items())]
            err = io.StringIO()
            # Warnings are errors inside the call only: hypothesis' own failure report imports modules that warn.
            with redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = main(argv)
                except SystemExit as e:  # argparse refuses a value its type cannot parse
                    code = e.code
            assert code in (0, 2, 3), err.getvalue()
            if code:
                assert err.getvalue().startswith(("gazecast: error:", "usage:")), err.getvalue()
                assert not out.exists()
            else:
                rows = out.read_text(encoding="utf-8").splitlines()[1:]  # none when no window fits
                assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


SOLVER_NUMBER_FLAGS = {
    "train": ["--complexity", "--epsilon", "--tolerance", "--max-passes", "--grid-c", "--folds", "--seed"],
    "select": ["--complexity", "--epsilon", "--tolerance", "--max-passes", "--folds", "--seed",
               "--min-improvement", "--max-steps"],
}
SOLVER_NUMBER_FLAGS["pipeline"] = SOLVER_NUMBER_FLAGS["train"]


def _finite_cells(text: str) -> bool:
    """Whether every comma- or space-separated cell of *text* that reads as a number is finite."""
    for cell in text.replace(",", " ").split():
        try:
            if not math.isfinite(float(cell)):
                return False
        except ValueError:
            pass
    return True


class TestSolverFlagEdges:
    """Every numeric train, select and pipeline setting at a numeric edge ends in a documented exit code."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("solver_flags")
        gaze, features = make_recording(tmp, "rec", seed=0, duration_s=30.0)  # 14 windows
        ann = tmp / "ann.csv"
        write_annotation(ann, [(t, 0.1 + 0.3 * np.sin(t / 9000.0)) for t in np.arange(0.0, 30500.0, 500.0)])
        manifest = tmp / "manifest.json"
        entry = {"gaze": gaze.name, "annotations": ann.name}
        manifest.write_text(json.dumps({"dimension": "arousal", "train": [entry], "test": [entry]}), encoding="utf-8")
        return features, ann, manifest

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.sampled_from(sorted(SOLVER_NUMBER_FLAGS)).flatmap(lambda command: st.tuples(
        st.just(command),
        st.dictionaries(st.sampled_from(SOLVER_NUMBER_FLAGS[command]), st.sampled_from(EDGE_VALUES), max_size=3),
    )))
    @example(drawn=("select", {}))  # 10 folds of 14 rows leave single-row folds
    @example(drawn=("select", {"--epsilon": "0", "--complexity": "1e300", "--max-steps": "1", "--folds": "5"}))
    @example(drawn=("select", {"--epsilon": "0", "--complexity": "1.7e308", "--max-steps": "1", "--folds": "5"}))
    @example(drawn=("select", {"--folds": "7", "--max-steps": "1"}))
    @example(drawn=("pipeline", {"--grid-c": "0.1,1e300", "--folds": "7"}))
    def test_exit_code_is_documented(self, inputs, drawn):
        command, flags = drawn
        # A fit under a huge update cap stops only where it converges, which a tiny tolerance or a huge C prevents.
        never_converges = flags.get("--tolerance") in ("5e-324", "1e-300") or "1e300" in (
            flags.get("--complexity"), flags.get("--grid-c"))
        assume(not (never_converges and flags.get("--max-passes") == str(2**63 + 1)))
        flags = {"--max-passes": "3000", **flags}
        features, ann, manifest = inputs
        with tempfile.TemporaryDirectory() as tmp:
            outs = {flag: Path(tmp) / flag.strip("-") for flag in {
                "train": ["--out"], "select": ["--csv-out"],
                "pipeline": ["--model-out", "--csv-out", "--predictions-out"],
            }[command]}
            data = ["--manifest", str(manifest)] if command == "pipeline" else [
                "--features", str(features), "--annotations", str(ann), "--dimension", "arousal"]
            argv = [command, *data, *(f"{flag}={path}" for flag, path in outs.items()),
                    *(f"{flag}={value}" for flag, value in flags.items())]
            stdout, stderr = io.StringIO(), io.StringIO()
            # Warnings are errors inside the call only: hypothesis' own failure report imports modules that warn.
            with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = main(argv)
                except SystemExit as e:  # argparse refuses a value its type cannot parse
                    code = e.code
            err = stderr.getvalue()
            assert code in (0, 2, 3, 5), err
            if code:
                assert err.startswith(("gazecast: error:", "usage:")), err
                assert not any(path.exists() for path in outs.values())
            else:
                assert _finite_cells(stdout.getvalue()), stdout.getvalue()
                for path in outs.values():
                    assert _finite_cells(path.read_text(encoding="utf-8")), path.read_text(encoding="utf-8")


ENTRY = {"gaze": "g.csv", "annotations": "a.csv"}


class TestFileFaults:
    """A missing, unwritable or undecodable file, or a malformed manifest, exits 2 with a message."""

    @pytest.mark.parametrize("argv, content, message", [
        ("extract --gaze {tmp}/nope.csv --out {tmp}/f.csv", None, "No such file or directory"),
        ("extract --gaze {golden} --out {tmp}/missing/f.csv", None, "No such file or directory"),
        ("pipeline --manifest {file}", json.dumps({"train": [], "test": [ENTRY]}), "'train' must be a non-empty list"),
        ("pipeline --manifest {file}", json.dumps({"train": [ENTRY], "test": [{"gaze": "g.csv"}]}),
         "'test' must be a non-empty list"),
        ("pipeline --manifest {file}", json.dumps({"train": "g.csv", "test": [ENTRY]}),
         "'train' must be a non-empty list"),
        ("pipeline --manifest {file}", b'{"train": \xff}', "can't decode byte 0xff"),
        ("synth --spec {file} --out {tmp}/g.csv", b'{"duration_s": \xff}', "can't decode byte 0xff"),
        ("predict --model {file} --features {golden_features} --out {tmp}/p.csv", b"GAZESVR1\n\xff\n",
         "can't decode byte 0xff"),
    ], ids=["missing_input", "missing_output_directory", "empty_train_list", "entry_without_annotations",
            "train_not_a_list", "byte_ff_in_manifest", "byte_ff_in_spec", "byte_ff_in_model"])
    def test_exits_2(self, tmp_path, capsys, argv, content, message):
        file = tmp_path / "input"
        if content is not None:
            file.write_bytes(content.encode() if isinstance(content, str) else content)
        argv = argv.format(tmp=tmp_path, file=file, golden=FIXTURES / "golden_gaze.csv",
                           golden_features=FIXTURES / "golden_features.csv")
        assert run(*argv.split()) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, content", [
        ("extract --gaze {golden} --out {path}", None),
        ("pipeline --manifest {path}", b'{"train": \xff}'),
        ("synth --spec {path} --out {tmp}/g.csv", b'{"duration_s": \xff}'),
        ("predict --model {path} --features {golden_features} --out {tmp}/p.csv", b"GAZESVR1\n\xff\n"),
        ("predict --model {path} --features {golden_features} --out {tmp}/p.csv", b"not a model\n"),
        ("synth --spec {path} --out {tmp}/g.csv", b'{"duration_s": 1}'),
    ], ids=["missing_output_directory", "byte_ff_in_manifest", "byte_ff_in_spec", "byte_ff_in_model",
            "not_a_model_file", "spec_without_rate"])
    def test_message_names_the_users_path(self, tmp_path, capsys, argv, content):
        path = tmp_path / ("missing/f.csv" if content is None else "input")
        if content is not None:
            path.write_bytes(content)
        argv = argv.format(tmp=tmp_path, path=path, golden=FIXTURES / "golden_gaze.csv",
                           golden_features=FIXTURES / "golden_features.csv")
        assert run(*argv.split()) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert ".tmp" not in err


class TestCsvFaultsNameTheFile:
    """A fault in a gaze, annotation or feature CSV names that file, with the exit code of the fault."""

    def test_gaze_file_with_byte_ff(self, tmp_path, capsys):
        bad = tmp_path / "bad_gaze.csv"
        bad.write_bytes((FIXTURES / "golden_gaze.csv").read_bytes().replace(b"\n", b"\n\xff", 1))
        assert run("extract", "--gaze", bad, "--out", tmp_path / "f.csv") == 2
        assert f"{bad}: line 2: text is not utf-8" in capsys.readouterr().err

    def test_gaze_value_fault(self, tmp_path, capsys):
        bad = tmp_path / "bad_gaze.csv"
        bad.write_text("frame,timestamp_ms,gaze_x,gaze_y,screen_distance_mm,eye_closed\n"
                       "0,0,0.1,0.0,600,0\n1,0,0.1,0.0,600,0\n")
        assert run("extract", "--gaze", bad, "--out", tmp_path / "f.csv") == 3
        assert f"{bad}: data row 2" in capsys.readouterr().err

    @UNREADABLE_TEXT
    def test_feature_file_line_fault(self, tmp_path, capsys, damage, message):
        features = tmp_path / "bad_features.csv"
        lines = (FIXTURES / "golden_features.csv").read_bytes().splitlines(keepends=True)
        features.write_bytes(b"".join(lines[:2] + [damage] + lines[2:]))
        ann = tmp_path / "ann.csv"
        write_annotation(ann, [(0.0, 0.1), (60_000.0, 0.2)])
        assert run("train", "--features", features, "--annotations", ann, "--dimension", "arousal",
                   "--out", tmp_path / "m.txt") == 2
        err = capsys.readouterr().err
        assert f"{features}: line 3: " in err and message in err

    def test_second_annotation_file_of_a_manifest(self, tmp_path, capsys):
        manifest = TestPipeline()._corpus(tmp_path)
        bad = tmp_path / "file1_ann.csv"
        bad.write_text("timestamp_ms,value\n0.0,0.1\noops,0.2\n", encoding="utf-8")
        assert run("pipeline", "--manifest", manifest) == 2
        err = capsys.readouterr().err
        assert f"{bad}: data row 2: unparseable value 'oops'" in err
        assert "file0_ann.csv" not in err

    def test_manifest_recording_shorter_than_a_window(self, tmp_path, capsys):
        manifest = TestPipeline()._corpus(tmp_path)
        short = tmp_path / "file1_gaze.csv"
        short.write_text("\n".join(short.read_text(encoding="utf-8").splitlines()[:61]) + "\n", encoding="utf-8")
        assert run("pipeline", "--manifest", manifest) == 3
        assert f"{short}: recording is shorter than one 3 s window" in capsys.readouterr().err

    def test_annotation_ending_before_the_final_window(self, tmp_path, capsys):
        _, features = make_recording(tmp_path, "rec", seed=3, duration_s=9.0)
        ann = tmp_path / "short_ann.csv"
        write_annotation(ann, [(0.0, 0.1), (1000.0, 0.2)])
        assert run("train", "--features", features, "--annotations", ann, "--dimension", "arousal",
                   "--out", tmp_path / "m.txt") == 3
        assert f"{ann}: annotation track ends at 1000.0 ms" in capsys.readouterr().err


class TestTrain:
    def test_zero_target_rows_filtered_and_logged(self, tmp_path, caplog):
        _, features = make_recording(tmp_path, "rec", seed=1)
        ann = tmp_path / "ann.csv"
        points = [(t, 0.0) for t in np.arange(0.0, 10000.0, 500.0)]
        points += [(t, 0.5) for t in np.arange(10000.0, 63500.0, 500.0)]
        write_annotation(ann, points)
        model_path = tmp_path / "model.txt"
        with caplog.at_level(logging.INFO, logger="gazecast"):
            rc = run("train", "--features", features, "--annotations", ann,
                     "--dimension", "valence", "--out", model_path)
        assert rc == 0
        text = caplog.text
        assert "dropped 4 zero-target row(s)" in text
        assert "training on 27 row(s)" in text
        assert model_path.read_text().startswith("GAZESVR1\ndimension valence\n")

    def test_no_drop_flag_keeps_rows(self, tmp_path, caplog):
        _, features = make_recording(tmp_path, "rec", seed=1)
        ann = tmp_path / "ann.csv"
        points = [(t, 0.0) for t in np.arange(0.0, 10000.0, 500.0)]
        points += [(t, 0.5) for t in np.arange(10000.0, 63500.0, 500.0)]
        write_annotation(ann, points)
        with caplog.at_level(logging.INFO, logger="gazecast"):
            rc = run("train", "--features", features, "--annotations", ann,
                     "--dimension", "valence", "--no-drop-zero-target",
                     "--out", tmp_path / "m.txt")
        assert rc == 0
        assert "training on 31 row(s) (0 zero-target row(s) dropped)" in caplog.text

    def test_all_zero_valence_exits_4(self, tmp_path):
        _, features = make_recording(tmp_path, "rec", seed=2, duration_s=15.0)
        ann = tmp_path / "ann.csv"
        write_annotation(ann, [(t, 0.0) for t in np.arange(0.0, 16000.0, 500.0)])
        rc = run("train", "--features", features, "--annotations", ann,
                 "--dimension", "valence", "--out", tmp_path / "m.txt")
        assert rc == 4

    def test_retrain_is_byte_identical(self, tmp_path):
        _, features = make_recording(tmp_path, "rec", seed=3)
        ann = tmp_path / "ann.csv"
        write_annotation(ann, [(t, 0.1 + 0.3 * np.sin(t / 9000.0)) for t in np.arange(0.0, 63500.0, 500.0)])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run("train", "--features", features, "--annotations", ann,
                       "--dimension", "arousal", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nonconvergence_exits_5(self, tmp_path, capsys):
        _, features = make_recording(tmp_path, "rec", seed=4)
        ann = tmp_path / "ann.csv"
        write_annotation(ann, [(t, 0.1 + 0.3 * np.sin(t / 9000.0)) for t in np.arange(0.0, 63500.0, 500.0)])
        rc = run("train", "--features", features, "--annotations", ann,
                 "--dimension", "arousal", "--max-passes", "1", "--out", tmp_path / "m.txt")
        assert rc == 5
        assert "tolerance" in capsys.readouterr().err

    def test_grid_c_selects_cv_best(self, tmp_path, caplog):
        _, features = make_recording(tmp_path, "rec", seed=5)
        ann = tmp_path / "ann.csv"
        write_annotation(ann, [(t, 0.1 + 0.3 * np.sin(t / 9000.0)) for t in np.arange(0.0, 63500.0, 500.0)])
        model_path = tmp_path / "m.txt"
        with caplog.at_level(logging.INFO, logger="gazecast"):
            rc = run("train", "--features", features, "--annotations", ann,
                     "--dimension", "arousal", "--grid-c", "0.01,0.1,1",
                     "--folds", "5", "--seed", "0", "--out", model_path)
        assert rc == 0
        # recompute the exhaustive grid scores independently
        from gazecast.windowing import targets_for_spans
        from gazecast.ingest import parse_annotation_csv
        spans, x = read_feature_csv(features)
        with open(ann) as f:
            track = parse_annotation_csv(f, "arousal")
        y = targets_for_spans(spans, track)
        best, results = grid_search_c(x, y, [0.01, 0.1, 1.0], SvrConfig(complexity_c=1.0), k=5, seed=0)
        assert f"complexity_c {best:.17g}" in model_path.read_text()
        for c, score in results:
            assert f"grid C={c:g} -> cv_cc={score:.5f}" in caplog.text


class TestPredictEvaluate:
    def _identity_model_file(self, tmp_path) -> Path:
        weights = np.zeros(31)
        weights[4] = 1.0  # x_mean passthrough
        model = SvrModel(
            weights=weights,
            bias=0.0,
            feature_means=np.zeros(31),
            feature_stds=np.ones(31),
            target_mean=0.0,
            target_std=1.0,
            dimension="arousal",
            config=SvrConfig(complexity_c=0.091),
            feature_names=tuple(FEATURE_NAMES),
        )
        path = tmp_path / "identity.txt"
        path.write_text(model_to_text(model), encoding="utf-8")
        return path

    def _crafted_features(self, tmp_path, x_means) -> Path:
        spans = np.array([[1000.0 * i, 1000.0 * (i + 1)] for i in range(len(x_means))])
        matrix = np.zeros((len(x_means), 31))
        matrix[:, 4] = x_means
        path = tmp_path / "crafted_features.csv"
        path.write_text(feature_csv_text(spans, matrix), encoding="utf-8")
        return path

    def test_predict_emits_one_row_per_window(self, tmp_path):
        model = self._identity_model_file(tmp_path)
        features = self._crafted_features(tmp_path, [0.1, -0.2, 0.4])
        out = tmp_path / "pred.csv"
        assert run("predict", "--model", model, "--features", features, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "window_start_ms,window_end_ms,prediction"
        assert len(lines) == 4
        assert [float(l.split(",")[2]) for l in lines[1:]] == [0.1, -0.2, 0.4]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_predict_rejects_non_finite_feature_cell(self, tmp_path, capsys, cell):
        model = self._identity_model_file(tmp_path)
        features = self._crafted_features(tmp_path, [0.1, -0.2, 0.4])
        lines = features.read_text().splitlines()
        fields = lines[2].split(",")
        fields[10] = cell
        lines[2] = ",".join(fields)
        features.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred.csv"
        assert run("predict", "--model", model, "--features", features, "--out", out) == 2
        assert "data row 2" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_perfect_predictions(self, tmp_path, capsys):
        model = self._identity_model_file(tmp_path)
        features = self._crafted_features(tmp_path, [0.1, -0.2, 0.4, 0.3])
        ann = tmp_path / "gold.csv"
        write_annotation(ann, [(500.0 + 1000.0 * i, v) for i, v in enumerate([0.1, -0.2, 0.4, 0.3])])
        csv_out = tmp_path / "report.csv"
        assert run("evaluate", "--model", model, "--features", features,
                   "--annotations", ann, "--csv-out", csv_out) == 0
        out = capsys.readouterr().out
        assert "pearson_cc: 1.00000" in out
        assert csv_out.read_text().splitlines()[1].startswith("arousal,4,1.0")

    def test_evaluate_constant_predictions_reports_error(self, tmp_path, capsys):
        weights = np.zeros(31)
        model = SvrModel(
            weights=weights, bias=0.25,
            feature_means=np.zeros(31), feature_stds=np.ones(31),
            target_mean=0.0, target_std=1.0, dimension="arousal",
            config=SvrConfig(complexity_c=0.091), feature_names=tuple(FEATURE_NAMES),
        )
        model_path = tmp_path / "const.txt"
        model_path.write_text(model_to_text(model), encoding="utf-8")
        features = self._crafted_features(tmp_path, [0.1, -0.2, 0.4])
        ann = tmp_path / "gold.csv"
        write_annotation(ann, [(500.0 + 1000.0 * i, v) for i, v in enumerate([0.1, -0.2, 0.4])])
        assert run("evaluate", "--model", model_path, "--features", features, "--annotations", ann) == 0
        assert "undefined" in capsys.readouterr().out

    def test_evaluate_refuses_unknown_model_dimension(self, tmp_path, capsys):
        model = self._identity_model_file(tmp_path)
        model.write_text(model.read_text().replace("dimension arousal\n", "dimension bogus\n"))
        features = self._crafted_features(tmp_path, [0.1, -0.2, 0.4])
        ann = tmp_path / "gold.csv"
        write_annotation(ann, [(500.0 + 1000.0 * i, v) for i, v in enumerate([0.1, -0.2, 0.4])])
        assert run("evaluate", "--model", model, "--features", features, "--annotations", ann) == 3
        err = capsys.readouterr().err
        assert "'bogus'" in err and "pass --dimension" not in err

    @UNREADABLE_TEXT
    def test_unreadable_feature_and_annotation_text_exits_2(self, tmp_path, capsys, damage, message):
        model = self._identity_model_file(tmp_path)
        features = self._crafted_features(tmp_path, [0.1, -0.2, 0.4])
        ann = tmp_path / "gold.csv"
        write_annotation(ann, [(500.0 + 1000.0 * i, v) for i, v in enumerate([0.1, -0.2, 0.4])])
        for bad in (features, ann):
            good = bad.read_bytes()
            lines = good.splitlines(keepends=True)
            bad.write_bytes(b"".join(lines[:2] + [damage] + lines[2:]))
            assert run("evaluate", "--model", model, "--features", features, "--annotations", ann) == 2
            err = capsys.readouterr().err
            assert message in err and "line 3" in err
            bad.write_bytes(good)

    def test_feature_csv_header_mismatch_exits_2(self, tmp_path):
        model = self._identity_model_file(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        assert run("predict", "--model", model, "--features", bad, "--out", tmp_path / "p.csv") == 2


class TestRankSelect:
    def _training_inputs(self, tmp_path):
        _, features = make_recording(tmp_path, "rec", seed=6)
        ann = tmp_path / "ann.csv"
        write_annotation(ann, [(t, 0.1 + 0.3 * np.sin(t / 9000.0)) for t in np.arange(0.0, 63500.0, 500.0)])
        return features, ann

    def test_rank_report(self, tmp_path, capsys):
        features, ann = self._training_inputs(tmp_path)
        csv_out = tmp_path / "rank.csv"
        assert run("rank", "--features", features, "--annotations", ann,
                   "--dimension", "arousal", "--csv-out", csv_out) == 0
        out = capsys.readouterr().out
        assert "Per-feature correlation ranking" in out
        assert "By absolute correlation" in out
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "rank,feature,correlation"
        assert len(lines) == 32

    def test_select_report(self, tmp_path, capsys):
        features, ann = self._training_inputs(tmp_path)
        csv_out = tmp_path / "sel.csv"
        assert run("select", "--features", features, "--annotations", ann,
                   "--dimension", "arousal", "--folds", "5", "--max-steps", "1",
                   "--csv-out", csv_out) == 0
        out = capsys.readouterr().out
        assert "Wrapper forward selection" in out
        assert csv_out.read_text().splitlines()[0] == "step,feature,cv_cc,degenerate_folds"


class TestFoldsOfOneRow:
    """A CV fold count that leaves one held-out row (10 folds of 14 windows) is refused, naming the counts."""

    @pytest.mark.parametrize("command", [["select"], ["train", "--grid-c", "0.1,1"]], ids=["select", "train_grid"])
    def test_refused_before_any_fit(self, tmp_path, capsys, monkeypatch, command):
        _, features = make_recording(tmp_path, "rec", seed=1, duration_s=30.0)
        ann = tmp_path / "ann.csv"
        write_annotation(ann, [(t, 0.1 + 0.3 * np.sin(t / 9000.0)) for t in np.arange(0.0, 30500.0, 500.0)])
        monkeypatch.setattr("gazecast.evaluation.fit_linear_svr", None)  # a fit would raise TypeError
        out = tmp_path / "out"
        assert run(*command, "--features", features, "--annotations", ann, "--dimension", "arousal",
                   "--csv-out" if command[0] == "select" else "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("gazecast: error: 10 folds of 14 rows leave a held-out fold of fewer than 2 rows")
        assert "at most 7 folds can be scored" in err
        assert not out.exists()


class TestPipeline:
    def _corpus(self, tmp_path, n_train=3, n_test=2):
        entries = {"train": [], "test": []}
        params = [(0.3, -3.0), (0.7, 3.0), (0.5, -3.0), (0.9, 3.0), (0.4, -3.0)]
        for i, (amp, slope) in enumerate(params[: n_train + n_test]):
            name = f"file{i}"
            spec = tmp_path / f"{name}_spec.json"
            spec.write_text(synth_spec_text(duration_s=21.0, amp=amp, slope_mm_s=slope), encoding="utf-8")
            gaze = tmp_path / f"{name}_gaze.csv"
            assert run("synth", "--spec", spec, "--seed", 50 + i, "--out", gaze) == 0
            ann = tmp_path / f"{name}_ann.csv"
            value = 0.6 * amp - 0.2 * (1.0 if slope < 0 else -1.0)
            write_annotation(ann, [(t, value) for t in np.arange(0.0, 21500.0, 500.0)])
            bucket = "train" if i < n_train else "test"
            entries[bucket].append({"gaze": gaze.name, "annotations": ann.name})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"dimension": "arousal", **entries}), encoding="utf-8")
        return manifest

    def test_pipeline_runs_and_is_deterministic(self, tmp_path, capsys):
        manifest = self._corpus(tmp_path)
        outs = []
        for tag in ("a", "b"):
            csv_out = tmp_path / f"report_{tag}.csv"
            model_out = tmp_path / f"model_{tag}.txt"
            pred_out = tmp_path / f"pred_{tag}.csv"
            assert run("pipeline", "--manifest", manifest, "--csv-out", csv_out,
                       "--model-out", model_out, "--predictions-out", pred_out) == 0
            outs.append((csv_out.read_bytes(), model_out.read_bytes(), pred_out.read_bytes()))
        assert outs[0] == outs[1]
        assert "pearson_cc" in capsys.readouterr().out
        report = (tmp_path / "report_a.csv").read_text().splitlines()[1]
        cc = float(report.split(",")[2])
        assert cc > 0.5  # strong synthetic signal; acceptance pins the tighter bound

    def test_missing_manifest_keys_exit_2(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"train": []}), encoding="utf-8")
        assert run("pipeline", "--manifest", manifest) == 2


class TestHelp:
    @pytest.mark.parametrize("command", ["extract", "train", "select", "pipeline"])
    def test_help_documents_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        if command in ("extract", "pipeline"):
            assert "--window-sec" in text and "default 3" in text
            assert "--psd-mode" in text and "default hz" in text
            assert "--velocity-threshold" in text and "default 0.5" in text
            assert "--zone-grid" in text
        if command in ("train", "select", "pipeline"):
            assert "--epsilon" in text and "default 0.001" in text
            assert "0.0325" in text and "0.091" in text
            assert "--drop-zero-target" in text
        if command in ("select", "pipeline"):
            assert "--folds" in text and "default 10" in text

    def test_python_m_gazecast(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "gazecast", "--help"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "pipeline" in proc.stdout

    @pytest.mark.skipif(shutil.which("gazecast") is None,
                        reason="gazecast console script not on PATH (package not installed)")
    def test_console_script_installed(self):
        proc = subprocess.run(["gazecast", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "pipeline" in proc.stdout


class TestAtomicWrite:
    def test_stale_tmp_directory_does_not_block_the_write(self, tmp_path):
        (tmp_path / "out.csv.tmp").mkdir()
        out = tmp_path / "out.csv"
        assert run("extract", "--gaze", FIXTURES / "golden_gaze.csv", "--out", out) == 0
        assert out.read_bytes() == (FIXTURES / "golden_features.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "out.csv").mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            _write_text_atomic(tmp_path / "out.csv", "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_writers_use_distinct_temp_files(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(Path(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        _write_text_atomic(tmp_path / "out.csv", "a\n")
        _write_text_atomic(tmp_path / "out.csv", "b\n")
        assert len(set(seen)) == 2 and all(p.parent == tmp_path for p in seen)
        assert (tmp_path / "out.csv").read_text() == "b\n"
