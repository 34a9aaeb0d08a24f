"""Windowing, feature extraction and the SVR fit agree with the frozen seed program, bench/gazecast_seed.

Hypothesis draws small recordings (rates, jitter, constant and non-finite
stretches, gaps, blinks) and settings (both PSD modes, zone grids, window and
hop lengths). ``segment`` + ``extract_matrix`` must give the seed's windows
and feature bytes, or the seed's error message where the seed refuses.

It also draws small regression problems (ties, constant columns, a constant
target, n = 2, an occasional NaN) and solver settings; ``fit_linear_svr``
and the seed's must both meet the KKT conditions within the tolerance, agree
on held-out predictions within the bound the benchmark allows, and raise the
same error class, or neither raise. The check is in tolerance form only, so
a solver that takes another path to the optimum passes it too.

Known differences, and how the comparison treats them:

* skewness (``x_skewness``, ``y_skewness``, ``eye_close_count_skew``): the
  deviations are centred twice (the two-pass form recorded in CHANGES.md
  under "Lock-step batched SMO"), so these three columns are compared within
  1e-12 (skewness is scale-free) instead of bit for bit;
* the skewness underflow: where the seed raises ZeroDivisionError (m2**1.5
  underflowing to 0, recorded in CHANGES.md under "Tier-1 mended"), the
  input is not compared;
* a recording without windows: the seed returns an empty (0,) array, this
  program a (0, 31) matrix that stacks beside the (0, 2) spans (recorded in
  CHANGES.md under "One bit-identical SMO loop").
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gazecast.errors import GazecastError, ValidationError
from gazecast.features import FEATURE_NAMES, FeatureConfig, extract_matrix
from gazecast.ingest import GazeSequence
from gazecast.regression import SvrConfig, fit_linear_svr, predict_matrix
from gazecast.windowing import segment

from oracles import kkt_violations

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from gazecast_seed import errors as seed_errors  # noqa: E402
from gazecast_seed import features as seed_features  # noqa: E402
from gazecast_seed import ingest as seed_ingest  # noqa: E402
from gazecast_seed import regression as seed_regression  # noqa: E402
from gazecast_seed import windowing as seed_windowing  # noqa: E402

# The prediction bound of bench/workloads.py: 50 solver tolerances, in target standard deviations.
PRED_ATOL_PER_TOL_STD = 50.0

SKEW_COLUMNS = [FEATURE_NAMES.index(n) for n in ("x_skewness", "y_skewness", "eye_close_count_skew")]
EXACT_COLUMNS = [j for j in range(len(FEATURE_NAMES)) if j not in SKEW_COLUMNS]


@st.composite
def recordings(draw):
    """Columns (frame, ts, xs, ys, dist, closed) of a drawn recording of at most ~4800 samples."""
    rate = draw(st.floats(25.0, 120.0))
    n = int(draw(st.floats(2.0, 40.0)) * rate)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame_ms = 1000.0 / rate
    jitter = draw(st.sampled_from([0.0, 0.05, 0.45])) * frame_ms
    ts = draw(st.floats(0.0, 1e5)) + np.arange(n) * frame_ms + rng.uniform(-jitter, jitter, n)
    fixation = np.cumsum(rng.random(n) < 0.08)
    centres = rng.uniform(-1.2, 1.2, size=(fixation[-1] + 1, 2))
    xs = centres[fixation, 0] + rng.normal(0.0, 0.02, n)
    ys = centres[fixation, 1] + rng.normal(0.0, 0.02, n)
    dist = 600.0 + np.cumsum(rng.normal(0.0, 0.5, n))
    closed = np.repeat(rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.3])), 3)[:n]
    channels = {"x": xs, "y": ys, "distance": dist}
    for name in draw(st.lists(st.sampled_from(sorted(channels)), max_size=3, unique=True)):
        a = int(rng.integers(0, n))
        b = a + int(rng.integers(1, max(2, n // 2)))
        channels[name][a:b] = channels[name][a]  # a constant stretch
    if draw(st.booleans()) and draw(st.booleans()):  # a quarter of the draws: one non-finite sample
        channels[draw(st.sampled_from(sorted(channels)))][int(rng.integers(0, n))] = np.nan
    keep = np.ones(n, dtype=bool)
    gap = int(draw(st.sampled_from([0.0, 0.0, 0.0, 1.0, 4.0])) * rate)
    if gap:
        a = int(rng.integers(1, n))
        keep[a : a + gap] = False
        keep[-2:] = True
    return tuple(c[keep] for c in (np.arange(n), ts, xs, ys, dist, closed))


@given(
    recordings(),
    st.floats(0.3, 5.0),
    st.floats(0.2, 4.0),
    st.sampled_from(["hz", "normalized"]),
    st.integers(1, 5),
    st.sampled_from([0.1, 0.5, 3.0]),
    st.sampled_from([0.0, 0.2]),
)
@settings(max_examples=120)
def test_windows_and_features_match_the_seed(columns, window_s, hop_s, psd_mode, zone_grid, velocity, delta):
    knobs = dict(psd_mode=psd_mode, zone_grid=zone_grid, velocity_threshold=velocity, approach_delta_mm=delta)
    seq = GazeSequence(*columns)
    seed_seq = seed_ingest.GazeSequence(*columns)
    try:
        seed_windows = seed_windowing.segment(seed_seq, window_s, hop_s)
        want = seed_features.extract_matrix(seed_windows, seed_features.FeatureConfig(**knobs))
    except ZeroDivisionError:
        reject()  # the seed's skewness underflow
    except seed_errors.ValidationError as e:
        try:
            extract_matrix(segment(seq, window_s, hop_s), FeatureConfig(**knobs))
        except ValidationError as got:
            assert str(got) == str(e)
        else:
            raise AssertionError(f"the seed refused with {e!r}; this program did not")
        return

    windows = segment(seq, window_s, hop_s)
    assert windows.spans.tobytes() == np.array([[w.start_ms, w.end_ms] for w in seed_windows]).reshape(-1, 2).tobytes()
    assert windows.lo.tolist() == [w.lo for w in seed_windows]
    assert windows.hi.tolist() == [w.hi for w in seed_windows]
    got = extract_matrix(windows, FeatureConfig(**knobs))
    if len(windows) == 0:
        assert (got.shape, want.shape) == ((0, len(FEATURE_NAMES)), (0,))
        return
    np.testing.assert_array_equal(got[:, EXACT_COLUMNS], want[:, EXACT_COLUMNS])
    assert got[:, EXACT_COLUMNS].tobytes() == want[:, EXACT_COLUMNS].tobytes()  # the sign of zero too
    np.testing.assert_allclose(got[:, SKEW_COLUMNS], want[:, SKEW_COLUMNS], rtol=1e-12, atol=1e-12)


@st.composite
def regression_problems(draw):
    """(x, y, held-out x) of a drawn problem: at most 40 rows, 1-8 columns."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # integer values, half the rows duplicated: ties everywhere
        x = rng.integers(-2, 3, size=(n, d)).astype(float)
        y = rng.integers(-3, 4, size=n).astype(float)
        x[n // 2:], y[n // 2:] = x[: n - n // 2], y[: n - n // 2]
    else:
        x = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3, size=d), size=(n, d))
        y = x @ rng.normal(size=d) + rng.normal(size=n)
    for j in draw(st.lists(st.integers(0, d - 1), max_size=d, unique=True)):
        x[:, j] = rng.normal()  # a constant column
    if draw(st.integers(0, 7)) == 0:
        y[:] = y[0]  # a constant target
    if draw(st.integers(0, 15)) == 0:
        (x if draw(st.booleans()) else y.reshape(n, 1))[int(rng.integers(0, n)), 0] = np.nan
    return x, y, rng.normal(size=(7, d)) * np.std(x, axis=0) + np.mean(x, axis=0)


def _fit(fit, config, x, y):
    """The model *fit* gives, or the name of the error class it raises."""
    try:
        return fit(x, y, config)
    except (GazecastError, seed_errors.GazecastError) as e:
        return type(e).__name__


@given(regression_problems(), st.sampled_from([0.01, 0.0325, 0.091, 0.3, 2.0]), st.sampled_from([0.0, 0.001, 0.05]))
@settings(max_examples=150, deadline=None)
def test_fit_meets_the_seed_fit_within_tolerance(problem, c, eps):
    x, y, x_new = problem
    got = _fit(fit_linear_svr, SvrConfig(complexity_c=c, epsilon=eps), x, y)
    want = _fit(seed_regression.fit_linear_svr, seed_regression.SvrConfig(complexity_c=c, epsilon=eps), x, y)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    tol = got.config.tolerance
    assert kkt_violations(got, (x, y)) <= tol
    assert kkt_violations(want, (x, y)) <= tol
    np.testing.assert_allclose(predict_matrix(got, x_new), seed_regression.predict_matrix(want, x_new),
                               rtol=0.0, atol=PRED_ATOL_PER_TOL_STD * tol * want.target_std)
