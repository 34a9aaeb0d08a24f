"""Independent oracles the test suite checks the implementation against.

Everything here deliberately avoids the library's own code paths: loops
instead of vectorized run-length tricks, explicit DFT sums instead of FFT,
exact rational skewness and scipy statistics instead of hand-rolled moments, an
accelerated projected-gradient QP solver instead of SMO, and the SMO
loop in its plain two-array form.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import scipy.stats

from gazecast.errors import ValidationError


# --- reference statistics ----------------------------------------------------


def exact_skewness(series) -> float:
    """Population-moment skewness m3 / m2**1.5, in exact rational arithmetic rounded once at the end.

    Float moments (scipy.stats.skew) lose digits when the spread is small
    against the mean: on [-655741.3607610182, -655547.0, -655493.0] scipy is
    off by 1.1e-12, while the exact value rounds to -0.573600875617236.
    """
    x = [Fraction(float(v)) for v in series]
    mean = sum(x) / len(x)
    d = [v - mean for v in x]
    m2 = sum(v * v for v in d) / len(x)
    m3 = sum(v * v * v for v in d) / len(x)
    if m2 == 0:
        return 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        m2_dec = Decimal(m2.numerator) / Decimal(m2.denominator)
        return float(Decimal(m3.numerator) / Decimal(m3.denominator) / (m2_dec * m2_dec.sqrt()))


def reference_stats(series):
    """(mean, sample std, population-moment skewness, q2-q1, q3-q2) via numpy and exact skewness.

    Applies the library's documented degenerate convention: a constant series
    yields (x[0], 0, 0, 0, 0).
    """
    x = np.asarray(series, dtype=np.float64)
    if np.all(x == x[0]):
        return float(x[0]), 0.0, 0.0, 0.0, 0.0
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    q1, q2, q3 = (float(np.quantile(x, q, method="linear")) for q in (0.25, 0.5, 0.75))
    return mean, std, exact_skewness(x), q2 - q1, q3 - q2


def pearson_oracle(a, b) -> float:
    return float(np.corrcoef(np.asarray(a, float), np.asarray(b, float))[0, 1])


# --- spectral oracles --------------------------------------------------------


def dft_bin(x: np.ndarray, k: int, n_total: int) -> complex:
    """X[k] of x zero-padded to n_total, by explicit summation."""
    idx = np.arange(len(x))
    return complex(np.sum(x * np.exp(-2j * np.pi * k * idx / n_total)))


def dft_band_psd(series, rate_hz: float, resolution_hz: float = 0.011, mode: str = "hz") -> np.ndarray:
    """Brute-force recomputation of the five band powers."""
    x = np.asarray(series, dtype=np.float64)
    x = x - np.mean(x)
    n = len(x)
    n_pad = max(n, int(math.ceil(rate_hz / resolution_hz)))
    n_bins = n_pad // 2 + 1
    freqs = np.array([k * rate_hz / n_pad for k in range(n_bins)])
    scale = rate_hz if mode == "normalized" else 1.0

    needed = set()
    singles = []
    for target in (0.011, 0.022):
        k = int(np.argmin(np.abs(freqs - target * scale)))
        singles.append(k)
        needed.add(k)
    ranges = []
    for lo, hi in ((0.033, 0.044), (0.055, 0.066), (0.077, 0.133)):
        ks = [k for k in range(n_bins) if lo * scale <= freqs[k] <= hi * scale]
        if not ks:
            ks = [int(np.argmin(np.abs(freqs - 0.5 * (lo + hi) * scale)))]
        ranges.append(ks)
        needed.update(ks)

    power = {k: abs(dft_bin(x, k, n_pad)) ** 2 / n for k in needed}
    out = [power[singles[0]], power[singles[1]]]
    out += [float(np.mean([power[k] for k in ks])) for ks in ranges]
    return np.array(out)


# --- windowing oracle ----------------------------------------------------------


def loop_window_count(duration_ms: float, window_ms: float, hop_ms: float) -> int:
    """Emit windows at 0, hop, 2*hop, ... while they fit; count them."""
    count = 0
    start = 0.0
    while start + window_ms <= duration_ms:
        count += 1
        start += hop_ms
    return count


# --- episode / path oracles (plain loops) -------------------------------------


def loop_runs(flags) -> list[tuple[int, int]]:
    """[start, stop) pairs of maximal True runs, found by scanning."""
    runs = []
    start = None
    for i, f in enumerate(flags):
        if f and start is None:
            start = i
        elif not f and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(flags)))
    return runs


def loop_scan_paths(xs, ys, ts_ms, velocity_threshold: float) -> list[float]:
    xs, ys, ts = (np.asarray(a, float) for a in (xs, ys, ts_ms))
    scanning = []
    dists = []
    for i in range(len(xs) - 1):
        d = math.hypot(xs[i + 1] - xs[i], ys[i + 1] - ys[i])
        dt = (ts[i + 1] - ts[i]) / 1000.0
        dists.append(d)
        scanning.append(d / dt > velocity_threshold)
    return [sum(dists[a:b]) for a, b in loop_runs(scanning)]


def loop_approach(dist_mm, ts_ms, delta_mm: float) -> tuple[float, float]:
    d = np.asarray(dist_mm, float)
    ts = np.asarray(ts_ms, float)
    approaching = [(d[i] - d[i + 1]) > delta_mm for i in range(len(d) - 1)]
    ratio = sum(approaching) / len(approaching)
    durations = [ts[b] - ts[a] for a, b in loop_runs(approaching)]
    if not durations:
        return ratio, 0.0
    return ratio, float(np.mean(durations))


def loop_closure(flags) -> tuple[float, float, float]:
    lengths = [b - a for a, b in loop_runs(list(flags))]
    if not lengths:
        return 0.0, 0.0, 0.0
    if len(lengths) == 1:
        return float(lengths[0]), 0.0, 0.0
    arr = np.array(lengths, float)
    skew = 0.0 if np.all(arr == arr[0]) else float(scipy.stats.skew(arr, bias=True))
    return float(np.mean(arr)), float(np.std(arr, ddof=1)), skew


def loop_zone_stats(xs, ys, axis, grid, bounds) -> tuple[float, float]:
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    xmin, xmax, ymin, ymax = bounds
    cells: dict[tuple[int, int], list[float]] = {}
    for x, y in zip(xs, ys):
        ix = int(math.floor((x - xmin) / (xmax - xmin) * grid))
        iy = int(math.floor((y - ymin) / (ymax - ymin) * grid))
        ix = min(max(ix, 0), grid - 1)
        iy = min(max(iy, 0), grid - 1)
        cells.setdefault((ix, iy), []).append(x if axis == "x" else y)
    stds = [float(np.std(v, ddof=1)) for k, v in sorted(cells.items()) if len(v) >= 2]
    if not stds:
        return 0.0, 0.0
    if len(stds) == 1:
        return stds[0], 0.0
    return float(np.mean(stds)), float(np.std(stds, ddof=1))


# --- KKT audit and QP oracle for the epsilon-SVR dual -------------------------


def kkt_violations(model, data, config=None) -> float:
    """Max KKT violation of a fitted model on its training data (x, y).

    Requires solver diagnostics (a freshly fitted or truncated model);
    serialized models do not retain the multipliers needed for the check.
    """
    if model.diagnostics is None:
        raise ValidationError("model lacks solver diagnostics; only in-memory fits can be audited")
    cfg = config or model.config
    x, y = data
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = model.diagnostics
    stds = np.where(model.feature_stds == 0.0, 1.0, model.feature_stds)
    z = (x - model.feature_means) / stds
    y_std = (y - model.target_mean) / model.target_std
    r = y_std - z @ d.weights_std
    v_up = r - cfg.epsilon
    v_dn = r + cfg.epsilon
    b = d.bias_std
    c = cfg.complexity_c
    worst = 0.0
    if np.any(d.alpha_up < c):
        worst = max(worst, float(np.max(v_up[d.alpha_up < c]) - b))
    if np.any(d.alpha_up > 0):
        worst = max(worst, float(b - np.min(v_up[d.alpha_up > 0])))
    if np.any(d.alpha_down > 0):
        worst = max(worst, float(np.max(v_dn[d.alpha_down > 0]) - b))
    if np.any(d.alpha_down < c):
        worst = max(worst, float(b - np.min(v_dn[d.alpha_down < c])))
    return max(worst, 0.0)


# --- reference SMO loop -------------------------------------------------------


def reference_smo_solve(
    k_mat: np.ndarray, y: np.ndarray, c: float, eps: float, tol: float, max_iter: int,
    start=None,
) -> tuple[np.ndarray, np.ndarray, float, int, bool, float]:
    """Maximal-violating-pair SMO on the epsilon-SVR dual, from *start* (default: the zero state).

    The reference that regression._smo_solve must match bit for bit, in the
    plain two-array form: separate alpha_up and alpha_down arrays, four
    masked copies of v per update, one argmax or argmin per copy, and Gram
    columns read as columns.

    Returns (alpha_up, alpha_down, bias, iterations, converged, final_gap)
    where the gap is the worst KKT bound mismatch b_lo - b_hi.
    """
    n = len(y)
    if start is None:
        a_up, a_dn, u, it = np.zeros(n), np.zeros(n), np.zeros(n), 0  # u = K @ (a_up - a_dn)
    else:
        a_up, a_dn, u = (np.array(v, dtype=np.float64) for v in start[:3])
        it = int(start[3])
    neg_inf = -np.inf
    while True:
        r = y - u
        v_up = r - eps
        v_dn = r + eps
        # b must satisfy: b >= v_up where a_up < C, b >= v_dn where a_dn > 0,
        #                 b <= v_up where a_up > 0, b <= v_dn where a_dn < C.
        lo_up = np.where(a_up < c, v_up, neg_inf)
        lo_dn = np.where(a_dn > 0.0, v_dn, neg_inf)
        hi_up = np.where(a_up > 0.0, v_up, -neg_inf)
        hi_dn = np.where(a_dn < c, v_dn, -neg_inf)
        iu, idn = int(np.argmax(lo_up)), int(np.argmax(lo_dn))
        ju, jdn = int(np.argmin(hi_up)), int(np.argmin(hi_dn))
        if lo_up[iu] >= lo_dn[idn]:
            i_slot, i_val, b_lo = ("up", iu, lo_up[iu])
        else:
            i_slot, i_val, b_lo = ("dn", idn, lo_dn[idn])
        if hi_up[ju] <= hi_dn[jdn]:
            j_slot, j_val, b_hi = ("up", ju, hi_up[ju])
        else:
            j_slot, j_val, b_hi = ("dn", jdn, hi_dn[jdn])
        gap = b_lo - b_hi
        if gap <= tol:
            return a_up, a_dn, float((b_lo + b_hi) / 2.0), it, True, float(gap)
        if it >= max_iter:
            return a_up, a_dn, float((b_lo + b_hi) / 2.0), it, False, float(gap)

        k, m = i_val, j_val
        eta = k_mat[k, k] + k_mat[m, m] - 2.0 * k_mat[k, m]
        cap_i = (c - a_up[k]) if i_slot == "up" else a_dn[k]
        cap_j = a_up[m] if j_slot == "up" else (c - a_dn[m])
        step = gap / eta if eta > 1e-12 else math.inf
        lam = min(step, cap_i, cap_j)

        if i_slot == "up":
            a_up[k] = c if lam >= cap_i else a_up[k] + lam
        else:
            a_dn[k] = 0.0 if lam >= cap_i else a_dn[k] - lam
        if j_slot == "up":
            a_up[m] = 0.0 if lam >= cap_j else a_up[m] - lam
        else:
            a_dn[m] = c if lam >= cap_j else a_dn[m] + lam

        if k != m:
            u += lam * (k_mat[:, k] - k_mat[:, m])
        it += 1
        if it % 4096 == 0:  # regression._REFRESH_EVERY
            u = k_mat @ (a_up - a_dn)  # shed accumulated rounding


def project_box_hyperplane(v: np.ndarray, d: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto {z : 0 <= z <= c, d @ z = 0} with d in {+1,-1}^m.

    The projection is z(nu) = clip(v - nu*d, 0, c) where nu solves the
    monotone piecewise-linear equation d @ z(nu) = 0; solved exactly via the
    breakpoint segments (duplicates are harmless zero-width segments).
    """
    pos = d > 0
    vp = v[pos]
    vn = v[~pos]
    bp = np.sort(np.concatenate([vp - c, vp, -vn, -vn + c]))
    z_at = np.minimum(np.maximum(v[None, :] - bp[:, None] * d[None, :], 0.0), c)
    g = z_at @ d
    idx = int(np.searchsorted(-g, 0.0, side="left"))  # g is non-increasing
    if idx == 0:
        nu = bp[0]
    elif idx >= len(bp):
        nu = bp[-1]
    else:
        g0, g1 = g[idx - 1], g[idx]
        if g1 == g0:
            nu = bp[idx] if abs(g1) < abs(g0) else bp[idx - 1]
        else:
            nu = bp[idx - 1] + (bp[idx] - bp[idx - 1]) * (0.0 - g0) / (g1 - g0)
    return np.minimum(np.maximum(v - nu * d, 0.0), c)


def qp_oracle_svr(x: np.ndarray, y: np.ndarray, c: float, eps: float, max_iter: int = 200_000):
    """Solve the epsilon-SVR dual (on internally z-scored data) by FISTA.

    Returns a dict with the dual objective, the multipliers, the standardized
    weights/bias, and a predict(x_new) function in original units.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    # Standardization mirrors the library's documented convention (value-based
    # constant detection, sentinel std 1); the QP solve below is independent.
    const = np.all(x == x[0], axis=0)
    mu = np.where(const, x[0], x.mean(axis=0))
    sd = x.std(axis=0, ddof=1)
    sd = np.where(const | (sd == 0.0), 1.0, sd)
    z_x = (x - mu) / sd
    if np.all(y == y[0]):
        t_mean, t_std, y_std = float(y[0]), 1.0, np.zeros_like(y)
    else:
        t_mean = float(np.mean(y))
        t_std = float(np.std(y, ddof=1)) or 1.0
        y_std = (y - t_mean) / t_std

    k_mat = z_x @ z_x.T
    q = np.block([[k_mat, -k_mat], [-k_mat, k_mat]])
    p = np.concatenate([eps - y_std, eps + y_std])
    d = np.concatenate([np.ones(n), -np.ones(n)])

    lam_max = float(np.max(np.linalg.eigvalsh(q)))
    step = 1.0 / max(lam_max, 1e-12)

    def objective(z):
        return float(0.5 * z @ (q @ z) + p @ z)

    z = np.zeros(2 * n)
    z_momentum = z.copy()
    t = 1.0
    f_cur = objective(z)
    stall = 0
    for _ in range(max_iter):
        z_new = project_box_hyperplane(z_momentum - step * (q @ z_momentum + p), d, c)
        f_new = objective(z_new)
        if f_new > f_cur:  # momentum overshoot: restart from the last good point
            z_momentum = z.copy()
            t = 1.0
            z_new = project_box_hyperplane(z - step * (q @ z + p), d, c)
            f_new = objective(z_new)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z_momentum = z_new + ((t - 1.0) / t_next) * (z_new - z)
        stall = stall + 1 if abs(f_cur - f_new) <= 1e-15 * max(1.0, abs(f_new)) else 0
        z, f_cur, t = z_new, f_new, t_next
        if stall >= 64:
            break

    a_up, a_dn = z[:n], z[n:]
    beta = a_up - a_dn
    u = k_mat @ beta
    r = y_std - u
    v_up, v_dn = r - eps, r + eps
    bt = 1e-10 * max(c, 1.0)
    lo = [v_up[a_up < c - bt], v_dn[a_dn > bt]]
    hi = [v_up[a_up > bt], v_dn[a_dn < c - bt]]
    b_lo = max((float(np.max(v)) for v in lo if len(v)), default=-np.inf)
    b_hi = min((float(np.min(v)) for v in hi if len(v)), default=np.inf)
    b_std = (b_lo + b_hi) / 2.0
    w_std = z_x.T @ beta

    def predict(x_new):
        x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
        return t_mean + t_std * (((x_new - mu) / sd) @ w_std + b_std)

    return {
        "dual_objective": f_cur,
        "alpha_up": a_up,
        "alpha_down": a_dn,
        "weights_std": w_std,
        "bias_std": b_std,
        "predict": predict,
    }
