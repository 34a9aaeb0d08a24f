"""Independent oracles the test suite checks the implementation against.

Everything here deliberately avoids the library's own code paths: loops
instead of vectorized run-length tricks, explicit DFT sums instead of FFT,
scipy reference statistics instead of hand-rolled moments, and an
accelerated projected-gradient QP solver instead of SMO.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.stats


# --- reference statistics ----------------------------------------------------


def reference_stats(series):
    """(mean, sample std, population-moment skewness, q2-q1, q3-q2) via scipy/numpy.

    Applies the library's documented degenerate convention: a constant series
    yields (x[0], 0, 0, 0, 0). Skewness is scale-free, so it is taken on the
    series rescaled by an exact power of two (max|x| in [0.5, 1)); otherwise
    the moments of tiny inputs underflow and scipy returns nan.
    """
    x = np.asarray(series, dtype=np.float64)
    if np.all(x == x[0]):
        return float(x[0]), 0.0, 0.0, 0.0, 0.0
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    xs = np.ldexp(x, -math.frexp(float(np.max(np.abs(x))))[1])
    m2 = float(np.mean((xs - np.mean(xs)) ** 2))
    skew = 0.0 if m2 == 0.0 else float(scipy.stats.skew(xs, bias=True))
    q1, q2, q3 = (float(np.quantile(x, q, method="linear")) for q in (0.25, 0.5, 0.75))
    return mean, std, skew, q2 - q1, q3 - q2


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


# --- QP oracle for the epsilon-SVR dual ---------------------------------------


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
