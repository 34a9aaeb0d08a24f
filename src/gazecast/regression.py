"""Linear epsilon-insensitive support vector regression via an SMO-style dual solver.

The dual is solved in the classic two-multiplier form: each training point i
carries a pair (alpha_i, alpha*_i) in [0, C], alpha pulling the prediction up
and alpha* pulling it down, under the coupling constraint
sum(alpha - alpha*) = 0. Each iteration picks the maximal violating pair of
multiplier slots (the two-threshold rule of Shevade et al., IEEE TNN 2000)
and minimizes the objective exactly along the feasible two-slot direction.
Features and target are z-scored internally (sample std, zero-variance
columns get a sentinel std of 1), so the complexity parameter C and the tube
half-width epsilon both live in standardized space; returned weights and
bias are collapsed back to original units.

The one solver, :func:`_smo_solve`, takes tens of thousands of updates for a
fit of a few hundred rows, so the cost of one update sets the cost of a fit;
its docstring gives the bookkeeping that keeps an update to nine NumPy calls
and otherwise to Python floats. A run can be resumed from any state
(alpha_up, alpha_down, u = K @ (alpha_up - alpha_down), updates) it stood in;
a fresh fit starts from the zero state.

:func:`fit_linear_svr` is the one fit entry point, on raw (x, y) arrays;
:func:`model_to_text` and :func:`model_from_text` are the one model file
writer and reader.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDataError, SchemaError, ValidationError
from .features import N_FEATURES
from .ingest import DIMENSIONS

logger = logging.getLogger(__name__)

MODEL_MAGIC = "GAZESVR1"

# Where an SMO run stands: (alpha_up, alpha_down, u = K @ (alpha_up - alpha_down), updates).
SmoState = tuple[np.ndarray, np.ndarray, np.ndarray, int]

# u is recomputed from the multipliers every this many updates, shedding drift.
_REFRESH_EVERY = 4096


@dataclass(frozen=True)
class SvrConfig:
    """Solver settings. complexity_c and epsilon apply to z-scored data.

    max_passes caps the number of pairwise working-set updates. The
    maximal-violating-pair sweep is deterministic, ties resolving to the
    lowest slot index, so the solver takes no seed.
    """

    complexity_c: float
    epsilon: float = 0.001
    tolerance: float = 0.001
    max_passes: int = 200_000

    def __post_init__(self):
        # Written as not (0 < v < inf) so that NaN fails them too. A finite
        # setting keeps the solver's v = y - u -/+ epsilon finite.
        if not (0 < self.complexity_c < math.inf):
            raise ValidationError("complexity_c must be > 0 and finite")
        if not (0 <= self.epsilon < math.inf):
            raise ValidationError("epsilon must be >= 0 and finite")
        if not (0 < self.tolerance < math.inf):
            raise ValidationError("tolerance must be > 0 and finite")
        if not (self.max_passes >= 1):
            raise ValidationError("max_passes must be >= 1")


@dataclass
class SolverDiagnostics:
    """Internals of one fit, kept for auditing; never serialized."""

    n_iterations: int
    converged: bool
    kkt_gap: float
    dual_objective: float
    alpha_up: np.ndarray
    alpha_down: np.ndarray
    weights_std: np.ndarray
    bias_std: float


@dataclass
class SvrModel:
    """Trained linear epsilon-SVR, collapsed to per-feature weights.

    weights/bias are in original units; feature_stds carries a sentinel 1.0
    (with weight 0) for zero-variance training columns.
    """

    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray
    target_mean: float
    target_std: float
    dimension: str
    config: SvrConfig
    feature_names: tuple[str, ...]
    diagnostics: SolverDiagnostics | None = None

    def __post_init__(self):
        for name in ("weights", "feature_means", "feature_stds"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        d = len(self.weights)
        if len(self.feature_means) != d or len(self.feature_stds) != d or len(self.feature_names) != d:
            raise ValidationError("model parameter lengths disagree")
        finite = (
            np.all(np.isfinite(self.weights))
            and np.all(np.isfinite(self.feature_means))
            and np.all(np.isfinite(self.feature_stds))
            and math.isfinite(self.bias)
            and math.isfinite(self.target_mean)
            and math.isfinite(self.target_std)
        )
        if not finite:
            raise ValidationError("model parameters must be finite")
        if np.any(self.feature_stds < 0):
            raise ValidationError("feature_stds must be >= 0")
        if self.dimension not in (*DIMENSIONS, ""):
            raise ValidationError(f"model dimension must be one of {DIMENSIONS} or empty, got {self.dimension!r}")


@dataclass
class TrainingSet:
    """Feature rows joined to affect targets for one dimension."""

    features: np.ndarray
    targets: np.ndarray
    dimension: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] != N_FEATURES:
            raise ValidationError(f"features must be (n, {N_FEATURES}), got {self.features.shape}")
        if len(self.targets) != len(self.features):
            raise ValidationError("features/targets row counts differ")
        if not np.all(np.isfinite(self.targets)):
            raise ValidationError("targets must be finite")
        if self.dimension not in DIMENSIONS:
            raise ValidationError(f"dimension must be one of {DIMENSIONS}, got {self.dimension!r}")

    @property
    def n_rows(self) -> int:
        return len(self.targets)


def filter_zero_targets(data: TrainingSet) -> TrainingSet:
    """Drop rows whose target is exactly 0.0, preserving order."""
    mask = data.targets != 0.0
    dropped = int(np.sum(~mask))
    if not np.any(mask):
        raise DegenerateDataError("all targets are 0.0; training set is empty after the zero filter")
    if dropped:
        logger.info("dropped %d zero-target row(s); %d row(s) remain", dropped, int(np.sum(mask)))
    return TrainingSet(data.features[mask], data.targets[mask], data.dimension)


def standardize_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column z-scoring with sample std; zero-variance columns map to 0 with sentinel std 1.

    Constant columns are detected by value comparison, not by std == 0: the
    sample std of a bitwise-constant column can round to a nonzero 1e-16,
    which would otherwise amplify rounding noise into O(1) fake variation.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 2:
        raise DegenerateDataError("standardization needs at least 2 rows")
    const = np.all(x == x[0], axis=0)
    means = np.where(const, x[0], np.mean(x, axis=0))
    stds = np.std(x, axis=0, ddof=1)
    stds = np.where(const | (stds == 0.0), 1.0, stds)
    return means, stds, (x - means) / stds


def _smo_solve(
    k_mat: np.ndarray, y: np.ndarray, c: float, eps: float, tol: float, max_iter: int,
    start: SmoState | None = None,
) -> tuple[np.ndarray, np.ndarray, float, int, bool, float]:
    """Maximal-violating-pair SMO on the epsilon-SVR dual, from *start* (default: the zero state).

    Returns (alpha_up, alpha_down, bias, iterations, converged, final_gap)
    where the gap is the worst KKT bound mismatch b_lo - b_hi. Resuming a
    state that an earlier run stopped in gives the iterates that run would
    have gone on to. The multipliers of *start* must lie in [0, C].

    The 2n multiplier slots live in one Python list ``alpha = [alpha_up |
    alpha_down]`` of floats beside the array v = [r - eps | r + eps],
    r = y - u, formed as ``[r | r] - [eps | -eps]`` (x - (-eps) rounds
    exactly like x + eps). The bias must satisfy b >= v on the lower set
    (alpha_up < C, alpha_down > 0) and b <= v on the upper set (alpha_up > 0,
    alpha_down < C). lo_cap is +inf on the lower set and -inf elsewhere,
    hi_cap -inf on the upper set and +inf elsewhere, so ``min(v, lo_cap)``
    and ``max(v, hi_cap)`` are v inside the set and -inf or +inf outside it:
    exactly the masked copies for finite v, -0.0 included (SvrConfig refuses
    non-finite settings). The first argmax of one and the first argmin of
    the other are the pair, up slot before down slot on ties, then the
    lowest index. An update moves two slots; a slot's caps change only when
    its move leaves 0 or C or reaches it, and only then are they rewritten.
    Gram entries are read as Python floats, the multipliers are turned back
    into an array only at a refresh of u and at return, and an update makes
    nine NumPy calls; outputs are passed positionally and the step as a 0-d
    array, which spares each call a keyword parse or a float conversion.

    An update reads Gram rows, which are contiguous, where the pair's
    columns are meant: ``z @ z.T`` is computed by a symmetric rank-k update
    that mirrors one triangle, so K equals its transpose bit for bit
    (pinned by a test). Every _REFRESH_EVERY updates u is recomputed from
    the multipliers to shed accumulated rounding.
    """
    n = len(y)
    if start is None:
        alpha, u, it = np.zeros(2 * n), np.zeros(n), 0  # u = K @ (alpha_up - alpha_down)
    else:
        alpha = np.concatenate([np.asarray(a, dtype=np.float64) for a in start[:2]])
        u, it = np.array(start[2], dtype=np.float64), int(start[3])
    inf = math.inf
    lo_cap = np.where(np.concatenate([alpha[:n] < c, alpha[n:] > 0.0]), inf, -inf)
    hi_cap = np.where(np.concatenate([alpha[:n] > 0.0, alpha[n:] < c]), -inf, inf)
    alpha = alpha.tolist()
    diag, rows = k_mat.diagonal().tolist(), list(k_mat)
    shift = np.concatenate([np.full(n, eps), np.full(n, -eps)])
    v, lo, hi, du = np.empty(2 * n), np.empty(2 * n), np.empty(2 * n), np.empty(n)
    v_pair, lam_0d = v.reshape(2, n), np.zeros(())
    refresh_at = (it // _REFRESH_EVERY + 1) * _REFRESH_EVERY
    while True:
        np.subtract(y, u, v_pair)
        np.subtract(v, shift, v)
        np.minimum(v, lo_cap, out=lo)
        np.maximum(v, hi_cap, out=hi)
        i, j = int(lo.argmax()), int(hi.argmin())
        b_lo, b_hi = lo.item(i), hi.item(j)
        gap = b_lo - b_hi
        if gap <= tol or it >= max_iter:
            a = np.array(alpha)
            return a[:n], a[n:], (b_lo + b_hi) / 2.0, it, gap <= tol, gap

        i_up, j_up = i < n, j < n
        k, m = i % n, j % n
        eta = diag[k] + diag[m] - 2.0 * k_mat.item(k, m)
        a_i, a_j = alpha[i], alpha[j]
        cap_i = (c - a_i) if i_up else a_i
        cap_j = a_j if j_up else (c - a_j)
        lam = gap / eta if eta > 1e-12 else inf
        if cap_i < lam:  # min(step, cap_i, cap_j), the earliest on ties
            lam = cap_i
        if cap_j < lam:
            lam = cap_j

        # i and j never name the same slot: that would make the gap 0, and the tolerance is > 0.
        # A rising slot (up slot i, down slot j) goes from [0, C) into (0, C], a falling one from
        # (0, C] into [0, C): its caps can change only if it leaves 0 or reaches C, or leaves C
        # or reaches 0. They are rewritten from the new value then, so extra rewrites are harmless.
        if i_up:
            new = c if lam >= cap_i else a_i + lam
            if a_i == 0.0 or new == c:
                lo_cap[i] = inf if new < c else -inf
                hi_cap[i] = -inf if new > 0.0 else inf
        else:
            new = 0.0 if lam >= cap_i else a_i - lam
            if a_i == c or new == 0.0:
                lo_cap[i] = inf if new > 0.0 else -inf
                hi_cap[i] = -inf if new < c else inf
        alpha[i] = new
        if j_up:
            new = 0.0 if lam >= cap_j else a_j - lam
            if a_j == c or new == 0.0:
                lo_cap[j] = inf if new < c else -inf
                hi_cap[j] = -inf if new > 0.0 else inf
        else:
            new = c if lam >= cap_j else a_j + lam
            if a_j == 0.0 or new == c:
                lo_cap[j] = inf if new > 0.0 else -inf
                hi_cap[j] = -inf if new < c else inf
        alpha[j] = new

        if k != m:
            np.subtract(rows[k], rows[m], du)
            lam_0d[()] = lam
            np.multiply(du, lam_0d, du)
            np.add(u, du, u)
        it += 1
        if it == refresh_at:
            refresh_at += _REFRESH_EVERY
            a = np.array(alpha)
            u[:] = k_mat @ (a[:n] - a[n:])


def _absorb_sum_drift(a_up: np.ndarray, a_dn: np.ndarray, c: float) -> None:
    """Restore sum(a_up - a_dn) == 0 to fsum precision after float drift.

    Only a strictly interior multiplier may absorb the (few-ulp) drift:
    shifting one keeps every bound-set membership intact, so the KKT
    bookkeeping is unchanged. With every multiplier exactly at a bound the
    sum is an exact multiple of C and there is no drift to absorb.
    """
    drift = math.fsum(a_up) - math.fsum(a_dn)
    if drift == 0.0:
        return
    margin_up = np.minimum(a_up, c - a_up)
    margin_dn = np.minimum(a_dn, c - a_dn)
    k_up = int(np.argmax(margin_up))
    k_dn = int(np.argmax(margin_dn))
    if margin_up[k_up] >= margin_dn[k_dn]:
        if margin_up[k_up] > 2.0 * abs(drift):
            a_up[k_up] -= drift
    elif margin_dn[k_dn] > 2.0 * abs(drift):
        a_dn[k_dn] += drift


def fit_linear_svr(
    x: np.ndarray,
    y: np.ndarray,
    config: SvrConfig,
    *,
    names: tuple[str, ...] | None = None,
    dimension: str = "arousal",
) -> SvrModel:
    """Fit a linear epsilon-SVR on raw arrays; deterministic for fixed inputs.

    Raises ConvergenceError (carrying the partial model) if max_passes is hit
    before the KKT gap drops to tolerance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y):
        raise ValidationError("x must be (n, d) with one target per row")
    if len(y) < 2:
        raise DegenerateDataError(f"fitting needs at least 2 rows, got {len(y)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("non-finite feature or target values")
    if not math.isfinite(2.0 * len(y) * config.complexity_c):  # so that math.fsum of the multipliers cannot overflow
        raise ValidationError(f"complexity_c {config.complexity_c:g} is too large for {len(y)} rows")

    means, stds, z = standardize_columns(x)
    (t_mean,), (t_std,), y_std = standardize_columns(y[:, None])  # the target, by the same sentinel rule
    y_std = y_std[:, 0]

    k_mat = z @ z.T
    a_up, a_dn, b_std, iters, converged, gap = _smo_solve(
        k_mat, y_std, config.complexity_c, config.epsilon, config.tolerance, config.max_passes
    )
    _absorb_sum_drift(a_up, a_dn, config.complexity_c)
    beta = a_up - a_dn
    w_std = z.T @ beta
    # beta @ K @ beta == |z.T @ beta|^2: the Gram matrix is needed by the solver only. The objective is a
    # diagnostic only: where a huge C overflows it, it reads inf or nan, and that is not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        dual_objective = float(
            0.5 * (w_std @ w_std) - y_std @ beta + config.epsilon * (math.fsum(a_up) + math.fsum(a_dn))
        )

    # Constant (sentinel-std) columns carry weight 0 by construction: their z column is 0.
    weights = t_std * w_std / stds
    bias = t_mean + t_std * (b_std - float(np.sum(w_std * means / stds)))
    model = SvrModel(
        weights=weights,
        bias=float(bias),
        feature_means=means,
        feature_stds=stds,  # sentinel 1.0 where the column had zero variance
        target_mean=float(t_mean),
        target_std=float(t_std),
        dimension=dimension,
        config=config,
        feature_names=tuple(names) if names is not None else tuple(f"f{i}" for i in range(x.shape[1])),
        diagnostics=SolverDiagnostics(
            n_iterations=iters,
            converged=converged,
            kkt_gap=gap,
            dual_objective=dual_objective,
            alpha_up=a_up,
            alpha_down=a_dn,
            weights_std=w_std,
            bias_std=b_std,
        ),
    )
    if not converged:
        raise ConvergenceError(
            f"solver stopped after {iters} updates with KKT gap {gap:.3e} > tolerance {config.tolerance:g}",
            violation=gap,
            model=model,
        )
    return model


def predict_matrix(model: SvrModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(model.weights):
        raise ValidationError(f"expected (n, {len(model.weights)}) features, got {x.shape}")
    return x @ model.weights + model.bias


# --- model file format -------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def model_to_text(model: SvrModel) -> str:
    lines = [
        MODEL_MAGIC,
        f"dimension {model.dimension or '-'}",
        f"complexity_c {_fmt(model.config.complexity_c)}",
        f"epsilon {_fmt(model.config.epsilon)}",
        f"features {len(model.weights)}",
    ]
    for name, mean, std, w in zip(model.feature_names, model.feature_means, model.feature_stds, model.weights):
        lines.append(f"{name} {_fmt(mean)} {_fmt(std)} {_fmt(w)}")
    lines.append(f"target {_fmt(model.target_mean)} {_fmt(model.target_std)}")
    lines.append(f"bias {_fmt(model.bias)}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> SvrModel:
    lines = text.splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise SchemaError(f"not a {MODEL_MAGIC} model file")

    def expect(idx: int, key: str) -> list[str]:
        if idx >= len(lines):
            raise SchemaError(f"model file truncated before {key!r}")
        parts = lines[idx].split()
        if not parts or parts[0] != key:
            raise SchemaError(f"model file line {idx + 1}: expected {key!r}")
        return parts[1:]

    try:
        dimension = expect(1, "dimension")[0]
        c = float(expect(2, "complexity_c")[0])
        eps = float(expect(3, "epsilon")[0])
        n_feat = int(expect(4, "features")[0])
        names, means, stds, weights = [], [], [], []
        for i in range(n_feat):
            parts = lines[5 + i].split()
            if len(parts) != 4:
                raise SchemaError(f"model file line {6 + i}: expected 'name mean std weight'")
            names.append(parts[0])
            means.append(float(parts[1]))
            stds.append(float(parts[2]))
            weights.append(float(parts[3]))
        t_mean, t_std = (float(v) for v in expect(5 + n_feat, "target"))
        bias = float(expect(6 + n_feat, "bias")[0])
    except (IndexError, ValueError) as e:
        raise SchemaError(f"malformed model file: {e}") from None
    return SvrModel(
        weights=np.array(weights),
        bias=bias,
        feature_means=np.array(means),
        feature_stds=np.array(stds),
        target_mean=t_mean,
        target_std=t_std,
        dimension="" if dimension == "-" else dimension,
        config=SvrConfig(complexity_c=c, epsilon=eps),
        feature_names=tuple(names),
        diagnostics=None,
    )

