"""Linear epsilon-insensitive support vector regression via an SMO-style dual solver.

The dual is solved in the classic two-multiplier form: each training point i
carries a pair (alpha_i, alpha*_i) in [0, C], alpha pulling the prediction up
and alpha* pulling it down, under the coupling constraint
sum(alpha - alpha*) = 0. Each iteration picks the maximal violating pair of
multiplier slots and minimizes the objective exactly along the feasible
two-slot direction. Features and target are z-scored internally (sample std,
zero-variance columns get a sentinel std of 1), so the complexity parameter C
and the tube half-width epsilon both live in standardized space; returned
weights and bias are collapsed back to original units.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDataError, SchemaError, ValidationError
from .features import FEATURE_NAMES, N_FEATURES
from .ingest import DIMENSIONS

logger = logging.getLogger(__name__)

MODEL_MAGIC = "GAZESVR1"


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
        # Written as not (v > 0) so that NaN fails them too.
        if not (self.complexity_c > 0):
            raise ValidationError("complexity_c must be > 0")
        if not (self.epsilon >= 0):
            raise ValidationError("epsilon must be >= 0")
        if not (self.tolerance > 0):
            raise ValidationError("tolerance must be > 0")
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


def _standardize_target(y: np.ndarray) -> tuple[float, float, np.ndarray]:
    if np.all(y == y[0]):  # same sentinel rule as constant feature columns
        return float(y[0]), 1.0, np.zeros_like(y)
    t_mean = float(np.mean(y))
    t_std = float(np.std(y, ddof=1))
    if t_std == 0.0:
        t_std = 1.0
    return t_mean, t_std, (y - t_mean) / t_std


def _smo_solve(
    k_mat: np.ndarray, y: np.ndarray, c: float, eps: float, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float, int, bool, float]:
    """Maximal-violating-pair SMO on the epsilon-SVR dual.

    Returns (alpha_up, alpha_down, bias, iterations, converged, final_gap)
    where the gap is the worst KKT bound mismatch b_lo - b_hi.
    """
    n = len(y)
    a_up = np.zeros(n)
    a_dn = np.zeros(n)
    u = np.zeros(n)  # K @ (a_up - a_dn)
    it = 0
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
        if it % 4096 == 0:
            u = k_mat @ (a_up - a_dn)  # shed accumulated rounding


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
    if len(y) == 0:
        raise DegenerateDataError("empty training data")
    if len(y) < 2:
        raise DegenerateDataError("fitting needs at least 2 rows")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("non-finite feature or target values")

    means, stds, z = standardize_columns(x)
    t_mean, t_std, y_std = _standardize_target(y)

    k_mat = z @ z.T
    a_up, a_dn, b_std, iters, converged, gap = _smo_solve(
        k_mat, y_std, config.complexity_c, config.epsilon, config.tolerance, config.max_passes
    )
    _absorb_sum_drift(a_up, a_dn, config.complexity_c)
    beta = a_up - a_dn
    w_std = z.T @ beta
    u = k_mat @ beta
    dual_objective = float(
        0.5 * beta @ u - y_std @ beta + config.epsilon * (math.fsum(a_up) + math.fsum(a_dn))
    )

    # Constant (sentinel-std) columns carry weight 0 by construction: their z column is 0.
    weights = t_std * w_std / stds
    bias = t_mean + t_std * (b_std - float(np.sum(w_std * means / stds)))
    model = SvrModel(
        weights=weights,
        bias=float(bias),
        feature_means=means,
        feature_stds=stds,  # sentinel 1.0 where the column had zero variance
        target_mean=t_mean,
        target_std=t_std,
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


def svr_fit(data: TrainingSet, config: SvrConfig) -> SvrModel:
    """Fit on a canonical 31-feature training set."""
    return fit_linear_svr(
        data.features, data.targets, config, names=FEATURE_NAMES, dimension=data.dimension
    )


def predict_matrix(model: SvrModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(model.weights):
        raise ValidationError(f"expected (n, {len(model.weights)}) features, got {x.shape}")
    return x @ model.weights + model.bias


def kkt_violations(model: SvrModel, data, config: SvrConfig | None = None) -> float:
    """Max KKT violation of a fitted model on its training data.

    Requires solver diagnostics (a freshly fitted or truncated model);
    serialized models do not retain the multipliers needed for the check.
    """
    if model.diagnostics is None:
        raise ValidationError("model lacks solver diagnostics; only in-memory fits can be audited")
    cfg = config or model.config
    if isinstance(data, TrainingSet):
        x, y = data.features, data.targets
    else:
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


def save_model(model: SvrModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(model_to_text(model))


def load_model(path) -> SvrModel:
    with open(path, "r", encoding="utf-8") as f:
        return model_from_text(f.read())
