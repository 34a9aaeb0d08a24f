"""In-process spans around the public functions of each gazecast layer.

The program has no tracing of its own, so :class:`Tracer` wraps the layer
functions from outside: it replaces every module attribute bound to a traced
function, including the names that ``from ... import`` copied into ``cli`` and
``evaluation`` (``cli.extract_matrix``, ``evaluation.fit_linear_svr``, ...),
and restores them on exit. Spans (name, start, end, parent) are kept in memory
and written out when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("ingest", "windowing", "features", "regression", "evaluation", "cli")

# (module, function) pairs that get a span. A function missing from a later
# version of the program is skipped and its metrics read 0.
TRACED = (
    ("ingest", "parse_gaze_csv"),
    ("ingest", "parse_annotation_csv"),
    ("ingest", "validate_sequence"),
    ("windowing", "segment"),
    ("windowing", "targets_for_spans"),
    ("features", "extract_matrix"),
    ("features", "approach_stats"),
    ("features", "scan_path_stats"),
    ("features", "descriptive_stats"),
    ("features", "band_psd"),
    ("features", "fixation_zone_stats"),
    ("features", "eye_closure_stats"),
    ("regression", "fit_linear_svr"),
    ("regression", "standardize_columns"),
    ("regression", "predict_matrix"),
    ("evaluation", "wrapper_greedy_stepwise"),
    ("evaluation", "grid_search_c"),
    ("evaluation", "cross_val_cc"),
    ("evaluation", "pearson_cc"),
    ("cli", "read_feature_csv"),
    ("cli", "feature_csv_text"),
)
FEATURE_FAMILIES = (
    "approach_stats", "scan_path_stats", "descriptive_stats",
    "band_psd", "fixation_zone_stats", "eye_closure_stats",
)
ROOT_SPAN = "cli.main"

# name -> (unit, better); every metric a traced run reports, in print order.
PER_LAYER = {
    "ingest.parse_gaze_csv.self_s": ("s", "lower"),
    "ingest.parse_gaze_csv.rows_per_s": ("1/s", "higher"),
    "ingest.parse_annotation_csv.self_s": ("s", "lower"),
    "ingest.validate_sequence.self_s": ("s", "lower"),
    "windowing.segment.self_s": ("s", "lower"),
    "windowing.targets_for_spans.self_s": ("s", "lower"),
    "windowing.windows": ("count", "higher"),
    "features.extract_matrix.self_s": ("s", "lower"),
    **{f"features.{f}.self_s": ("s", "lower") for f in FEATURE_FAMILIES},
    "features.windows_per_s": ("1/s", "higher"),
    "features.scaling_exp": ("log2", "lower"),
    "regression.fit_linear_svr.self_s": ("s", "lower"),
    "regression.fit_linear_svr.calls": ("count", "lower"),
    "regression.smo_iters": ("count", "lower"),
    "regression.s_per_iter": ("s", "lower"),
    "regression.fit_rows": ("count", "lower"),
    "regression.gram_bytes": ("bytes_computed", "lower"),
    "regression.peak_gram_bytes": ("bytes_computed", "lower"),
    "regression.unconverged": ("count", "lower"),
    "regression.standardize_columns.self_s": ("s", "lower"),
    "regression.predict_matrix.self_s": ("s", "lower"),
    "evaluation.wrapper_greedy_stepwise.self_s": ("s", "lower"),
    "evaluation.grid_search_c.self_s": ("s", "lower"),
    "evaluation.cross_val_cc.self_s": ("s", "lower"),
    "evaluation.pearson_cc.self_s": ("s", "lower"),
    "evaluation.cv_fits": ("count", "lower"),
    "evaluation.pearson_cc.failed": ("count", "lower"),
    "evaluation.quality_cc": ("cc", "higher"),
    "cli.read_feature_csv.self_s": ("s", "lower"),
    "cli.feature_csv_text.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.process_overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Records one span per traced call while active (use as a context manager)."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"gazecast.{m}") for m in LAYERS}
        errors = importlib.import_module("gazecast.errors")
        self._convergence_error = errors.ConvergenceError
        self._degenerate_error = errors.DegenerateDataError
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index (-1: none)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod_name, fn_name in TRACED:
            original = getattr(self.modules[mod_name], fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in self.modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called *name*."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self._observe

        def traced(*args, **kwargs):
            idx, parent = len(spans), (stack[-1] if stack else -1)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(idx)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:  # recorded, then re-raised unchanged
                error = e
                raise
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
                observe(name, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args, result, error) -> None:
        c = self.counts
        if name == "ingest.parse_gaze_csv" and result is not None:
            c["parse_rows"] += len(result)
        elif name == "windowing.segment" and result is not None:
            c["windows"] += len(result)
        elif name == "features.extract_matrix" and result is not None:
            c["extracted_windows"] += len(result)
        elif name == "regression.fit_linear_svr":
            n = len(args[1])
            c["fits"] += 1
            c["fit_rows"] += n
            c["gram_bytes"] += 8 * n * n
            c["peak_gram_bytes"] = max(c["peak_gram_bytes"], 8 * n * n)
            if isinstance(error, self._convergence_error):
                c["unconverged"] += 1
                model = error.model
            else:
                model = result
            if model is not None and model.diagnostics is not None:
                c["smo_iters"] += model.diagnostics.n_iterations
            if self._under("evaluation."):
                c["cv_fits"] += 1
        elif name == "evaluation.pearson_cc" and isinstance(error, self._degenerate_error):
            c["pearson_failed"] += 1

    def _under(self, prefix: str) -> bool:
        """True if an open span's name starts with *prefix*."""
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    # --- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus that of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return out

    def inclusive_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.write_text(
            json.dumps({
                "names": names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans],
            }),
            encoding="utf-8",
        )


def layer_metrics(
    tracer: Tracer, *, quality_cc: float | None, process_overhead_s: float,
    overhead_frac: float, scaling_exp: float,
) -> dict[str, float]:
    """Every PER_LAYER metric from one traced command; 0 where a layer did not run."""
    selft = tracer.self_times()
    c = tracer.counts

    def s(name: str) -> float:
        return selft.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m = {name: s(name[: -len(".self_s")]) for name in PER_LAYER if name.endswith(".self_s")}
    m["cli.self_s"] = s(ROOT_SPAN)
    m.update({
        "ingest.parse_gaze_csv.rows_per_s": ratio(c["parse_rows"], s("ingest.parse_gaze_csv")),
        "windowing.windows": c["windows"],
        "features.windows_per_s": ratio(c["extracted_windows"], tracer.inclusive_time("features.extract_matrix")),
        "features.scaling_exp": scaling_exp,
        "regression.fit_linear_svr.calls": c["fits"],
        "regression.smo_iters": c["smo_iters"],
        "regression.s_per_iter": ratio(s("regression.fit_linear_svr"), c["smo_iters"]),
        "regression.fit_rows": c["fit_rows"],
        "regression.gram_bytes": c["gram_bytes"],
        "regression.peak_gram_bytes": c["peak_gram_bytes"],
        "regression.unconverged": c["unconverged"],
        "evaluation.cv_fits": c["cv_fits"],
        "evaluation.pearson_cc.failed": c["pearson_failed"],
        "evaluation.quality_cc": quality_cc if quality_cc is not None else 0.0,
        "cli.process_overhead_s": process_overhead_s,
        "trace.overhead_frac": overhead_frac,
    })
    return {k: float(m[k]) for k in PER_LAYER}
