#!/usr/bin/env python3
"""Benchmark of the gazecast CLI on seeded synthetic recordings.

Run from the repository root:

    python3 bench/run.py --workload pipeline_grid --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all        # every workload, default settings

``--trace 0`` runs the workload's command as users do, one fresh process per
command, repeated until ``--seconds`` of command time is measured, and reports
the end-to-end metrics (medians over the repetitions). ``--trace 1`` runs the
command in-process with spans around each layer and reports the per-layer
metrics of bench/spans.py. Either way every output is checked against the
seed-commit program's output on the same input (bench/workloads.py).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A fuller record, stamped with the environment, goes to
``.bench_work/results/``. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import PER_LAYER, ROOT_SPAN, Tracer, layer_metrics
from workloads import WORKLOADS, make_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# What the installed console script runs.
CLI_ENTRY = "import sys; from gazecast.cli import main; sys.exit(main())"
SETUP_ENTRY = "import gazecast.cli as cli; cli.build_parser()"
SETUP_SAMPLES = 7
COMMAND_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class ProcessRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(args: list[str], log: Path) -> ProcessRun:
    """Run ``python3 -c ...`` with the checkout's src on the path; resource use of that process alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log, "wb") as f:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=f, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    ) if shutil.which("git") else None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_sha": sha.stdout.strip() if sha is not None and sha.returncode == 0 else "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class InputSet:
    """One input set of a workload: generated files plus the seed program's outputs on them."""

    def __init__(self, workload, seed: int, index: int, work: Path):
        self.dir = work / f"set{index}"
        self.inputs = self.dir / "inputs"
        self.ref = self.dir / "reference"
        self.inputs.mkdir(parents=True)
        self.sizes = workload.make_inputs((seed, index), self.inputs)
        make_reference(workload, self.inputs, self.ref)

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class Tally:
    """Attempted/failed commands and the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.quality: list[float] = []

    def record(self, label: str, problems: list[str], quality: float | None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])
        elif quality is not None:
            self.quality.append(quality)


def run_command(workload, inputs: InputSet, work: Path, label: str, tally: Tally) -> ProcessRun:
    """Run the workload's command as a fresh process on *inputs* and check its output."""
    out, log = work / f"out_{label}", work / f"cmd_{label}.log"
    out.mkdir()
    run = run_process(["-c", CLI_ENTRY, *workload.argv(inputs.inputs, out)], log)
    if run.code != 0:
        tally.record(label, [f"exit code {run.code}: {_log_tail(log)}"], None)
    else:
        tally.record(label, *workload.check(out, inputs.ref))
    shutil.rmtree(out, ignore_errors=True)
    return run


def measure_end_to_end(workload, seed: int, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    # Set-up is timed first, before input generation writes files. The first
    # import only warms the bytecode cache: users pay compilation once.
    setup = []
    for _ in range(1 + SETUP_SAMPLES):
        r = run_process(["-c", SETUP_ENTRY], work / "setup.log")
        if r.code != 0:
            raise SystemExit(f"bench: importing gazecast.cli failed: {_log_tail(work / 'setup.log')}")
        setup.append(r.wall_s)
    setup = setup[1:]

    sets = [InputSet(workload, seed, 0, work)]

    runs: list[ProcessRun] = []
    measured = 0.0
    while not runs or measured < seconds:
        rep = len(runs)
        if workload.fresh_inputs and rep > 0:
            sets[-1].remove()
            sets.append(InputSet(workload, seed, rep, work))
        runs.append(run_command(workload, sets[-1], work, f"rep{rep}", tally))
        measured += runs[-1].wall_s
    sets[-1].remove()

    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setup),
    }
    detail = {
        "inputs": sets[0].sizes,
        "input_sets": len(sets),
        "runs": [vars(r) for r in runs],
        "setup_samples_s": setup,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail


# --- traced, in-process run --------------------------------------------------


def _import_program():
    sys.path.insert(0, str(SRC))
    import gazecast.cli

    where = Path(gazecast.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: imported gazecast from {where}, not from {SRC}")
    return gazecast.cli


def _in_process(workload, command, out: Path, ref: Path) -> tuple[float, list[str], float | None]:
    """Run command() (a cli.main call) in this process; (seconds, problems, quality)."""
    out.mkdir()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = command(), ""
    except Exception as e:  # a traceback is a failed command, not a crashed benchmark
        code, err = 1, f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    problems, quality = ([f"exit code {code}: {err}"], None) if code != 0 else workload.check(out, ref)
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, problems, quality


def _scaling_exp(inputs: Path) -> float:
    """log2 of extract_matrix time on the full recording over its first half (untraced)."""
    import gazecast.features as features
    import gazecast.ingest as ingest
    import gazecast.windowing as windowing

    lines = (inputs / "gaze.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    half, full = (
        windowing.segment(ingest.parse_gaze_csv(io.StringIO("".join(part))))
        for part in (lines[: 1 + (len(lines) - 1) // 2], lines)
    )

    def timed(windows) -> float:
        gc.collect()
        start = time.perf_counter()
        features.extract_matrix(windows)
        return time.perf_counter() - start

    # Best of two each, in half-full-full-half order so drift cancels.
    t_half = timed(half)
    t_full = min(timed(full), timed(full))
    t_half = min(t_half, timed(half))
    return math.log2(t_full / t_half)


def measure_per_layer(workload, seed: int, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    cli = _import_program()
    inputs = InputSet(workload, seed, 0, work)
    argv = lambda out: workload.argv(inputs.inputs, out)  # noqa: E731

    process = run_command(workload, inputs, work, "process", tally)

    # One untimed in-process run first, so lazy imports and first-call set-up
    # inside this process do not land in either timed side.
    out = work / "out_warmup"
    _, *checked = _in_process(workload, lambda: cli.main(argv(out)), out, inputs.ref)
    tally.record("warm-up", *checked)

    plain, traced, tracers = [], [], []
    measured = 0.0
    while not traced or measured < seconds:
        rep = len(traced)
        # Alternate which side runs first, so drift within the run cancels.
        for kind in ("plain", "traced") if rep % 2 == 0 else ("traced", "plain"):
            out = work / f"out_{kind}{rep}"
            gc.collect()
            if kind == "plain":
                elapsed, *checked = _in_process(workload, lambda: cli.main(argv(out)), out, inputs.ref)
                plain.append(elapsed)
            else:
                tracer = Tracer()
                with tracer:
                    elapsed, *checked = _in_process(
                        workload, lambda: tracer.span(ROOT_SPAN, cli.main, argv(out)), out, inputs.ref
                    )
                traced.append(elapsed)
                tracers.append((tracer, checked[1]))
            tally.record(f"{kind} {rep}", *checked)
            measured += elapsed

    scaling = _scaling_exp(inputs.inputs) if workload.name == "extract_long" else 0.0
    inputs.remove()
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    per_rep = [
        layer_metrics(
            t, quality_cc=q, process_overhead_s=process.wall_s - plain_s,
            overhead_frac=traced_s / plain_s - 1.0, scaling_exp=scaling,
        )
        for t, q in tracers
    ]
    metrics = {k: (statistics.median(m[k] for m in per_rep), PER_LAYER[k][0]) for k in PER_LAYER}
    tracers[0][0].write(WORK / "results" / f"{workload.name}-seed{seed}-spans.json")
    detail = {
        "inputs": inputs.sizes,
        "process_wall_s": process.wall_s,
        "in_process_plain_s": plain,
        "in_process_traced_s": traced,
    }
    return metrics, detail


# --- entry point -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int) -> None:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        work.mkdir(parents=True)
        measure = measure_per_layer if trace else measure_end_to_end
        metrics, detail = measure(workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(seed)
    fail_frac = tally.failed / tally.attempted
    quality = statistics.median(tally.quality) if tally.quality else None
    print(f"== {name} (seed {seed}, trace {trace}): {workload.why}")
    print(f"env: {json.dumps(env)}")
    print(f"inputs: {json.dumps(detail['inputs'])}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(f"{name} fail_frac = {fail_frac:.6g} ({tally.failed}/{tally.attempted} commands)")
    print(f"{name} quality_cc = {'n/a' if quality is None else f'{quality:.6f}'}")
    for p in tally.problems[:10]:
        print(f"mismatch: {p}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "workload": name, "trace": trace, "seconds": seconds, "env": env,
              "fail_frac": fail_frac, "quality_cc": quality, "problems": tally.problems, "detail": detail}
    path = WORK / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="command time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gazecast" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'gazecast'} is missing", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
