"""Run one benchmark workload through gramscope's batch API.

A run is a closed loop with one client in one process. Each workload has
a pool of instances: instance m is the single trial of
``run_batch(BatchSpec([template], 1, master_seed=m))``. The seed picks a
panel of instances from the pool; one pass runs the panel in order, and
untraced passes repeat while the time budget lasts, so every run of a
seed covers the same trials. The time of a trial is the interval up to its progress
callback, so it covers one ``run_trial`` (``estimate`` + ``evaluate``).

Import this module only after ``checkout.prepare()``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from checkout import ROOT, SRC, THREAD_VARS
from gramscope.batch import BatchSpec, run_batch
from gramscope.estimator import trial_config_from_json
from tracing import CLIP_FLOP_MODEL, Recorder, instrument, layer_metrics
from workloads import TRIAL_REPORT, WARMUP_ITERS, Benchmark, Workload

HERE = Path(__file__).resolve().parent
STATE_DIR = HERE / ".state"
#: A converged trial reproduces its pinned data block to within this (plus
#: epsilon when the pins are intervals).
DATA_TOL = 1e-6
#: Percentiles are reported only with at least 10 instances beyond them.
P75_MIN_TRIALS = 40
#: Set-ups timed per run: this process and fresh ones after the timed section.
SETUP_SAMPLES = 5
#: The speed of a shared host drifts: a fixed kernel here ran anywhere from
#: 35 to 66 us within minutes. So the gated times are measured against a
#: reference step timed alongside them (see Reference); raw times are
#: printed next to them.
#: Set-up is scaled to seconds at the speed where the 15x15 reference step
#: takes this long: one idle core of a 2.0 GHz Xeon (family 6, model 143)
#: under KVM.
REFERENCE_STEP_US = 42.0
#: Least duration of one host-speed sample: inside a trial, and after set-up.
TRIAL_SAMPLE_S = 250e-6
SETUP_SAMPLE_S = 0.05


class Reference:
    """Times the bare spectral-box step every ADMM iteration runs, eigh and
    rebuild, on a fixed symmetric n x n matrix. It calls numpy only, so a
    change to gramscope cannot move it."""

    def __init__(self):
        self.matrices = {}

    def __call__(self, n: int, least_s: float = TRIAL_SAMPLE_S) -> float:
        """Microseconds per step, averaged over steps filling ``least_s``."""
        if n not in self.matrices:
            m = np.random.default_rng(n).standard_normal((n, n))
            self.matrices[n] = m + m.T
        matrix = self.matrices[n]
        steps, start = 0, time.perf_counter()
        while True:
            w, u = np.linalg.eigh(matrix)
            (u * np.clip(w, 0.0, 1.0)) @ u.T
            steps += 1
            elapsed = time.perf_counter() - start
            if elapsed >= least_s:
                return 1e6 * elapsed / steps


def setup(template: dict, seed: int):
    """Build the trial config and run one warm-up trial; returns the config.

    Time it together with a ``Reference()(15, SETUP_SAMPLE_S)`` sample
    taken right after, as the set-up probe does."""
    cfg = trial_config_from_json(template)
    warm = replace(cfg, solver=replace(cfg.solver, max_iters=WARMUP_ITERS))
    run_batch(BatchSpec([warm], 1, master_seed=seed))
    return cfg


def panel(workload: Workload, seed: int) -> list:
    """The pool instances a seed runs, in the order it runs them."""
    rng = np.random.default_rng(seed)
    return [int(m) for m in rng.choice(len(workload.pool), workload.panel_size, replace=False)]


def check_trial(record: dict, pinned_error: float, epsilon: float) -> list:
    """Problems with one trial's output; empty when it passes.

    Every number in the record must be finite, and a converged trial must
    reproduce the data block it was pinned to: ``pinned_error`` is the max
    entry distance between the estimate's data block and the table solved.
    With exact pins (epsilon 0) the record's error against the true Born
    probabilities must be as small; with interval pins that error also
    holds the shot noise, so only the pinned table is checked.
    """
    problems = [
        f"{key} is not finite"
        for key, value in record.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if record["converged"]:
        if not pinned_error <= epsilon + DATA_TOL:
            problems.append(f"data block off its pins by {pinned_error:.3e}")
        if epsilon == 0 and not record["data_block_error"] <= DATA_TOL:
            problems.append(f"data block error {record['data_block_error']:.3e}")
    return problems


@dataclass
class Trial:
    """One run of one pool instance."""

    instance: int
    wall_s: float  # up to the progress callback, net of host-speed samples
    ref_us: float | None  # mean reference step during the trial; None when traced
    record: dict | None  # None: the batch raised
    problems: list
    digest: str | None
    iterations: int  # ADMM iterations over every solve of the trial


def report_digest(report) -> str:
    blob = json.dumps(report.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_instance(cfg, instance: int, rec: Recorder) -> Trial:
    """Run pool instance ``instance`` once and check its output."""
    spec = BatchSpec([cfg], 1, master_seed=instance)
    trial = rec.trial + 1
    first_solve, first_cal = len(rec.solves), len(rec.calibrations)
    marks, report, records = [], None, []
    with instrument(rec):
        start = time.perf_counter()
        try:
            report, records = rec.call(
                "batch.run_batch", run_batch, spec,
                progress=lambda done, total: marks.append(time.perf_counter()),
            )
        except Exception:  # counted as a failed trial; the run carries on
            traceback.print_exc(file=sys.stderr)
        end = time.perf_counter()
    if report is None:
        problems = ["batch raised"]
    else:
        est_cfg, est = rec.estimates[trial]
        epsilon = est_cfg.epsilon if est_cfg.shots is not None else 0.0
        pinned = float(np.max(np.abs(est.g_hat.data_block - rec.tables[trial].values)))
        problems = check_trial(records[0], pinned, epsilon)
    rec.tables.clear()
    rec.estimates.clear()
    solves = rec.solves[first_solve:]
    cals = rec.calibrations[first_cal:]
    calibration_s = sum(c[1] for c in cals)
    if cals:
        ref_us = statistics.mean(c[2] for c in cals)
    else:  # too few iterations for a sample inside: take one right after
        ref_us = rec.reference(solves[-1].n) if rec.reference is not None and solves else None
    return Trial(
        instance=instance,
        wall_s=(marks[0] if marks else end) - start - calibration_s,
        ref_us=ref_us,
        record=records[0] if records else None,
        problems=problems,
        digest=None if report is None else report_digest(report),
        iterations=sum(s.iterations for s in solves),
    )


def measure(workload: Workload, cfg, seed: int, seconds: float, trace: bool):
    """Passes over the seed's panel; returns (untraced passes, traced pass
    or None, traced recorder).

    Untraced, a new pass starts while the budget, less half a mean pass,
    remains. Traced, one pass runs each instance untraced and then traced,
    so that host-speed drift barely enters the tracing overhead.
    """
    instances = panel(workload, seed)
    plain = Recorder(reference=Reference())
    traced = Recorder(tracing=True)
    if trace:
        pairs = [(run_instance(cfg, m, plain), run_instance(cfg, m, traced)) for m in instances]
        return [[u for u, _ in pairs]], [t for _, t in pairs], traced
    passes = []
    start = time.perf_counter()
    while True:
        passes.append([run_instance(cfg, m, plain) for m in instances])
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes, None, traced


def probe_setup(template: dict, seed: int, samples: int) -> list:
    """(set-up seconds, reference step us) of ``samples`` fresh processes,
    each importing gramscope, building the config and running the warm-up
    trial."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(template), str(seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        last = json.loads(proc.stdout.splitlines()[-1])
        out.append((last["setup_s"], last["reference_us"]))
    return out


def code_digest() -> str:
    """Digest of the package and benchmark sources and the numeric stack."""
    h = hashlib.sha256(f"{platform.python_version()} {np.__version__}".encode())
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(store_path: Path, key: str, trials: list) -> list:
    """Compare each trial's report digest and exact iteration count with
    earlier runs of the same code, workload and instance; record new ones."""
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    mismatches = []
    for t in trials:
        if t.digest is None:
            continue
        entry = {"report": t.digest, "iterations": t.iterations}
        seen = store.setdefault(f"{key}:{t.instance}", entry)
        if seen != entry:
            mismatches.append(f"instance {t.instance}: earlier {seen}, now {entry}")
    store_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=0, sort_keys=True))
    os.replace(tmp, store_path)
    return mismatches


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    """Versions, BLAS, threads, CPU and cache sizes of this host."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        if level in ("2", "3"):
            caches[f"l{level}_per_cpu"] = _read(str(index / "size")).strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        **caches,
    }


def end_to_end(workload: Workload, passes: list, setup_samples: list):
    """Gated metrics, the trial-level report and the base of each figure;
    None when no trial completed.

    ``setup_samples`` holds (set-up seconds, reference step us) pairs. A
    figure of an instance is its median over the passes.
    """
    done = [t for p in passes for t in p if t.record is not None]
    if not done:
        return None
    by_instance = {}
    for t in done:
        steps = 1e6 * t.wall_s / t.ref_us
        by_instance.setdefault(t.instance, []).append(
            (t.wall_s, steps / workload.pool[t.instance], steps / t.iterations)
        )
    wall, cost, iter_cost = (
        [statistics.median(v[i] for v in runs) for runs in by_instance.values()] for i in range(3)
    )
    first = [t for t in passes[0] if t.record is not None]
    n = len(wall)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for t in p if t.problems)
    iterations = sum(t.iterations for t in first)
    baseline = sum(workload.pool[t.instance] for t in first)
    setup_raw = [raw for raw, _ in setup_samples]
    gated = {
        "trial_cost.p50": statistics.median(cost),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(raw * REFERENCE_STEP_US / ref for raw, ref in setup_samples),
    }
    recovered = sum(t.record["success"] for t in first)
    wrong = sum(t.record["certified"] and not t.record["success"] for t in first)
    report = {
        "trials_per_s": len(done) / sum(t.wall_s for t in done),
        "trial_s.p50": statistics.median(wall),
        "trial_s.p75": statistics.quantiles(wall, n=4)[2] if n >= P75_MIN_TRIALS else None,
        "recovered_frac": recovered / len(first),
        "certified_wrong_frac": wrong / len(first),
        "failed_frac": failed / attempted,
        "iter_cost.p50": statistics.median(iter_cost),
    }
    bases = {
        "trial_cost.p50": (
            f"n={n} instances x {len(passes)} passes; reference step "
            f"{statistics.median(t.ref_us for t in done):.1f} us; "
            f"solver.iterations {iterations} (pool baseline {baseline})"
        ),
        "peak_rss_mb": "peak resident set of this process",
        "setup_s": (
            f"raw median {statistics.median(setup_raw):.3f} s of "
            + ", ".join(f"{raw:.3f}" for raw in setup_raw)
        ),
        "trials_per_s": f"{len(done)} trials, {sum(t.wall_s for t in done):.2f} s of trial time",
        "trial_s.p50": f"n={n} instances",
        "trial_s.p75": f"n={n} instances" if n >= P75_MIN_TRIALS
        else f"not reported: {n} < {P75_MIN_TRIALS} instances",
        "recovered_frac": f"{recovered}/{len(first)}",
        "certified_wrong_frac": f"{wrong}/{len(first)}",
        "failed_frac": f"{failed}/{attempted} attempted",
        "iter_cost.p50": "trial time per ADMM iteration of the trial itself",
    }
    return gated, report, bases


def _line(name, value, unit, note="") -> str:
    shown = "-" if value is None else f"{value:.6g}"
    return f"  {name:42s} {shown:>12s} {unit:12s} {note}"


def run_workload(bench: Benchmark, workload: Workload, seed: int, seconds: float,
                 trace: bool, setup_start: float, state_dir: Path = STATE_DIR) -> tuple[list, dict]:
    """Run ``workload`` and return (report lines, result object).

    ``setup_start`` is the perf_counter reading taken when the process
    started, before numpy was imported; this process's own set-up is one
    of the ``SETUP_SAMPLES`` set-up times, the rest come from fresh
    processes started after the timed section.
    """
    try:
        cfg = setup(workload.template, seed)
    except Exception:  # a program that cannot run one trial fails the run
        traceback.print_exc(file=sys.stderr)
        return ["set-up failed: the warm-up trial raised"], {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        }
    own_setup = (time.perf_counter() - setup_start, Reference()(15, SETUP_SAMPLE_S))
    passes, replay, traced = measure(workload, cfg, seed, seconds, trace)
    mismatches = check_determinism(
        state_dir / "determinism.json", f"{code_digest()}:{workload.name}", passes[0]
    )
    for k, again in enumerate(passes[1:] + ([replay] if trace else []), start=1):
        for t0, t in zip(passes[0], again):
            if (t0.digest, t0.iterations) != (t.digest, t.iterations):
                mismatches.append(f"instance {t.instance}: pass {k} differs from pass 0")

    all_trials = [t for p in passes + ([replay] if trace else []) for t in p]
    attempted, failed = len(all_trials), sum(1 for t in all_trials if t.problems)
    lines = [f"environment {json.dumps(environment(), sort_keys=True)}"]
    lines.append(
        f"determinism {workload.name} seed {seed}: panel {[t.instance for t in passes[0]]}, "
        f"solver.iterations {[t.iterations for t in passes[0]]}, {len(passes)} passes"
        + (" + traced pass" if trace else "") + ", "
        + ("MISMATCH " + "; ".join(mismatches) if mismatches else "ok")
    )
    lines += [f"failed: instance {t.instance}: {'; '.join(t.problems)}" for t in all_trials if t.problems]

    metrics = {}
    if trace:
        records = [t.record for t in replay if t.record is not None]
        untraced = sum(t.wall_s for t in passes[0])
        overhead = sum(t.wall_s for t in replay) - untraced
        if len(records) == len(replay):
            metrics = layer_metrics(traced, records, overhead, untraced)
        lines.append(
            f"per-layer {workload.name} seed {seed}: {len(records)} traced trials; "
            f"per-trial figures; flop model: {CLIP_FLOP_MODEL}"
        )
        lines.append(
            f"  tracing overhead: traced {untraced + overhead:.3f} s - untraced "
            f"{untraced:.3f} s = {overhead:.3f} s, instance by instance"
        )
        lines += [_line(m.name, metrics.get(m.name), m.unit, f"-> {m.target}") for m in bench.per_layer]
        state_dir.mkdir(parents=True, exist_ok=True)
        spans_path = state_dir / f"spans-{workload.name}.jsonl"
        with open(spans_path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "trial"]) + "\n")
            for span in traced.spans:
                fh.write(json.dumps(span) + "\n")
        lines.append(f"  {len(traced.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        samples = [own_setup] + probe_setup(workload.template, seed, SETUP_SAMPLES - 1)
        figures = end_to_end(workload, passes, samples)
        lines.append(f"end-to-end {workload.name} seed {seed}: {len(passes)} passes")
        if figures is not None:
            metrics, report, bases = figures
            lines += [_line(m.name, metrics[m.name], m.unit, bases[m.name]) for m in bench.end_to_end]
            lines += [_line(m.name, report[m.name], m.unit, bases[m.name]) for m in TRIAL_REPORT]

    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit}
            for m in (bench.per_layer if trace else bench.end_to_end)
            if m.name in metrics
        },
    }
    return lines, result
