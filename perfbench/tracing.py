"""Spans and call facts recorded around gramscope's public functions.

The benchmark times each layer from outside: it replaces a function with a
wrapper at the module that looks the name up (``solver`` imported
``clip_spectrum`` by name, so the wrapper goes on ``gramscope.solver``),
records a span per call, and restores the original afterwards. A span is
``[name, start, end, parent index, trial id]``; a layer's self time is its
span's duration minus the durations of its direct children.

A few wrappers also keep facts the benchmark needs even with spans off:
trial boundaries, each solve's size and iteration count, each
certificate's outcome, the final table and estimate of each trial for
the output check, and host-speed samples taken between clip_spectrum calls.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: 9 n^3 for a symmetric eigendecomposition with eigenvectors (Golub & Van
#: Loan, symmetric QR) plus 2 n^3 for rebuilding U diag(w) U^T.
CLIP_FLOP_MODEL = "11 n^3 per clip_spectrum call (9 n^3 eigh with vectors + 2 n^3 U diag(w) U^T)"


#: clip_spectrum calls between two host-speed samples.
CALIBRATE_EVERY = 50


def clip_flops(n: int) -> float:
    return 11.0 * n**3


@dataclass
class Solve:
    trial: int
    n: int
    pins: int
    iterations: int
    converged: bool


@dataclass
class Recorder:
    """Everything one pass of the benchmark records; spans only when tracing."""

    tracing: bool = False
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    trial: int = -1
    solves: list = field(default_factory=list)
    certificates: list = field(default_factory=list)  # (trial, passed)
    tables: dict = field(default_factory=dict)  # trial -> last DataTable solved
    estimates: dict = field(default_factory=dict)  # trial -> (TrialConfig, GramEstimate)
    # Host-speed samples taken every CALIBRATE_EVERY clip_spectrum calls, by
    # ``reference(n)`` at the size of the matrix being clipped:
    # (trial, seconds spent, microseconds per reference step).
    reference: object = None
    clip_calls: int = 0
    calibrations: list = field(default_factory=list)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (plain call when not tracing)."""
        if not self.tracing:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.trial]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()


# Hooks run after the wrapped call returns (``_new_trial`` before it).

def _new_trial(rec, args, kwargs):
    rec.trial += 1


def _calibrate(rec, args, kwargs):
    if rec.reference is None:
        return
    rec.clip_calls += 1
    if rec.clip_calls % CALIBRATE_EVERY == 0:
        start = time.perf_counter()
        step_us = rec.reference(args[0].shape[0])
        rec.calibrations.append((rec.trial, time.perf_counter() - start, step_us))


def _keep_estimate(rec, args, kwargs, out):
    rec.estimates[rec.trial] = (args[0], out[0])


def _keep_table(rec, args, kwargs, out):
    rec.tables[rec.trial] = args[0]


def _keep_solve(rec, args, kwargs, out):
    prob, report = args[0], out[1]
    rec.solves.append(
        Solve(rec.trial, prob.n, len(prob.knowledge.constraints), report.iterations, report.converged)
    )


def _keep_certificate(rec, args, kwargs, out):
    rec.certificates.append((rec.trial, bool(out)))


# (module, attribute, span name, before hook, after hook). Hooked entries are
# installed in every pass; the others only when tracing.
PATCHES = (
    ("gramscope.batch", "run_trial", "batch.run_trial", _new_trial, None),
    ("gramscope.batch", "estimate", "estimator.estimate", None, _keep_estimate),
    ("gramscope.batch", "evaluate", "estimator.evaluate", None, None),
    ("gramscope.estimator", "sample_ensemble", "synth.sample_ensemble", None, None),
    ("gramscope.estimator", "born_probabilities", "synth.born_probabilities", None, None),
    ("gramscope.estimator", "knowledge_projective", "gram.knowledge_projective", None, _keep_table),
    ("gramscope.estimator", "knowledge_relax", "gram.knowledge_relax", None, None),
    ("gramscope.estimator", "numerical_rank", "gram.numerical_rank", None, None),
    ("gramscope.estimator", "rank_certificate", "gram.rank_certificate", None, _keep_certificate),
    ("gramscope.estimator", "solve_trace_min", "solver.solve_trace_min", None, _keep_solve),
    ("gramscope.solver", "prox_trace_plus_knowledge", "solver.prox_trace_plus_knowledge", None, None),
    ("gramscope.solver", "clip_spectrum", "hermitian.clip_spectrum", _calibrate, None),
    ("gramscope.gram", "Knowledge.arrays", "gram.Knowledge.arrays", None, None),
)


def _wrap(rec, fn, name, before, after):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        out = rec.call(name, fn, *args, **kwargs)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return wrapper


@contextmanager
def instrument(rec: Recorder):
    """Install the wrappers for ``rec`` and restore the originals on exit.

    Modules are taken from sys.modules by name: ``gramscope.gram`` as an
    attribute is the function ``gram``, not the module.
    """
    undo = []
    try:
        for module, attr, name, before, after in PATCHES:
            if not rec.tracing and before is None and after is None:
                continue
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            setattr(owner, leaf, _wrap(rec, original, name, before, after))
            undo.append((owner, leaf, original))
        yield rec
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def self_times(spans) -> dict:
    """Per span name: [calls, inclusive seconds, self seconds]."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child[i]
    return out


def layer_metrics(rec: Recorder, records: list, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced pass over ``records`` (one per trial)."""
    trials = len(records)
    stats = self_times(rec.spans)

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    iterations = sum(s.iterations for s in rec.solves)
    solves = len(rec.solves)
    flops = sum(s.iterations * clip_flops(s.n) for s in rec.solves)
    # estimate() certifies each solve right after it, so the k-th certificate
    # judges the k-th solve.
    if [s.trial for s in rec.solves] != [trial for trial, _ in rec.certificates]:
        raise RuntimeError("solves and rank certificates do not pair up")
    wasted = sum(
        s.iterations for s, (_, passed) in zip(rec.solves, rec.certificates) if not passed
    )
    certified = sum(1 for r in records if r["certified"])
    recovered = sum(1 for r in records if r["success"])
    clip = "hermitian.clip_spectrum"
    return {
        f"{clip}.calls": calls(clip) / trials,
        f"{clip}.self_s": self_s(clip) / trials,
        f"{clip}.us_per_call": 1e6 * self_s(clip) / calls(clip),
        f"{clip}.gflop": flops / 1e9 / trials,
        f"{clip}.gflop_per_s": flops / 1e9 / self_s(clip),
        "gram.Knowledge.arrays.calls": calls("gram.Knowledge.arrays") / trials,
        "gram.Knowledge.arrays.self_s": self_s("gram.Knowledge.arrays") / trials,
        "gram.pins_per_solve": sum(s.pins for s in rec.solves) / solves,
        "gram.knowledge_projective.self_s": self_s("gram.knowledge_projective") / trials,
        "gram.knowledge_relax.calls": calls("gram.knowledge_relax") / trials,
        "gram.numerical_rank.self_s": self_s("gram.numerical_rank") / trials,
        "gram.rank_certificate.self_s": self_s("gram.rank_certificate") / trials,
        "solver.solve_trace_min.self_s": self_s("solver.solve_trace_min") / trials,
        "solver.prox_trace_plus_knowledge.self_s": self_s("solver.prox_trace_plus_knowledge") / trials,
        "solver.iterations": iterations,
        "solver.us_per_iter": 1e6 * stats["solver.solve_trace_min"][1] / iterations,
        "solver.converged_frac": sum(s.converged for s in rec.solves) / solves,
        "synth.sample_ensemble.calls": calls("synth.sample_ensemble") / trials,
        "synth.sample_ensemble.self_s": self_s("synth.sample_ensemble") / trials,
        "synth.born_probabilities.calls": calls("synth.born_probabilities") / trials,
        "synth.born_probabilities.self_s": self_s("synth.born_probabilities") / trials,
        "estimator.estimate.self_s": self_s("estimator.estimate") / trials,
        "estimator.solves_per_trial": solves / trials,
        "estimator.augmentations": sum(r["augmentations"] for r in records) / trials,
        "estimator.certified_frac": certified / trials,
        "estimator.wasted_iter_frac": wasted / iterations,
        "estimator.evaluate.self_s": self_s("estimator.evaluate") / trials,
        "estimator.recovered_frac": recovered / trials,
        "estimator.certified_wrong_frac": sum(
            1 for r in records if r["certified"] and not r["success"]
        ) / trials,
        # run_trial's own work (herm_basis, the repeated gram(realize(truth)),
        # the record) is batch-module time too.
        "batch.run_batch.self_s": (self_s("batch.run_batch") + self_s("batch.run_trial")) / trials,
        "trace.overhead_s": overhead_s / trials,
        "trace.overhead_frac": overhead_s / untraced_s,
    }
