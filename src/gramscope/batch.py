"""Batch execution of estimation trials with reproducible per-trial seeds.

Per-trial seeds are fixed up front from the master seed and the
(template, trial) index, so results do not depend on worker scheduling.
The batch report separates deterministic content (counts, errors,
iterations) from wall-time, so identical master seeds give byte-identical
reports.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from .estimator import TrialConfig, estimate, estimate_record, evaluate
from .synth import check_types


@dataclass(frozen=True)
class BatchSpec:
    """A list of trial templates, each repeated ``trials_per_template`` times."""

    templates: list[TrialConfig]
    trials_per_template: Annotated[int, (">=", 1)]
    master_seed: Annotated[int, (">=", 0)] = 0
    jobs: Annotated[int, (">=", 1)] = 1

    def __post_init__(self):
        check_types(self)
        if not self.templates:
            raise ValueError("batch needs at least one template")


def trial_seed(master_seed: int, template_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed from master seed and indices."""
    ss = np.random.SeedSequence([master_seed, template_index, trial_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_trial(cfg: TrialConfig) -> dict:
    """One trial's seed, ``estimate_record`` and wall time ``seconds``, evaluation included."""
    start = time.perf_counter()
    est, truth = estimate(cfg)
    record = estimate_record(est, evaluate(est, truth))
    return {"seed": cfg.seed, **record, "seconds": time.perf_counter() - start}


@dataclass
class BatchReport:
    """Aggregated per-template results; timing is kept out of the
    deterministic report body."""

    master_seed: int
    templates: list = field(default_factory=list)
    timing: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"master_seed": self.master_seed, "templates": self.templates}

    def timing_json(self) -> dict:
        return {"templates": self.timing}


def run_batch(spec: BatchSpec, progress=None) -> tuple[BatchReport, list]:
    """Run all trials, in ``min(jobs, trials)`` worker processes when that
    is more than one (a pool starts all its workers at once), and aggregate.

    Returns the report and the flat list of per-trial records ordered by
    (template, trial) index. ``progress(done, total)`` is called as each
    record arrives in that order; in a serial run, right after its trial.
    """
    jobs_list = []
    for ti, template in enumerate(spec.templates):
        for tr in range(spec.trials_per_template):
            jobs_list.append(replace(template, seed=trial_seed(spec.master_seed, ti, tr)))
    records = []
    if (workers := min(spec.jobs, len(jobs_list))) > 1:
        # imported here, so a serial run (and every CLI call) skips multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers)
    else:
        pool = nullcontext()
    with pool:
        results = pool.map(run_trial, jobs_list) if workers > 1 else map(run_trial, jobs_list)
        for idx, record in enumerate(results):
            records.append(record)
            if progress is not None:
                progress(idx + 1, len(jobs_list))

    report = BatchReport(master_seed=spec.master_seed)
    per = spec.trials_per_template
    for ti, template in enumerate(spec.templates):
        chunk = records[ti * per : (ti + 1) * per]
        certified = [r for r in chunk if r["certified"]]
        successes = sum(1 for r in chunk if r["success"])
        report.templates.append(
            {
                "d": template.d,
                "start_point": [template.n_states, template.n_measurements],
                "trials": per,
                "successes": successes,
                "failures": per - successes,
                "certified": len(certified),
                "zero_augmentations": sum(1 for r in chunk if r["augmentations"] == 0),
                "mean_max_error": float(np.mean([r["max_entry_error"] for r in chunk])),
                "max_max_error": float(np.max([r["max_entry_error"] for r in chunk])),
                "mean_iterations": float(np.mean([r["iterations"] for r in chunk])),
                "mean_total_iterations": float(np.mean([r["total_iterations"] for r in chunk])),
            }
        )
        report.timing.append(
            {
                "mean_seconds": float(np.mean([r["seconds"] for r in chunk])),
                "total_seconds": float(np.sum([r["seconds"] for r in chunk])),
            }
        )
    return report, records
