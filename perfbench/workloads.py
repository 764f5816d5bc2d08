"""Workloads, seeds and metric declarations of the gramscope benchmark.

BENCHMARK.json at the checkout root holds each workload's name and why,
and each metric's name, unit, direction and bound. ``load()`` joins them
with what the JSON cannot hold: the trial templates, panel sizes, the
baseline iteration counts of each workload's pool (``pool.json``) and the
end-to-end figure each layer metric should move. This module imports
nothing from gramscope, so it is cheap to load from a test or a probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from checkout import ROOT

HERE = Path(__file__).resolve().parent

#: Seed used when ``--seed`` is omitted.
DEFAULT_SEED = 2026
#: Held-out seed: never used while a change is tuned, only to confirm a
#: claim measured on other seeds.
HELDOUT_SEED = 90210

#: Iteration cap of the warm-up trial that ends set-up. It runs the whole
#: trial path at full problem size (tables, knowledge, ADMM, certificate,
#: augmentation, evaluation) so that lazy loading finishes before timing.
WARMUP_ITERS = 20

#: Per workload: the trial config in the JSON form the CLI reads, and the
#: number of pool instances a seed picks for its panel.
TEMPLATES = {
    "d2_single_solve": (
        {
            "d": 2,
            "n_states": 5,
            "n_measurements": 5,
            "max_augmentations": 0,
            "solver": {"max_iters": 50_000},
        },
        40,
    ),
    "d2_shots_augment": (
        {
            "d": 2,
            "n_states": 5,
            "n_measurements": 5,
            "shots": 10**6,
            "epsilon": 5e-3,
            "tau": 1e-2,
            "state_first": False,
            "solver": {"max_iters": 40_000},
        },
        20,
    ),
    "d3_large_solve": (
        {
            "d": 3,
            "n_states": 30,
            "n_measurements": 50,
            "max_augmentations": 0,
            # Criterion 2 caps at 20,000; most trials here take ~1,000
            # iterations, but one took 13,364 (118 s), and a run must stay
            # within minutes.
            "solver": {"max_iters": 6_000, "primal_tol": 1e-7, "dual_tol": 1e-7},
        },
        2,
    ),
}

#: Which end-to-end figure each per-layer metric should move, and where.
_TARGET_GROUPS = (
    (
        "trial_cost.p50 on d3_large_solve; little on d2_single_solve",
        "hermitian.clip_spectrum.calls hermitian.clip_spectrum.self_s "
        "hermitian.clip_spectrum.us_per_call hermitian.clip_spectrum.gflop "
        "hermitian.clip_spectrum.gflop_per_s",
    ),
    (
        "trial_cost.p50 on d3_large_solve most, d2_single_solve second",
        "gram.Knowledge.arrays.calls gram.Knowledge.arrays.self_s gram.pins_per_solve",
    ),
    (
        "trial_cost.p50 on d2_shots_augment (per-solve cost)",
        "gram.knowledge_projective.self_s gram.knowledge_relax.calls "
        "gram.numerical_rank.self_s gram.rank_certificate.self_s",
    ),
    (
        "trial_cost.p50 and trials_per_s on d2_single_solve",
        "solver.solve_trace_min.self_s solver.prox_trace_plus_knowledge.self_s "
        "estimator.evaluate.self_s batch.run_batch.self_s",
    ),
    (
        "trial_cost.p50 on every workload (iteration count, the acceleration lever)",
        "solver.iterations solver.us_per_iter solver.converged_frac",
    ),
    (
        "trial_cost.p50 on d2_shots_augment (table building)",
        "synth.sample_ensemble.calls synth.sample_ensemble.self_s "
        "synth.born_probabilities.calls synth.born_probabilities.self_s",
    ),
    (
        "trial_cost.p50 on d2_shots_augment (augmentation loop)",
        "estimator.estimate.self_s estimator.solves_per_trial estimator.augmentations "
        "estimator.certified_frac estimator.wasted_iter_frac",
    ),
    (
        "certified_wrong_frac on d2_shots_augment (certificate soundness)",
        "estimator.recovered_frac estimator.certified_wrong_frac",
    ),
    ("none: cost of tracing itself", "trace.overhead_s trace.overhead_frac"),
)
TARGETS = {name: target for target, names in _TARGET_GROUPS for name in names.split()}


@dataclass(frozen=True)
class Workload:
    """A panel of ``panel_size`` instances drawn from ``pool``.

    Instance m is the single trial of a batch with master seed m; ``pool``
    holds the ADMM iterations, summed over every solve, that instance m
    took when the pool was made (``make_pool.py``).
    """

    name: str
    why: str
    template: dict
    panel_size: int
    pool: tuple


@dataclass(frozen=True)
class Metric:
    """A reported figure. ``bound`` is set for gated end-to-end metrics;
    ``target`` says which end-to-end figure a layer metric should move."""

    name: str
    unit: str
    better: str
    bound: float | None = None
    target: str = ""


@dataclass(frozen=True)
class Benchmark:
    workloads: dict
    end_to_end: tuple  # gated, the last line of an untraced run
    per_layer: tuple  # the last line of a traced run


#: End-to-end figures printed by every untraced run but not gated: raw
#: times spread across seeds with the instances drawn (see README.md), and
#: the fractions can be exactly 0.
TRIAL_REPORT = (
    Metric("trials_per_s", "1/s", "higher"),
    Metric("trial_s.p50", "s", "lower"),
    Metric("trial_s.p75", "s", "lower"),
    Metric("recovered_frac", "ratio", "higher"),
    Metric("certified_wrong_frac", "ratio", "lower"),
    Metric("failed_frac", "ratio", "lower"),
    Metric("iter_cost.p50", "ref_steps", "lower"),
)


def load(root: Path = ROOT) -> Benchmark:
    """Declarations of BENCHMARK.json joined with the Python-side ones."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    pools = json.loads((HERE / "pool.json").read_text())
    workloads = {}
    for w in spec["workloads"]:
        template, panel_size = TEMPLATES[w["name"]]
        workloads[w["name"]] = Workload(w["name"], w["why"], template, panel_size, tuple(pools[w["name"]]))
    return Benchmark(
        workloads=workloads,
        end_to_end=tuple(Metric(**m) for m in spec["end_to_end"]),
        per_layer=tuple(Metric(**m, target=TARGETS[m["name"]]) for m in spec["per_layer"]),
    )
