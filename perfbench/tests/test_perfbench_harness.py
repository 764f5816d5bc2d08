"""Output check, determinism guard, declarations and a tiny run of each workload."""

import json
import math
import time
from dataclasses import replace

import pytest

import gramscope.batch
import harness
import workloads
from make_pool import pool_iterations

BENCH = workloads.load()

TINY = {
    "d2_single_solve": {"solver": {"max_iters": 300}},
    "d2_shots_augment": {"max_augmentations": 2, "solver": {"max_iters": 300}},
    "d3_large_solve": {"n_states": 4, "n_measurements": 4, "solver": {"max_iters": 300}},
}


def tiny(name, pool_size=3):
    w = BENCH.workloads[name]
    template = {**w.template, **TINY[name]}
    template["solver"] = {**w.template["solver"], **TINY[name]["solver"]}
    pool = tuple(pool_iterations(template, pool_size))
    return replace(w, template=template, panel_size=2, pool=pool)


def test_declarations_cover_every_workload_and_metric():
    assert list(BENCH.workloads) == list(workloads.TEMPLATES)
    for w in BENCH.workloads.values():
        assert w.why and len(w.pool) >= 2 * w.panel_size and min(w.pool) > 0
    assert [m.name for m in BENCH.end_to_end][-1] == "setup_s"
    assert all(m.bound for m in BENCH.end_to_end)
    assert all(m.target for m in BENCH.per_layer)


def test_panel_depends_on_the_seed_only():
    w = BENCH.workloads["d2_single_solve"]
    assert harness.panel(w, 5) == harness.panel(w, 5)
    assert harness.panel(w, 5) != harness.panel(w, 6)
    assert len(set(harness.panel(w, 5))) == w.panel_size


GOOD = {"converged": True, "data_block_error": 1e-9, "max_entry_error": 0.2, "seed": 1}


@pytest.mark.parametrize(
    "record, pinned, eps, bad",
    [
        (GOOD, 1e-9, 0.0, False),
        ({**GOOD, "max_entry_error": math.nan}, 1e-9, 0.0, True),
        ({**GOOD, "frobenius_error": math.inf}, 1e-9, 0.0, True),
        ({**GOOD, "data_block_error": 1e-3}, 1e-9, 0.0, True),
        (GOOD, 1e-3, 0.0, True),
        ({**GOOD, "data_block_error": 6e-3}, 5e-3, 5e-3, False),
        (GOOD, 5.1e-3, 5e-3, True),
        ({**GOOD, "converged": False, "data_block_error": 1.0}, 1.0, 0.0, False),
    ],
)
def test_check_trial(record, pinned, eps, bad):
    assert bool(harness.check_trial(record, pinned, eps)) == bad


def test_failed_frac_counts_a_corrupted_record(monkeypatch):
    real = gramscope.batch.run_trial
    calls = []

    def corrupt_second(cfg):
        record = real(cfg)
        calls.append(cfg.seed)
        if len(calls) == 2:
            record["max_entry_error"] = math.nan
        return record

    w = tiny("d2_single_solve")
    monkeypatch.setattr(gramscope.batch, "run_trial", corrupt_second)
    cfg = harness.trial_config_from_json(w.template)
    rec = harness.Recorder(reference=harness.Reference())
    trials = [harness.run_instance(cfg, m, rec) for m in range(3)]
    assert [bool(t.problems) for t in trials] == [False, True, False]
    _, report, bases = harness.end_to_end(w, [trials], [(0.1, harness.REFERENCE_STEP_US)])
    assert report["failed_frac"] == pytest.approx(1 / 3)
    assert bases["failed_frac"] == "1/3 attempted"


@pytest.mark.parametrize("trace", [False, True])
def test_a_raising_program_reports_every_trial_failed(trace, monkeypatch, tmp_path):
    real, calls = gramscope.batch.run_trial, []

    def broken_after_warmup(cfg):
        calls.append(cfg.seed)
        if len(calls) > 1:
            raise RuntimeError("broken solver")
        return real(cfg)

    w = tiny("d2_single_solve")
    monkeypatch.setattr(gramscope.batch, "run_trial", broken_after_warmup)
    lines, result = harness.run_workload(
        BENCH, w, 5, 0.01, trace, time.perf_counter(), state_dir=tmp_path
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"] == {}
    assert any("batch raised" in line for line in lines)


def test_a_raising_set_up_reports_a_failed_run(monkeypatch, tmp_path):
    def broken(cfg):
        raise RuntimeError("broken solver")

    w = tiny("d2_single_solve")
    monkeypatch.setattr(gramscope.batch, "run_trial", broken)
    _, result = harness.run_workload(
        BENCH, w, 5, 0.01, False, time.perf_counter(), state_dir=tmp_path
    )
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _trial(instance, digest, iterations):
    return harness.Trial(instance, 0.1, 40.0, {}, [], digest, iterations)


def test_determinism_guard_flags_a_changed_digest(tmp_path):
    store = tmp_path / "determinism.json"
    assert harness.check_determinism(store, "k", [_trial(0, "aa", 10)]) == []
    assert harness.check_determinism(store, "k", [_trial(0, "aa", 10), _trial(1, "bb", 5)]) == []
    assert harness.check_determinism(store, "k", [_trial(0, "aa", 11)])
    assert harness.check_determinism(store, "other", [_trial(0, "zz", 1)]) == []


@pytest.mark.parametrize("name", list(workloads.TEMPLATES))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    lines, result = harness.run_workload(
        BENCH, tiny(name), 5, 0.01, trace, time.perf_counter(), state_dir=tmp_path
    )
    declared = BENCH.per_layer if trace else BENCH.end_to_end
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in declared]
    for m in declared:
        entry = result["metrics"][m.name]
        assert entry["unit"] == m.unit and math.isfinite(entry["value"])
    json.dumps(result)
    assert any(line.startswith("environment ") for line in lines)
    assert any(line.startswith("determinism ") and line.endswith("ok") for line in lines)
