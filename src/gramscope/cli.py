"""Command-line front end: synth | estimate | batch | check-theory.

Exit codes: 0 success, 1 check failure or program error (with a
traceback), 2 config or input error (a file that is not UTF-8 JSON, a
config or recorded table its dataclass rejects), 3 I/O error.
GRAMSCOPE_LOG in {error, warn, info, debug} controls verbosity. Flags
override config-file values. Every JSON output file is written by
``synth.dump_json``, a record as its dataclass fields.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .batch import batch_spec_from_json, run_batch
from .estimator import (
    SolveConfig,
    draw_trial,
    estimate,
    evaluate,
    solve_table,
    trial_config_from_json,
)
from .solver import SolverOptions
from .synth import DataTable, dump_json, from_json, projective_multiplicities, table_to_csv
from .theory import MAX_BRUTEFORCE_N, run_all_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

log = logging.getLogger("gramscope")


class ConfigError(Exception):
    pass


def _setup_logging() -> None:
    level = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(os.environ.get("GRAMSCOPE_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _apply_overrides(cfg: dict, args) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config must be a JSON object, got {cfg!r}")
    cfg = dict(cfg)
    for key in ("seed", "master_seed", "shots", "epsilon", "tau", "jobs"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    max_iters, tol = getattr(args, "max_iters", None), getattr(args, "tol", None)
    if max_iters is not None or tol is not None:
        solver = cfg.get("solver", {})
        if not isinstance(solver, dict):
            raise ConfigError(f"solver must be a JSON object, got {solver!r}")
        solver = cfg["solver"] = dict(solver)
        if max_iters is not None:
            solver["max_iters"] = max_iters
        if tol is not None:
            solver["primal_tol"] = solver["dual_tol"] = tol
    return cfg


def cmd_synth(args) -> int:
    cfg = _apply_overrides(_load_json(args.config), args)
    try:
        c = trial_config_from_json(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad trial config: {exc}") from exc
    ens, table = draw_trial(c, np.random.default_rng(c.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(ens, out / "ensemble.json")
    dump_json(table, out / "table.json")
    (out / "table.csv").write_text(table_to_csv(table))
    log.info(
        "wrote ensemble and table for d=%d, W=%d, V=%d to %s",
        c.d, c.n_states, c.n_measurements, out,
    )
    return EXIT_OK


@dataclass(frozen=True, kw_only=True)
class DataConfig(SolveConfig):
    """The ``estimate`` config of a recorded table: ``data`` is the directory
    holding its ``table.json``; the other fields are ``SolveConfig``'s."""

    data: str


def _write_estimate(est, metrics, out: Path) -> None:
    """Write the ``estimate.json`` of a ``GramEstimate``, with the same keys for
    a trial and a recorded table; a table has no ground truth, so its ``metrics`` is null."""
    result = {
        "certified": est.certified,
        "target_rank": est.target_rank,
        "augmentations": est.augmentations,
        "solves": est.solves,
        "total_iterations": est.total_iterations,
        "report": est.report,
        "metrics": metrics,
    }
    out.mkdir(parents=True, exist_ok=True)
    dump_json(result, out / "estimate.json")


def _estimate_from_data(cfg: dict, out: Path) -> int:
    """Single solve + certify on a previously recorded table (no ground
    truth, no augmentation loop)."""
    try:
        c = from_json(DataConfig, cfg, solver=lambda s: from_json(SolverOptions, s))
        table = from_json(DataTable, _load_json(str(Path(c.data) / "table.json")))
        projective_multiplicities(c.d, table.n_outcomes, c.degeneracies)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad estimate config or table: {exc}") from exc
    est = solve_table(table, c)
    _write_estimate(est, None, out)
    dump_json(est.g_hat, out / "g_hat.json")
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg = _apply_overrides(_load_json(args.config), args)
    out = Path(args.out)
    if "data" in cfg:
        return _estimate_from_data(cfg, out)
    try:
        trial = trial_config_from_json(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad trial config: {exc}") from exc
    est, truth = estimate(trial)
    metrics = evaluate(est, truth)
    _write_estimate(est, metrics, out)
    if args.dump:
        dump_json(est.g_hat, out / "g_hat.json")
        dump_json(truth, out / "ground_truth.json")
        dump_json(est.table, out / "table.json")
    log.info(
        "estimate: certified=%s augmentations=%d max_err=%.2e",
        est.certified,
        est.augmentations,
        metrics.max_entry_error,
    )
    return EXIT_OK


def cmd_batch(args) -> int:
    obj = _apply_overrides(_load_json(args.config), args)
    try:
        spec = batch_spec_from_json(obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad batch spec: {exc}") from exc
    out = Path(args.out)
    (out / "trials").mkdir(parents=True, exist_ok=True)
    report, records = run_batch(spec)
    per = spec.trials_per_template
    for idx, record in enumerate(records):
        ti, tr = divmod(idx, per)
        dump_json(record, out / "trials" / f"template{ti}_trial{tr:03d}.json")
    dump_json(report.to_json(), out / "report.json")
    dump_json(report.timing_json(), out / "timing.json")
    (out / "summary.csv").write_text(report.summary_csv())
    for t in report.templates:
        log.info(
            "d=%d (%d,%d): %d/%d successes",
            t["d"],
            t["start_point"][0],
            t["start_point"][1],
            t["successes"],
            t["trials"],
        )
    return EXIT_OK


def cmd_check_theory(args) -> int:
    if not 1 <= args.n <= MAX_BRUTEFORCE_N:
        raise ConfigError(f"brute-force checks need 1 <= n <= {MAX_BRUTEFORCE_N}, got {args.n}")
    if args.trials < 1 or args.seed < 0:
        raise ConfigError(f"need trials >= 1 and seed >= 0, got {args.trials}, {args.seed}")
    results = run_all_checks(args.n, args.trials, args.seed)
    for name, res in results.items():
        if name == "ok":
            continue
        status = "pass" if res["ok"] else "FAIL"
        print(f"{name}: {status}")
        if not res["ok"]:
            print(f"  counterexample: {json.dumps(res)}")
    return EXIT_OK if results["ok"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramscope",
        description="Gram-matrix completion experiments for state-measurement tomography",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate an ensemble and its data table")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--shots", type=int)
    p_synth.set_defaults(func=cmd_synth)

    p_est = sub.add_parser("estimate", help="run one estimation trial or solve saved data")
    p_est.add_argument("--config", required=True)
    p_est.add_argument("--out", required=True)
    p_est.add_argument("--seed", type=int)
    p_est.add_argument("--shots", type=int)
    p_est.add_argument("--epsilon", type=float)
    p_est.add_argument("--tau", type=float)
    p_est.add_argument("--max-iters", type=int)
    p_est.add_argument("--tol", type=float)
    p_est.add_argument("--dump", action="store_true", help="also write g_hat / table / ground truth")
    p_est.set_defaults(func=cmd_estimate)

    p_batch = sub.add_parser("batch", help="run a batch of trials and summarize")
    p_batch.add_argument("--config", required=True)
    p_batch.add_argument("--out", required=True)
    p_batch.add_argument("--seed", type=int, dest="master_seed")
    p_batch.add_argument("--jobs", type=int)
    p_batch.set_defaults(func=cmd_batch)

    p_check = sub.add_parser("check-theory", help="run the structural self-checks")
    p_check.add_argument("--n", type=int, default=3, help="matrix size for brute-force checks")
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check_theory)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
