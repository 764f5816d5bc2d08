"""Command-line front end: synth | estimate | batch | check-theory.

Exit codes: 0 success, 1 check failure or program error (with a
traceback), 2 config or input error (a file that is not UTF-8 JSON, a
config or recorded table its dataclass rejects), 3 I/O error.
GRAMSCOPE_LOG in {error, warn, info, debug} controls verbosity. The
``--config`` file alone holds a run's settings. Every output file is JSON
written by ``synth.dump_json``, a record as its dataclass fields.
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

from .batch import BatchSpec, run_batch
from .estimator import (
    SolveConfig,
    TrialConfig,
    draw_trial,
    estimate,
    estimate_record,
    evaluate,
    solve_table,
)
from .synth import DataTable, dump_json, from_json, projective_multiplicities
from .theory import check_settings, run_all_checks

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
    """The JSON object in ``path``; anything else is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object, got {obj!r}")
    return obj


def _checked(what: str, build, *args):
    """``build(*args)``, with a value it rejects raised as a ConfigError."""
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def cmd_synth(args) -> int:
    c = _checked("trial config", from_json, TrialConfig, _load_json(args.config))
    ens, table = draw_trial(c, np.random.default_rng(c.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(ens, out / "ensemble.json")
    dump_json(table, out / "table.json")
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


def _recorded_table(cfg: dict) -> tuple[DataTable, DataConfig]:
    """The checked ``DataConfig`` of ``cfg`` and the table it names."""
    c = from_json(DataConfig, cfg)
    table = from_json(DataTable, _load_json(str(Path(c.data) / "table.json")))
    projective_multiplicities(c.d, table.n_outcomes, c.degeneracies)
    return table, c


def cmd_estimate(args) -> int:
    """Run one trial, or, when the config names a ``data`` directory, one
    solve and certificate of its recorded table (no ground truth, no
    augmentation). Either way write ``estimate.json``, the estimate's
    ``estimate_record`` (a table's metrics are null), ``g_hat.json`` and the
    ``table.json`` solved; a trial also writes ``ground_truth.json``."""
    cfg = _load_json(args.config)
    truth = metrics = None
    if "data" in cfg:
        table, c = _checked("estimate config or table", _recorded_table, cfg)
        est = solve_table(table, c)
    else:
        est, truth = estimate(_checked("trial config", from_json, TrialConfig, cfg))
        metrics = evaluate(est, truth)
    record = estimate_record(est, metrics)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(record, out / "estimate.json")
    dump_json(est.g_hat, out / "g_hat.json")
    if truth is not None:
        dump_json(truth, out / "ground_truth.json")
    dump_json(est.table, out / "table.json")
    log.info("estimate: %s", record)
    return EXIT_OK


def cmd_batch(args) -> int:
    spec = _checked("batch spec", from_json, BatchSpec, _load_json(args.config))
    out = Path(args.out)
    (out / "trials").mkdir(parents=True, exist_ok=True)
    report, records = run_batch(spec)
    per = spec.trials_per_template
    for idx, record in enumerate(records):
        ti, tr = divmod(idx, per)
        dump_json(record, out / "trials" / f"template{ti}_trial{tr:03d}.json")
    dump_json(report.to_json(), out / "report.json")
    dump_json(report.timing_json(), out / "timing.json")
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
    _checked("check-theory settings", check_settings, args.n, args.trials, args.seed)
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

    for name, func, help_ in (
        ("synth", cmd_synth, "generate an ensemble and its data table"),
        ("estimate", cmd_estimate, "run one estimation trial or solve saved data"),
        ("batch", cmd_batch, "run a batch of trials and summarize"),
    ):
        p_run = sub.add_parser(name, help=help_)
        p_run.add_argument("--config", required=True)
        p_run.add_argument("--out", required=True)
        p_run.set_defaults(func=func)

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
