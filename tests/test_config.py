"""Every config's dataclass annotations are its schema: each int, float and
bool field rejects a wrong-typed value by name, and each JSON loader
rejects a key that is not a field by name. The settings of a solve are
declared and checked once, by ``SolveConfig``, for every config that
extends it."""

import json
from dataclasses import fields

import pytest

from gramscope.batch import BatchSpec, batch_spec_from_json
from gramscope.cli import EXIT_CONFIG, DataConfig, main
from gramscope.estimator import SolveConfig, TrialConfig, trial_config_from_json
from gramscope.solver import SolverOptions
from gramscope.synth import DataTable, from_json

TRIAL = {"d": 2, "n_states": 3, "n_measurements": 2}

#: Per config class: the loader that reads it from JSON and a valid dict.
LOADERS = {
    SolverOptions: (lambda obj: from_json(SolverOptions, obj), {}),
    SolveConfig: (lambda obj: from_json(SolveConfig, obj), {"d": 2}),
    TrialConfig: (trial_config_from_json, TRIAL),
    BatchSpec: (batch_spec_from_json, {"templates": [TRIAL], "trials_per_template": 1}),
    DataConfig: (lambda obj: from_json(DataConfig, obj), {"d": 2, "data": "recorded"}),
    DataTable: (
        lambda obj: from_json(DataTable, obj),
        {"values": [[0.5, 0.5]], "n_states": 1, "n_measurements": 1, "n_outcomes": 2, "shots": None},
    ),
}

#: Wrong-typed values for each checked annotation, alone or with "| None".
WRONG = {"int": [True, 2.5], "float": ["1", float("nan")], "bool": [1]}

FIELD_CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in LOADERS
    for f in fields(cls)
    for value in WRONG.get(f.type.partition(" | ")[0], [])
]


@pytest.mark.parametrize("cls, name, value", FIELD_CASES)
def test_wrong_type_is_rejected_by_name(cls, name, value):
    load, valid = LOADERS[cls]
    load(valid)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        load({**valid, name: value})


@pytest.mark.parametrize("cls", list(LOADERS), ids=lambda cls: cls.__name__)
def test_unknown_key_is_rejected_by_name(cls):
    load, valid = LOADERS[cls]
    with pytest.raises(ValueError, match="bogus_key"):
        load({**valid, "bogus_key": 1})


def test_every_config_has_checked_fields():
    assert {case.values[0] for case in FIELD_CASES} == set(LOADERS)


def test_solve_settings_are_declared_once():
    # a solve setting added to one subclass only would not reach the other
    solve = {f.name for f in fields(SolveConfig)}
    for cls in (TrialConfig, DataConfig):
        assert issubclass(cls, SolveConfig)
        assert not solve & set(cls.__annotations__), cls.__name__


@pytest.mark.parametrize(
    "bad",
    [{"d": 0}, {"tau": 0}, {"epsilon": -1}, {"d": 3, "degeneracies": [2, 2]}, {"solver": 5}],
    ids=["d=0", "tau=0", "epsilon=-1", "degeneracies=[2,2]", "solver=5"],
)
def test_bad_solve_setting_is_rejected_alike(bad, tmp_path):
    with pytest.raises(ValueError) as exc:
        SolveConfig(**{"d": 2, **bad})
    data = {"d": 2, "data": str(tmp_path / "recorded")}
    for cls, valid in ((TrialConfig, TRIAL), (DataConfig, data)):
        with pytest.raises(ValueError) as other:
            cls(**{**valid, **bad})
        assert str(other.value) == str(exc.value)
        # a missing table would exit 3: the config is rejected before it is read
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps({**valid, **bad}))
        assert main(["estimate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
