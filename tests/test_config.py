"""Every config's and record's dataclass annotations are its schema, and
one loader, ``from_json(cls, obj)``, reads every one of them: a field
annotated with a dataclass, or a list of one, is built from its nested
JSON by that same loader. Each int, float and bool field rejects a
wrong-typed value by name, and the loader rejects a key that is not a
field by name. Every record that checks itself applies the type rule. The
settings of a solve are declared and checked once, by ``SolveConfig``, for
every config that extends it."""

import ast
import json
from dataclasses import fields
from pathlib import Path

import pytest

from gramscope.batch import BatchSpec
from gramscope.cli import EXIT_CONFIG, DataConfig, main
from gramscope.estimator import SolveConfig, TrialConfig
from gramscope.gram import GramMatrix, Knowledge
from gramscope.solver import SdpProblem, SolverOptions
from gramscope.synth import DataTable, dump_json, from_json

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gramscope"

TRIAL = {"d": 2, "n_states": 3, "n_measurements": 2}

#: Per config or record class, a valid JSON dict; ``from_json`` reads every one.
LOADERS = {
    SolverOptions: {},
    SolveConfig: {"d": 2},
    TrialConfig: TRIAL,
    BatchSpec: {"templates": [TRIAL], "trials_per_template": 1},
    DataConfig: {"d": 2, "data": "recorded"},
    DataTable: {
        "values": [[0.5, 0.5]], "n_states": 1, "n_measurements": 1, "n_outcomes": 2, "shots": None
    },
    GramMatrix: {"values": [[1.0, 0.0], [0.0, 1.0]], "n_states": 1},
    Knowledge: {"n": 3, "split": 1},
    SdpProblem: {"knowledge": {"n": 2}, "radius": 1.0},
}

#: Wrong-typed values for each checked annotation, alone or with "| None".
WRONG = {"int": [True, 2.5], "float": ["1", float("nan"), True], "bool": [1]}

FIELD_CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in LOADERS
    for f in fields(cls)
    for value in WRONG.get(f.type.partition(" | ")[0], [])
]


@pytest.mark.parametrize("cls, name, value", FIELD_CASES)
def test_wrong_type_is_rejected_by_name(cls, name, value):
    valid = LOADERS[cls]
    from_json(cls, valid)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        from_json(cls, {**valid, name: value})


@pytest.mark.parametrize("cls", list(LOADERS), ids=lambda cls: cls.__name__)
def test_unknown_key_is_rejected_by_name(cls):
    with pytest.raises(ValueError, match="bogus_key"):
        from_json(cls, {**LOADERS[cls], "bogus_key": 1})


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


SOLVER = SolverOptions(max_iters=77, primal_tol=1e-7, dual_tol=2e-7)
NESTED = {"d": 3, "degeneracies": [2, 1], "solver": SOLVER}
ROUND_TRIP = [
    SOLVER,
    SolveConfig(**NESTED, epsilon=0.01),
    TrialConfig(**NESTED, n_states=4, n_measurements=3, shots=100, seed=9),
    DataConfig(**NESTED, data="recorded"),
    BatchSpec(
        [TrialConfig(**NESTED, n_states=4, n_measurements=3), TrialConfig(**TRIAL)],
        trials_per_template=2,
        master_seed=5,
        jobs=3,
    ),
]


@pytest.mark.parametrize("config", ROUND_TRIP, ids=lambda c: type(c).__name__)
def test_written_config_reads_back_equal(config, tmp_path):
    # nested solver options and templates are read by their annotations
    dump_json(config, tmp_path / "config.json")
    back = from_json(type(config), json.loads((tmp_path / "config.json").read_text()))
    assert back == config


@pytest.mark.parametrize(
    "templates", [3, "templates", {"d": 2}, None], ids=["number", "string", "object", "null"]
)
def test_list_field_given_a_non_list_is_rejected_by_name(templates):
    with pytest.raises(ValueError, match="^templates must be a list"):
        from_json(BatchSpec, {"templates": templates, "trials_per_template": 1})


def test_every_post_init_applies_the_type_rule():
    # a record that checks itself calls check_types, or a base that does, so
    # a new record cannot skip the type rule
    checked, skipping = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                continue
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "__post_init__":
                    calls = {ast.unparse(c) for c in ast.walk(method) if isinstance(c, ast.Call)}
                    ok = calls & {"check_types(self)", "super().__post_init__()"}
                    (checked if ok else skipping).append(node.name)
    assert skipping == []
    assert {cls.__name__ for cls in LOADERS if "__post_init__" in vars(cls)} <= set(checked)
