"""Every config's and record's dataclass annotations are its schema, and
one loader, ``from_json(cls, obj)``, reads every one of them: a field
annotated with a dataclass, or a list of one, is built from its nested
JSON by that same loader, and an error inside names its place. One type
rule, ``check_types``, decides what each field may hold, and every field
of a kind it checks rejects a wrong-typed value by name, as every limit in
an annotation rejects the nearest value past it; the loader
rejects a key that is not a field by name. Every record that checks itself
applies the type rule. The settings of a solve are declared and checked
once, by ``SolveConfig``, for every config that extends it.

This module has no ``from __future__ import annotations``, so the records
it declares carry evaluated annotations, not strings."""

import ast
import importlib
import inspect
import json
import math
import re
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from gramscope.batch import BatchSpec
from gramscope.cli import EXIT_CONFIG, DataConfig, main
from gramscope.estimator import SolveConfig, TrialConfig
from gramscope.gram import GramMatrix, Knowledge
from gramscope.solver import SdpProblem, SolverOptions
from gramscope.synth import DataTable, Ensemble, check_types, dump_json, field_types, from_json

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
        "values": [[1.0]], "n_states": 1, "n_measurements": 1, "n_outcomes": 1, "shots": None
    },
    GramMatrix: {"values": [[1.0, 0.0], [0.0, 1.0]], "n_states": 1},
    Knowledge: {"n": 3, "split": 0},
    SdpProblem: {"knowledge": {"n": 2}, "radius": 1.0},
}

#: Wrong-typed values for each scalar annotation the rule checks.
WRONG = {int: [True, 2.5], float: ["1", float("nan"), True], bool: [1], str: [5]}
#: Annotations the rule leaves unchecked.
UNCHECKED = (np.ndarray, list)


def wrong_values(kind):
    """Values the type rule rejects for the annotation ``kind``: a number or
    a plain dict for a record, a number for a list, or a list holding a value
    its item annotation rejects; ``X | None`` has X's."""
    if type(None) in typing.get_args(kind):
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is list:
        return [3] + [[value] for value in wrong_values(typing.get_args(kind)[0])]
    return [5, {"n": 2}] if is_dataclass(kind) else WRONG.get(kind, [])


FIELD_CASES = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
    for cls in LOADERS
    for name, kind in field_types(cls).items()
    for value in wrong_values(kind)
] + [pytest.param(TrialConfig, "degeneracies", [True, 1], id="TrialConfig.degeneracies=[True, 1]")]


@pytest.mark.parametrize("cls, name, value", FIELD_CASES)
def test_wrong_type_is_rejected_by_name(cls, name, value):
    valid = LOADERS[cls]
    record = from_json(cls, valid)
    message = rf"^{name}(\[\d+\])? must be"
    with pytest.raises(ValueError, match=message):
        replace(record, **{name: value})
    items = value if isinstance(value, list) else [value]
    if not any(isinstance(item, dict) for item in items):  # from_json builds a JSON object
        with pytest.raises(ValueError, match=message):
            from_json(cls, {**valid, name: value})


#: Per record whose annotations bound a field, a valid JSON dict; each
#: valid counting field sits at its limit, so a record at a closed limit is
#: one field away from it.
BOUNDED = {**LOADERS, Ensemble: {"dim": 1}}


def bounds(hint):
    """The type and the (op, limit) bounds of an annotation; ``X | None`` has X's."""
    if type(None) in typing.get_args(hint):
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is typing.Annotated:
        return hint.__origin__, hint.__metadata__
    return hint, ()


def nearest_past(kind, op, limit):
    """The value of ``kind`` nearest ``limit`` that the bound (op, limit)
    rejects: the limit itself for ``>``, otherwise one step past it."""
    if op == ">":
        return kind(limit)
    step = 1 if op == "<=" else -1
    return limit + step if kind is int else math.nextafter(limit, step * math.inf)


LIMIT_CASES = [
    pytest.param(cls, name, kind, op, limit, id=f"{cls.__name__}.{name}{op}{limit}")
    for cls in BOUNDED
    for name, hint in field_types(cls, include_extras=True).items()
    for kind, limits in [bounds(hint)]
    for op, limit in limits
]


@pytest.mark.parametrize("cls, name, kind, op, limit", LIMIT_CASES)
def test_value_past_a_limit_is_rejected_by_name(cls, name, kind, op, limit):
    valid = BOUNDED[cls]
    record = from_json(cls, valid)
    value = nearest_past(kind, op, limit)
    message = rf"^{name} must be {re.escape(op)} {limit}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        replace(record, **{name: value})
    with pytest.raises(ValueError, match=message):
        from_json(cls, {**valid, name: value})
    if op != ">":  # a closed bound takes its limit
        assert getattr(replace(record, **{name: kind(limit)}), name) == limit


def test_every_counting_record_has_bounded_fields():
    assert {case.values[0] for case in LIMIT_CASES} == set(BOUNDED) - {GramMatrix}


@pytest.mark.parametrize("cls", list(LOADERS), ids=lambda cls: cls.__name__)
def test_unknown_key_is_rejected_by_name(cls):
    with pytest.raises(ValueError, match="bogus_key"):
        from_json(cls, {**LOADERS[cls], "bogus_key": 1})


def test_every_config_has_checked_fields():
    assert {case.values[0] for case in FIELD_CASES} == set(LOADERS)


@pytest.mark.parametrize(
    "cls, obj, message",
    [
        (
            BatchSpec,
            {"templates": [TRIAL, {**TRIAL, "nstates": 3}], "trials_per_template": 1},
            "templates[1]: unknown TrialConfig key(s): ['nstates']",
        ),
        (
            BatchSpec,
            {"templates": [{**TRIAL, "solver": {"max_iters": True}}], "trials_per_template": 1},
            "templates[0].solver: max_iters must be an integer, got True",
        ),
        (
            BatchSpec,
            {"templates": [{**TRIAL, "solver": {"max_iters": 0}}], "trials_per_template": 1},
            "templates[0].solver: max_iters must be >= 1, got 0",
        ),
        (
            BatchSpec,
            {"templates": [{**TRIAL, "solver": 5}], "trials_per_template": 1},
            "templates[0]: solver must be a SolverOptions, got 5",
        ),
        (
            BatchSpec,
            {"templates": [TRIAL, {**TRIAL, "d": 0}], "trials_per_template": 1},
            "templates[1]: d must be >= 1, got 0",
        ),
        (
            BatchSpec,
            {"templates": [TRIAL, 5], "trials_per_template": 1},
            "templates[1] must be a TrialConfig, got 5",
        ),
        (
            SolveConfig,
            {"d": 2, "solver": {"max_iters": True}},
            "solver: max_iters must be an integer, got True",
        ),
        (
            TrialConfig,
            {**TRIAL, "solver": {"max_iterz": 10}},
            "solver: unknown SolverOptions key(s): ['max_iterz']",
        ),
        (
            SdpProblem,
            {"knowledge": {"n": 0.5}, "radius": 1.0},
            "knowledge: n must be an integer, got 0.5",
        ),
    ],
    ids=[
        "template-key",
        "template-solver-type",
        "template-solver-range",
        "template-solver-number",
        "template-range",
        "template-number",
        "solver-type",
        "solver-key",
        "knowledge-type",
    ],
)
def test_error_in_a_nested_record_names_its_place(cls, obj, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_json(cls, obj)


@dataclass(frozen=True)
class Evaluated:
    """A record whose annotations are classes, not strings."""

    count: int
    scale: float | None = None
    sizes: list[int] = field(default_factory=list)
    label: str = ""
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        check_types(self)


def test_rule_reads_evaluated_annotations():
    assert Evaluated(2, 0.5, [1, 2], "x") == Evaluated(2, 0.5, [1, 2], "x")
    assert from_json(Evaluated, {"count": 1, "solver": {"max_iters": 3}}).solver.max_iters == 3
    for bad, message in (
        ({"count": True}, "count must be an integer"),
        ({"scale": "1"}, "scale must be a finite real number"),
        ({"sizes": [1, 2.5]}, r"sizes\[1\] must be an integer"),
        ({"label": 5}, "label must be a string"),
        ({"solver": {}}, "solver must be a SolverOptions"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            Evaluated(**{"count": 1, **bad})


def known_to_the_rule(kind) -> bool:
    """Whether ``check_types`` checks the annotation ``kind`` or leaves it
    unchecked by name: a scalar in ``WRONG``, a record, ``list[X]`` or
    ``X | None`` of such an X, or one of ``UNCHECKED``."""
    args = typing.get_args(kind)
    if type(None) in args:
        return len(args) == 2 and args[1] is type(None) and known_to_the_rule(args[0])
    if typing.get_origin(kind) is list:
        return known_to_the_rule(args[0])
    return kind in WRONG or is_dataclass(kind) or kind in UNCHECKED


def test_every_annotation_is_a_kind_the_rule_knows():
    # a dict[...] or tuple[...] field would pass the rule unchecked: it must
    # fail here first, and be given a rule or named as unchecked
    records = [
        cls
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for cls in vars(importlib.import_module(f"gramscope.{path.stem}")).values()
        if inspect.isclass(cls) and is_dataclass(cls) and cls.__module__ == f"gramscope.{path.stem}"
    ]
    assert set(LOADERS) <= set(records)
    unknown = [
        f"{cls.__name__}.{name}: {kind}"
        for cls in records
        for name, kind in field_types(cls).items()
        if not known_to_the_rule(kind)
    ]
    assert unknown == []
    for kind in (dict[str, int], tuple[int, int], int | str, list[dict], typing.Any):
        assert not known_to_the_rule(kind), kind


def numbers_scopes(node: ast.AST, scope: str):
    """The dotted scope of every use of the ``numbers`` module under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from numbers_scopes(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.ImportFrom) and child.module == "numbers":
            yield scope
        if isinstance(child, ast.Attribute) and ast.unparse(child.value) == "numbers":
            yield scope
        yield from numbers_scopes(child, scope)


def test_numbers_are_tested_only_by_the_type_rule_and_pin_rows():
    # an element check written by hand would drift from the rule's lines and
    # messages; only Knowledge's pin rows take an integral float on purpose
    scopes = {
        scope
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in numbers_scopes(ast.parse(path.read_text(), str(path)), path.stem)
    }
    assert scopes == {"synth._check", "gram.Knowledge.__post_init__"}


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
