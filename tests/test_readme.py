"""The code blocks of README.md hold as written: its library snippets run,
its `gramscope` commands parse and each config loads as what it is."""

import json
import re
import shlex
from pathlib import Path

from gramscope.cli import DataConfig, build_parser
from gramscope.estimator import TrialConfig
from gramscope.synth import from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_python_snippets_run_in_order():
    # later snippets use names the earlier ones define, as a reader would
    # run them in one session
    python = blocks("python")
    assert python
    namespace = {}
    for block in python:
        exec(compile(block, str(README), "exec"), namespace)


def test_commands_parse():
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks("sh")
        for line in block.splitlines()
        if line.startswith("gramscope ")
    ]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)


def configs(recorded):
    # a config with a "data" key is a recorded-table config, as the CLI reads it
    return [obj for obj in map(json.loads, blocks("json")) if ("data" in obj) == recorded]


def test_trial_config_loads():
    assert configs(recorded=False)
    for obj in configs(recorded=False):
        from_json(TrialConfig, obj)


def test_data_config_loads():
    assert configs(recorded=True)
    for obj in configs(recorded=True):
        from_json(DataConfig, obj)
