"""README's examples run: its python blocks in order, in one namespace,
then each of its `mmwpl` command lines through cli.main, in a directory
holding a samples.csv of all 20 measured cells at 28 and 73 GHz, drawn the
way tests/test_golden.py draws its inputs."""

import contextlib
import io
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np

from mmwpl import cli
from mmwpl.cli import main
from mmwpl.models import PARAMS_CLASSES, XPD_BASE_FAMILIES, XpdExtension
from test_cli import subparsers
from test_golden import PAIRS, _cells, _write

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language):
    """The bodies of README's code blocks in one language, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def command_lines():
    """Every `mmwpl` line of README's sh blocks, backslash continuations joined."""
    return [line for block in fenced("sh") for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("mmwpl ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cells = [(env, layout, pol, freq) for env, layout in PAIRS
             for pol in ("VV", "VH") for freq in (28.0, 73.0)]
    _write("samples.csv", _cells(np.random.default_rng(18), cells, 25))
    blocks, lines = fenced("python"), command_lines()
    assert len(blocks) == 2 and len(lines) == 8
    namespace, stderr = {}, io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        failed = [(line, code) for line in lines if (code := main(shlex.split(line)[1:]))]
    assert failed == [], stderr.getvalue()


def test_exit_code_table_lists_the_codes_cli_defines():
    section = README.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    listed = {int(code) for code in re.findall(r"^\| (\d+) \|", section, re.M)}
    defined = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert listed == defined == {0, 2, 3, 4, 141}


def test_params_key_table_is_the_record():
    section = README.split("\n## Parameter JSON format\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([A-Z, ]+) \| (`.*`) \| (`.*`) \|$", section, re.M)
    listed = {tuple(models.split(", ")): [(attr, key) for key, attr in zip(
        re.findall(r"`(\w+)`", keys), re.findall(r"`(\w+)`", attrs), strict=True)]
        for models, keys, attrs in rows}
    classes = {(family,): cls for family, cls in PARAMS_CLASSES.items()}
    classes[tuple(base + "X" for base in XPD_BASE_FAMILIES)] = XpdExtension
    record = {models: [(field.name, name) for field, name in zip(fields(cls), cls._json_names)]
              for models, cls in classes.items()}
    assert listed == record


def test_readme_flags_match_the_parser():
    install = README.split("\n## Install\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][\w-]*", README.replace(install, "")))
    options = [set(action.option_strings) for command in subparsers(cli.build_parser()).values()
               for action in command._actions if action.dest != "help"]
    assert named - set().union(*options) == set()
    assert [sorted(strings) for strings in options if not strings & named] == []
