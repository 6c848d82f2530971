"""The README's examples run as printed: each definition block parses on its
own, each CLI quick-start line exits 0 with strict JSON, and the Python
quick start runs."""

import json
import re
import shlex
from pathlib import Path

import pytest

from superrep import cli
from superrep.dsl import parse

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)
LISP = [body for lang, body in BLOCKS if lang == "lisp"]
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("superrep ")]
[PYTHON] = [body for lang, body in BLOCKS if lang == "python"]


def _strict(token):
    raise ValueError(f"{token} is not JSON")


def test_the_readme_has_its_examples():
    assert len(LISP) == 2 and len(COMMANDS) == 6


@pytest.mark.parametrize("source", LISP, ids=["line-pair", "finite-pair"])
def test_each_definition_block_parses_on_its_own(source):
    ws = parse(source)
    assert ws.pairs


@pytest.mark.parametrize("line", COMMANDS)
def test_each_quick_start_command_exits_0_with_strict_json(capsys, line):
    assert cli.main(shlex.split(line)[1:]) == 0
    json.loads(capsys.readouterr().out, parse_constant=_strict)


def test_the_python_quick_start_runs(capsys):
    exec(compile(PYTHON, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 3
