"""Every ``symwalk`` line of the README's CLI block runs and prints valid output."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from symwalk.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_block_commands() -> list[list[str]]:
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("symwalk ")]


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _assert_json_or_csv(out: str) -> None:
    if out.startswith("{"):
        try:
            json.loads(out, parse_constant=_refuse_constant)
        except json.JSONDecodeError:  # one JSON object per line (``table``)
            for line in out.splitlines():
                json.loads(line, parse_constant=_refuse_constant)
        return
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1 and len({len(row) for row in rows}) == 1


def test_the_cli_block_lists_commands():
    assert len(_cli_block_commands()) >= 10


@pytest.mark.parametrize("argv", _cli_block_commands(), ids=" ".join)
def test_readme_cli_example_runs(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    _assert_json_or_csv(out)
