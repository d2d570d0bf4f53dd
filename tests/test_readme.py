"""README's library examples and CLI lines run as written; the library
examples print what the text says, and its flag lists are the parser's."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from catscatter.cli import _build_parser, run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # in order, sharing names as a reader's session would
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # "print(res.A)  # about -0.057"
    assert float(printed[0]) == pytest.approx(-0.057, abs=5e-4)


def test_readme_cli_lines_run(tmp_path):
    block = re.search(r"^## CLI\n\n```bash\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE).group(1)
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("catscatter ")]
    assert len(lines) >= 5
    for i, argv in enumerate(lines):
        if "--out" in argv:  # drop the README's file name
            at = argv.index("--out")
            del argv[at:at + 2]
        out = tmp_path / f"{i}.out"
        assert run([*argv, "--out", str(out)]) == 0, argv
        assert out.read_text(encoding="utf-8")


def test_readme_flag_lists_are_the_parsers():
    listed = {sub: re.findall(r"`(--[a-z0-9-]+)`", flags) for sub, flags in re.findall(
        r"^- `(\w+)`: (.*)$", README.read_text(encoding="utf-8"), flags=re.MULTILINE)}
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(listed) == set(subparsers.choices)
    for sub, parser in subparsers.choices.items():
        flags = [s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")]
        assert listed[sub] == flags, sub
