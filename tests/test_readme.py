"""The README's library quick start prints what its comments say, and its command lines parse."""

import contextlib
import io
import itertools
import re
from pathlib import Path

from clutterkit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_its_commented_outputs():
    block = re.search(r"## Library quick start\n+```python\n(.*?)\n```", README.read_text(), re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(prints) == 4 and all("# " in line for line in prints)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [line.rsplit("# ", 1)[1] for line in prints]


def test_readme_command_lines_parse():
    # each line of the "Command line" block, with every `a|b` word expanded and `[ ]` dropped
    block = re.search(r"## Command line\n.*?```\n(.*?)\n```", README.read_text(), re.S).group(1)
    argvs = [
        list(argv)
        for line in block.replace("[", "").replace("]", "").splitlines()
        for argv in itertools.product(*(word.split("|") for word in line.split()[1:]))
    ]
    assert len(argvs) == 30
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)
