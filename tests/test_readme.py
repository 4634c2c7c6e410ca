"""The README's library quick start runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_its_commented_outputs():
    block = re.search(r"## Library quick start\n+```python\n(.*?)\n```", README.read_text(), re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(prints) == 4 and all("# " in line for line in prints)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [line.rsplit("# ", 1)[1] for line in prints]
