"""README's quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_quick_start_prints_what_its_comments_say():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(
        encoding="utf-8"), re.DOTALL | re.MULTILINE)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    assert stdout.getvalue() == "0.0\n0.0 steady True\n"
