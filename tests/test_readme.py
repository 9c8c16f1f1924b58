"""The README's Python examples run against the package and print what their
comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _printed(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    return out.getvalue().splitlines()


def test_readme_python_blocks_print_what_their_comments_state():
    quick_start, pipeline = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert _printed(quick_start) == ["2", "45", "True"]
    (report,) = _printed(pipeline)
    assert "k4_free=True, has_triangle=True" in report
