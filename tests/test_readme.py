"""The README's library example runs as written."""
import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example_runs():
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "94 handovers, zero invisibility: True\n"
