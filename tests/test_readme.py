"""README.md's python snippets run as written.

The blocks run in document order in one namespace, as a reader pasting
them into one session would (a later block uses the ``graph`` and
``cluster`` an earlier one built), so a renamed API in the README fails
here instead of rotting.  The million-vertex CSR block is documentation
only: it takes minutes and gigabytes, and ``hermes-experiments scale``
runs that path.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

#: the one block that is shown, not run
DOCUMENTATION_ONLY = "powerlaw_edge_stream(n=1_000_000"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks()
    shown_only = [block for block in blocks if DOCUMENTATION_ONLY in block]
    assert len(shown_only) == 1
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            if DOCUMENTATION_ONLY not in block:
                exec(compile(block, str(README), "exec"), namespace)
    assert namespace["frontend"].snapshot()["tenants"]
