"""The CI workflow's inline Python snippets compile.

The workflow's check on the benchmark smoke run is a ``python -c '...'``
one-liner inside a shell step; a syntax error there would only show on a
CI runner.  The package's own checks run in the tests, not in the workflow.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml"
# bash passes a single-quoted argument through verbatim
SNIPPET = re.compile(r"\bpython3? -c '([^']*)'")


def test_inline_python_compiles():
    snippets = SNIPPET.findall(WORKFLOW.read_text())
    assert snippets, f"no python -c snippet found in {WORKFLOW}"
    for i, source in enumerate(snippets):
        compile(source, f"{WORKFLOW.name} snippet {i}", "exec")
