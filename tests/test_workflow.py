"""The CI workflow's inline Python snippets compile.

The workflow's checks on the installed console script and on the benchmark
smoke run are ``python -c '...'`` one-liners inside shell steps; a syntax
error there would only show on a CI runner.
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
