"""Every ``run:`` block of the CI workflow is a script that bash can parse.

A check that lives only in ``.github/workflows/tests.yml`` runs only in CI,
so a quote that ends a step's inline program early goes unseen wherever
only these tests run.  The test extras have no YAML parser, so the blocks
are cut out by indentation: a ``run: |`` block is every following line
indented deeper than its key, less the indentation of its first line.
"""
import re
import shutil
import subprocess
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

_KEY = re.compile(r"^(?P<indent>\s*(?:- )?)(?P<key>name|run):\s*(?P<value>.*)$")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def run_blocks(text: str) -> list:
    """(step name, script) of each ``run:`` of the workflow ``text``, the
    name that of the last ``name:`` before it."""
    lines, blocks, name, i = text.splitlines(), [], None, 0
    while i < len(lines):
        match = _KEY.match(lines[i])
        i += 1
        if match is None:
            continue
        if match["key"] == "name":
            name = match["value"]
            continue
        value, column = match["value"], len(match["indent"])
        if value not in ("|", "|-", "|+"):
            assert not value.startswith((">", "|")), f"line {i}: unsupported block {value}"
            blocks.append((name, value + "\n"))
            continue
        body = []
        while i < len(lines) and (not lines[i].strip() or _indent(lines[i]) > column):
            body.append(lines[i])
            i += 1
        while body and not body[-1].strip():
            body.pop()
        depth = _indent(body[0]) if body else 0
        blocks.append((name, "".join(line[depth:] + "\n" for line in body)))
    return blocks


BLOCKS = run_blocks(WORKFLOW.read_text())


def test_the_workflow_has_run_blocks():
    # the cutter found the one-line steps and the multi-line programs
    assert len(BLOCKS) >= 8
    assert any(script.count("\n") > 50 for _, script in BLOCKS)


@pytest.mark.parametrize("name, script", BLOCKS, ids=[name for name, _ in BLOCKS])
def test_run_block_parses(name, script):
    if shutil.which("bash") is None:
        pytest.skip("bash is not installed, so the workflow's scripts cannot be parsed")
    parsed = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True,
                            timeout=60)
    assert parsed.returncode == 0, f"step {name!r}: {parsed.stderr}"
