"""Every function has a caller that is not a test, or is on the list.

``reach.txt`` lists the ``src/repro`` functions that no benchmark,
perfbench run, example or report script enters, with their line
counts; ``scripts/reach.py`` (``make reach``) writes it from a traced
run of all of them, too slow for tier 1. This test holds the file to
the tree: the total only goes down, and every listed function still
exists, so deleting one without regenerating the file fails here.
"""

import ast
import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
REACH = REPO_ROOT / "reach.txt"
SCRIPT = REPO_ROOT / "scripts" / "reach.py"

MAX_UNREACHED_LINES = 323  # ratchet: lower it when code goes, never raise it

ROW = re.compile(r"^\s*(\d+) (\S+?):(\S+)$")
TOTAL = re.compile(r"^total (\d+) unreached of \d+ function lines$")


def qualnames(path):
    """Dotted names (``Class.method``, ``outer.inner``) of every
    function defined in ``path``."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                if not isinstance(child, ast.ClassDef):
                    found.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def read_reach():
    rows, total = [], None
    for line in REACH.read_text().splitlines():
        if line.startswith("#"):
            continue
        if match := ROW.match(line):
            rows.append((int(match[1]), match[2], match[3]))
        elif match := TOTAL.match(line):
            total = int(match[1])
        else:
            raise AssertionError(f"unparsable reach.txt line: {line!r}")
    return rows, total


def test_unreached_lines_only_go_down():
    rows, total = read_reach()
    assert total == sum(lines for lines, _path, _name in rows)
    assert total <= MAX_UNREACHED_LINES, (
        f"{total} function lines no non-test entry point reaches (the "
        f"ratchet is {MAX_UNREACHED_LINES}): give new code a caller in "
        "benchmarks/, perfbench/, examples/ or scripts/, or delete it")


def test_every_listed_function_exists():
    rows, _total = read_reach()
    defined = {path: qualnames(PACKAGE / path)
               for path in {path for _lines, path, _name in rows}
               if (PACKAGE / path).is_file()}
    stale = [f"{path}:{name}" for _lines, path, name in rows
             if name not in defined.get(path, ())]
    assert not stale, (
        f"reach.txt lists functions that are gone: {stale} — "
        "regenerate it with `make reach`")


def test_a_failing_entry_point_is_named_with_its_output(tmp_path):
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    argv = [sys.executable, "-c",
            "import sys\nfor i in range(100): print(f'line {i}')\n"
            "sys.exit('boom')"]
    with pytest.raises(SystemExit) as excinfo:
        reach.run("broken-example", argv, tmp_path, dict(os.environ))
    message = str(excinfo.value)
    assert message.startswith("reach: broken-example exited 1\n")
    assert f"argv: {' '.join(argv)}" in message
    assert message.endswith("line 99\nboom")
    assert "line 60\n" not in message  # only the tail
