#!/usr/bin/env python
"""Which ``src/repro`` functions does no non-test entry point reach?

Runs every entry point that is not a test against a copy of the working
tree, with a ``sitecustomize`` on ``PYTHONPATH`` that records every
code object entered (``sys.setprofile``), so the subprocesses perfbench
spawns count too:

- ``benchmarks/`` under pytest with ``--benchmark-disable`` (the timed
  call of pytest-benchmark switches the profiler off);
- ``perfbench/run.py --quick``;
- every ``examples/*.py``;
- the report scripts (``scripts/audit_report.py``, ``trace_report.py``,
  ``dashboard.py``) and ``python -m repro.bench.report``, which renders
  ``REPORT.md``.

Then it writes ``reach.txt``: every function defined under
``src/repro`` that none of them entered, with its line count (a
function nested in an unreached one is counted with it), and the total.
``tests/core/test_reach.py`` holds that total as a ratchet. About seven
minutes on a 2-CPU Xeon; ``make reach``.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "repro"
REPORT_SCRIPTS = ("audit_report.py", "trace_report.py", "dashboard.py")
FAILURE_TAIL = 40  # lines of a failing entry point's output to show

SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    package = {package!r}
    entered = {{f"{{os.path.realpath(code.co_filename)}}:{{code.co_firstlineno}}"
               for code in _seen}}
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "w") as out:
        out.write("\\n".join(line for line in entered
                             if line.startswith(package)))


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def functions(source_root):
    """``(relative path, qualname, first line, lines, enclosing)`` for
    every function under ``source_root``. The first line is the first
    decorator's, as in ``co_firstlineno``; ``enclosing`` is the index of
    the function this one is nested in, or None."""
    found = []

    def visit(node, path, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", enclosing)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found.append((path, prefix + child.name, first,
                              child.end_lineno - first + 1, enclosing))
                visit(child, path, f"{prefix}{child.name}.", len(found) - 1)
            else:
                visit(child, path, prefix, enclosing)

    for path in sorted(source_root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(source_root)
              .as_posix(), "", None)
    return found


def entry_points():
    """``(label, argv)`` for every non-test entry point."""
    python = sys.executable
    yield "benchmarks", [python, "-m", "pytest", "benchmarks", "-q",
                         "--benchmark-disable", "-p", "no:cacheprovider"]
    yield "perfbench", [python, "perfbench/run.py", "--quick"]
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield example.name, [python, f"examples/{example.name}"]
    for script in REPORT_SCRIPTS:
        yield script, [python, f"scripts/{script}"]
    yield "repro.bench.report", [python, "-m", "repro.bench.report"]


def run(label, argv, cwd, env):
    """Run one entry point; if it fails, exit naming it, its argv and
    the tail of what it printed."""
    print(f"reach: {label}", flush=True)
    done = subprocess.run(argv, cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode:
        tail = "\n".join(done.stdout.splitlines()[-FAILURE_TAIL:])
        raise SystemExit(
            f"reach: {label} exited {done.returncode}\n"
            f"  argv: {' '.join(argv)}\n"
            f"--- last {FAILURE_TAIL} lines of its output ---\n{tail}")


def trace(copy, out):
    """Run every entry point in ``copy``; the set of ``path:line`` first
    lines of the ``src/repro`` code objects they entered."""
    site = out / "site"
    site.mkdir()
    package = os.path.realpath(copy / PACKAGE) + os.sep
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(package=package, out=str(out)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(site), str(copy / "src")]))
    for label, argv in entry_points():
        run(label, argv, copy, env)
    entered = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            entered.add(line[len(package):])
    return entered


def render(found, entered):
    unreached = []
    reached = []
    for path, qualname, first, lines, enclosing in found:
        outer_unreached = (enclosing is not None
                           and not reached[enclosing])
        reached.append(f"{path}:{first}" in entered)
        if not reached[-1] and not outer_unreached:
            unreached.append((lines, f"{path}:{qualname}"))
    total_lines = sum(lines for *_, lines, enclosing in found
                      if enclosing is None)
    unreached.sort(key=lambda row: (-row[0], row[1]))
    total = sum(lines for lines, _ in unreached)
    header = [
        "# src/repro functions that no non-test entry point enters, and",
        "# their lines. Written by scripts/reach.py (`make reach`); held by",
        "# tests/core/test_reach.py.",
    ]
    rows = [f"{lines:5d} {name}" for lines, name in unreached]
    footer = [f"total {total} unreached of {total_lines} function lines"]
    return "\n".join(header + rows + footer) + "\n"


def main():
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        copy = scratch / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        out = scratch / "entered"
        out.mkdir()
        text = render(functions(copy / PACKAGE), trace(copy, out))
    (ROOT / "reach.txt").write_text(text)
    print(text.splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
