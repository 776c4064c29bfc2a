"""One fault vocabulary: every fault is fired through ``fire``.

``ComponentCrasher`` and ``GrayFailureInjector`` keep a firing method
each (``crash_api``, ``slow_endpoint``, ...) only as perfbench's
surface, each a one-line ``fire``. This test fails if any module under
``src/``, ``benchmarks/``, ``examples/`` or ``scripts/`` other than
``repro/core/faults.py`` calls one of them, so a new caller states its
fault as a ``Fault`` and every effect stays written once. ``perfbench/``
is exempt until it moves onto ``fire`` itself; the tests of the methods
are not scanned.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FAULTS = REPO_ROOT / "src" / "repro" / "core" / "faults.py"
SCANNED = ("src", "benchmarks", "examples", "scripts")
CLASSES = ("ComponentCrasher", "GrayFailureInjector")


def firing_methods():
    """Methods of the two classes whose body calls ``fire``."""
    found = set()
    for node in ast.parse(FAULTS.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name in CLASSES:
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and any(
                        isinstance(call, ast.Call)
                        and getattr(call.func, "attr", getattr(call.func, "id", None))
                        in ("fire", "_fire")
                        for call in ast.walk(method)):
                    found.add(method.name)
    return found - {"_fire"}


def callers(methods):
    for root in SCANNED:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path == FAULTS:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in methods):
                    yield f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.func.attr}"


def test_the_firing_methods_are_known():
    assert firing_methods() == {
        "crash_api", "crash_lcm", "crash_guardian", "crash_helper",
        "crash_learner", "crash_learner_container", "slow_endpoint",
        "disk_stall_etcd"}


def test_nothing_outside_the_vocabulary_calls_a_firing_method():
    found = list(callers(firing_methods()))
    assert not found, (
        "fire a Fault instead (repro.core.faults):\n" + "\n".join(found))
