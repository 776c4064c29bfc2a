#!/usr/bin/env python
"""Lint: a metric child changes only through its own methods.

The scraper stores what changed: a metric child goes on its registry's
written list at its first ``inc``/``set``/``dec``/``observe`` after a
scrape, and a child that is not on the list is held at the value the
last scrape read (DESIGN.md "A scrape stores what changed"). A write
that reaches a child's state any other way, say
``child.value = 0.0`` or ``child.samples.clear()``, would change the
value without listing the child, and every later scrape would repeat
the stale one.

So outside ``src/repro/sim/metrics.py`` this lint rejects any write to
an attribute named ``value``, ``total``, ``samples`` or ``_deltas`` of
another object: an assignment (plain, augmented, annotated, or into an
item of it), a ``del``, or a call of an in-place list method on
``samples`` / ``_deltas``. An object writing its *own* attributes
(``self.value = ...``, as an event or a Raft entry does) is fine,
unless its class derives from a metric class. Scanned: ``src/``,
``benchmarks/``, ``examples/`` and ``scripts/``; tests may poke at
internals (``tests/sim/test_timeseries.py`` swaps a series' ring).

Exits non-zero listing violations; wired into ``scripts/check.sh``.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples", "scripts")
EXEMPT = {ROOT / "src" / "repro" / "sim" / "metrics.py"}

WATCHED = {"value", "total", "samples", "_deltas"}
CONTAINERS = {"samples", "_deltas"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear",
            "sort", "reverse", "__setitem__", "__delitem__"}
METRIC_CLASSES = {"_Family", "Counter", "Gauge", "Histogram",
                  "_CounterChild", "_GaugeChild", "_HistogramChild"}


def _watched(node):
    """The watched Attribute a write target reaches, or None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in WATCHED:
        return node
    return None


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


class _Checker(ast.NodeVisitor):
    def __init__(self, path):
        self.path = path
        self.metric_class = [False]
        self.violations = []

    def visit_ClassDef(self, node):
        bases = {base.id if isinstance(base, ast.Name) else
                 getattr(base, "attr", None) for base in node.bases}
        self.metric_class.append(bool(bases & METRIC_CLASSES))
        self.generic_visit(node)
        self.metric_class.pop()

    def _flag(self, attribute, how):
        if _is_self(attribute.value) and not self.metric_class[-1]:
            return
        self.violations.append(
            f"{self.path.relative_to(ROOT)}:{attribute.lineno}: {how} "
            f"{ast.unparse(attribute)}; a metric child changes only "
            f"through inc/set/dec/observe, or the scrape misses it")

    def _targets(self, targets, how):
        for target in targets:
            elements = target.elts if isinstance(
                target, (ast.Tuple, ast.List)) else [target]
            for element in elements:
                attribute = _watched(element)
                if attribute is not None:
                    self._flag(attribute, how)

    def visit_Assign(self, node):
        self._targets(node.targets, "assignment to")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._targets([node.target], "augmented assignment to")
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._targets([node.target], "assignment to")
        self.generic_visit(node)

    def visit_Delete(self, node):
        self._targets(node.targets, "del of")
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in CONTAINERS):
            self._flag(func.value, f"in-place {func.attr}() on")
        self.generic_visit(node)


def check_file(path):
    checker = _Checker(path)
    checker.visit(ast.parse(path.read_text(), filename=str(path)))
    return checker.violations


def main():
    violations = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path not in EXEMPT:
                violations.extend(check_file(path))
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} write(s) around a metric child's "
              f"methods", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
