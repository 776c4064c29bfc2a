#!/usr/bin/env python
"""Lint: event reasons must be static, registered CamelCase tokens.

Scans ``src/`` for ``*.emit_event(...)`` call sites and checks that the
``type`` and ``reason`` arguments are string literals (or conditional
expressions between string literals), that the type is ``Normal`` or
``Warning``, and that the reason appears in the ``REASONS`` vocabulary
literal in ``src/repro/core/events.py``. Free-form detail belongs in
``message``; a dynamic *reason* would fragment the event log the same
way a dynamic metric name fragments the series namespace:

    bad:   events.emit_event("Warning", f"Crash{pod}", ...)
    good:  events.emit_event("Warning", "ComponentCrashed", "Pod", pod, ...)

Also validates the ``TERMINAL_EVENT_FOR`` mapping literal in
``src/repro/core/states.py`` and every ``AlertRule(...)`` construction
(the rule name and its event reason feed the alert engine's dynamic
emit, which is exempted below) against the same vocabulary. Exits
non-zero listing violations; wired into ``scripts/check.sh`` (and thus
``make check``). Mirrors ``scripts/lint_metric_names.py``.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EVENTS = SRC / "repro" / "core" / "events.py"
STATES = SRC / "repro" / "core" / "states.py"
REASON_RE = re.compile(r"^[A-Z][A-Za-z0-9]*$")
TYPES = {"Normal", "Warning"}

# Files where *dynamic* type/reason arguments are by design (the
# recorder's own re-emit path; the alert engine, whose rule reasons are
# validated at add_rule time; the Guardian's terminal-status mapping,
# validated below). String literals in these files are still checked.
DYNAMIC_OK = {
    EVENTS,
    SRC / "repro" / "monitoring" / "alerts.py",
    SRC / "repro" / "core" / "guardian.py",
}


def load_reasons():
    """Extract the REASONS frozenset literal from events.py."""
    tree = ast.parse(EVENTS.read_text(), filename=str(EVENTS))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "REASONS" not in targets:
            continue
        call = node.value
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "frozenset" and call.args
                and isinstance(call.args[0], ast.Set)):
            return {
                el.value for el in call.args[0].elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            }
    raise SystemExit(f"could not find REASONS frozenset literal in {EVENTS}")


def literal_values(node):
    """The possible constant string values of an argument, or None if
    the argument is dynamic. Handles ``"A" if cond else "B"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        body = literal_values(node.body)
        orelse = literal_values(node.orelse)
        if body is not None and orelse is not None:
            return body + orelse
    return None


def check_file(path, reasons):
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit_event"):
            continue
        if len(node.args) < 2:
            continue  # keyword-only calls: the recorder rejects at runtime
        where = f"{path.relative_to(ROOT)}:{node.lineno}"
        type_values = literal_values(node.args[0])
        reason_values = literal_values(node.args[1])
        if type_values is None:
            if path not in DYNAMIC_OK:
                violations.append(
                    f"{where}: dynamic event type "
                    f"({ast.unparse(node.args[0])}); use \"Normal\" or "
                    f"\"Warning\" literally")
        else:
            for value in type_values:
                if value not in TYPES:
                    violations.append(
                        f"{where}: event type {value!r} is not Normal/Warning")
        if reason_values is None:
            if path not in DYNAMIC_OK:
                violations.append(
                    f"{where}: dynamic event reason "
                    f"({ast.unparse(node.args[1])}); reasons are a closed "
                    f"CamelCase vocabulary — put detail in the message")
            continue
        for value in reason_values:
            if not REASON_RE.match(value):
                violations.append(
                    f"{where}: event reason {value!r} is not CamelCase")
            elif value not in reasons:
                violations.append(
                    f"{where}: event reason {value!r} is not registered in "
                    f"repro.core.events.REASONS")
    return violations


def check_terminal_mapping(reasons):
    """The Guardian's dynamic emit draws from TERMINAL_EVENT_FOR;
    validate that mapping's literals so the exemption stays sound."""
    tree = ast.parse(STATES.read_text(), filename=str(STATES))
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "TERMINAL_EVENT_FOR" not in targets or not isinstance(node.value, ast.Dict):
            continue
        for value in node.value.values:
            where = f"{STATES.relative_to(ROOT)}:{value.lineno}"
            pair = (
                [el.value for el in value.elts
                 if isinstance(el, ast.Constant)]
                if isinstance(value, ast.Tuple) else []
            )
            if len(pair) != 2:
                violations.append(
                    f"{where}: TERMINAL_EVENT_FOR values must be "
                    f"(type, reason) string-literal tuples")
                continue
            event_type, reason = pair
            if event_type not in TYPES:
                violations.append(
                    f"{where}: event type {event_type!r} is not Normal/Warning")
            if reason not in reasons:
                violations.append(
                    f"{where}: event reason {reason!r} is not registered in "
                    f"repro.core.events.REASONS")
    return violations


def loop_string_bindings(tree):
    """Names bound by ``for (a, b, ...) in ((literals), ...)`` loops,
    mapped to the string constants they can take — the idiom the
    default rule pack uses to stamp out the per-component Down rules."""
    bindings = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.For) and isinstance(node.target, ast.Tuple)
                and isinstance(node.iter, ast.Tuple)):
            continue
        targets = node.target.elts
        for row in node.iter.elts:
            if not (isinstance(row, ast.Tuple)
                    and len(row.elts) == len(targets)):
                continue
            for target, value in zip(targets, row.elts):
                if (isinstance(target, ast.Name)
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, str)):
                    bindings.setdefault(target.id, set()).add(value.value)
    return bindings


def check_alert_rules(path, reasons):
    """Alert-rule names double as event reasons through the engine's
    dynamic ``emit_event`` (exempted above); validate the literals at
    every ``AlertRule(...)`` construction so the exemption stays sound."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bindings = loop_string_bindings(tree)
    violations = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "AlertRule"):
            continue
        where = f"{path.relative_to(ROOT)}:{node.lineno}"
        names = literal_values(node.args[0]) if node.args else None
        if names is None and node.args and isinstance(node.args[0], ast.Name):
            bound = bindings.get(node.args[0].id)
            if bound:
                names = sorted(bound)
        if names is None:
            violations.append(
                f"{where}: AlertRule name must be a string literal "
                f"(it becomes the alert's event reason)")
            names = []
        for value in names:
            if not REASON_RE.match(value):
                violations.append(
                    f"{where}: alert rule name {value!r} is not CamelCase")
            if value not in reasons:
                violations.append(
                    f"{where}: alert event reason {value!r} is not "
                    f"registered in repro.core.events.REASONS")
    return violations


def main():
    reasons = load_reasons()
    violations = [
        f"{EVENTS.relative_to(ROOT)}: REASONS entry {reason!r} is not CamelCase"
        for reason in sorted(reasons) if not REASON_RE.match(reason)
    ]
    violations.extend(check_terminal_mapping(reasons))
    for path in sorted(SRC.rglob("*.py")):
        violations.extend(check_file(path, reasons))
        violations.extend(check_alert_rules(path, reasons))
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} event-reason violation(s); reasons are a "
              f"closed CamelCase vocabulary", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
