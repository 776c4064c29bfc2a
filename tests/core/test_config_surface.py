"""The option surface only shrinks, and every option has a user.

A ``PlatformConfig`` field is a promise to test the platform with more
than one value of it. A field nobody sets is a constant wearing a
knob's clothes: it belongs as an UPPER_CASE name beside the code that
reads it (DESIGN.md "Configuration"). The same rule holds one layer
down, for a keyword parameter of a function or constructor under
``src/repro`` that no call site passes.
"""

import ast
import dataclasses
import re
from pathlib import Path

from repro.core import PlatformConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
ROOTS = ("src", "tests", "benchmarks", "perfbench", "examples", "scripts")
DEFINITION = REPO_ROOT / "src" / "repro" / "core" / "platform.py"

MAX_FIELDS = 29  # ratchet: lower it when a field goes, never raise it
MAX_NEVER_PASSED = 74  # ratchet: the same, for never_passed_parameters()

# Deployment sizes and credentials stay configurable although no caller
# varies them today — siblings of the ``lcm_replicas`` that perfbench
# does vary.
DEPLOYMENT = {"api_replicas", "etcd_size", "mongo_size", "metrics_auth"}


def test_field_count_only_goes_down():
    assert len(dataclasses.fields(PlatformConfig)) <= MAX_FIELDS


def test_every_field_is_set_somewhere():
    sources = [path.read_text() for root in ROOTS
               for path in sorted((REPO_ROOT / root).rglob("*.py"))
               if path != DEFINITION]
    fields = dataclasses.fields(PlatformConfig)
    assert DEPLOYMENT <= {field.name for field in fields}
    unset = []
    for field in fields:
        if field.name in DEPLOYMENT:
            continue
        setter = re.compile(rf"\b{field.name}\s*=(?!=)"
                            rf"|[\"']{field.name}[\"']\s*:")
        if not any(setter.search(text) for text in sources):
            unset.append(field.name)
    assert not unset, (
        f"PlatformConfig fields no caller sets: {unset} — make each a "
        "module constant beside its reader, or add the caller that "
        "needs a second value")


def _bare_name(expr):
    if isinstance(expr, ast.Name):
        return expr.id
    return expr.attr if isinstance(expr, ast.Attribute) else None


def _calls(node, bases=()):
    """``(call, callee names)`` under ``node``. Calls are matched to
    definitions by bare name; ``super().__init__(...)`` inside a class
    is a call of each of its bases."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _calls(child, [_bare_name(b) for b in child.bases])
            continue
        if isinstance(child, ast.Call):
            name = _bare_name(child.func)
            yield child, (bases if name == "__init__" else [name])
        yield from _calls(child, bases)


def _defaulted(func, is_method):
    """``(name, positional index at a call site or None)`` for every
    parameter of ``func`` that has a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - is_method
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def never_passed_parameters():
    """Keyword parameters under ``src/repro`` that no call in the repo
    passes, by keyword or by position. Name-based and conservative: a
    call that splats ``**kwargs`` or ``*args`` counts as passing
    everything, and so does any same-named callee elsewhere."""
    passed = {}  # callee name -> [positional args seen, keywords seen]
    for root in ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for call, names in _calls(ast.parse(path.read_text())):
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                splat = any(kw.arg is None for kw in call.keywords)
                for name in names:
                    seen = passed.setdefault(name, [0, set()])
                    seen[0] = max(seen[0], 99 if starred or splat
                                  else len(call.args))
                    seen[1].update(kw.arg for kw in call.keywords)
    found = []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, path)
            elif isinstance(child, ast.FunctionDef):
                name = child.name
                if owner is not None and name == "__init__":
                    name = owner.name
                count, keywords = passed.get(name, (0, ()))
                for param, index in _defaulted(child, owner is not None):
                    if param not in keywords and not (
                            index is not None and count > index):
                        found.append(f"{path}:{name}({param}=)")
                visit(child, None, path)
            else:
                visit(child, owner, path)

    source = REPO_ROOT / "src" / "repro"
    for path in sorted(source.rglob("*.py")):
        visit(ast.parse(path.read_text()), None,
              path.relative_to(source).as_posix())
    return found


def test_never_passed_parameters_only_go_down():
    unpassed = never_passed_parameters()
    assert len(unpassed) <= MAX_NEVER_PASSED, (
        f"{len(unpassed)} keyword parameters no call site passes (the "
        f"ratchet is {MAX_NEVER_PASSED}): a new one is a constant beside "
        "its reader, or comes with the caller that needs a second value. "
        "All of them:\n" + "\n".join(unpassed))
