"""The option surface only shrinks, and every option has a user.

A ``PlatformConfig`` field is a promise to test the platform with more
than one value of it. A field nothing outside the tests sets is a
constant wearing a knob's clothes: it belongs as an UPPER_CASE name
beside the code that reads it, and a test that wants another value
monkeypatches that (DESIGN.md "Configuration"). The same rule holds one layer
down, for a keyword parameter of a function or constructor under
``src/repro`` that no call site passes. And a component is observed one
way: the metrics registry, tracer and event recorder it records into
are never optional (DESIGN.md "A component is observed one way").
"""

import ast
import dataclasses
import re
import sys
from pathlib import Path

from repro.core import PlatformConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
ROOTS = ("src", "tests", "benchmarks", "perfbench", "examples", "scripts")
# A test is not a caller: only these may set a field.
SETTER_ROOTS = tuple(root for root in ROOTS if root != "tests")
DEFINITION = REPO_ROOT / "src" / "repro" / "core" / "platform.py"

MAX_FIELDS = 18  # ratchet: lower it when a field goes, never raise it
MAX_NEVER_PASSED = 0  # ratchet: the same, for never_passed_parameters()
# ...and for never_passed_outside_tests(): a parameter only a test
# passes is a constant the test monkeypatches, or an attribute it sets.
MAX_NEVER_PASSED_OUTSIDE_TESTS = 0
# ...and for optional_observers(): an observer parameter with a default,
# or a None test of one, is a second, unobserved mode of its component.
MAX_OPTIONAL_OBSERVERS = 0

# The handles a component records into. ``history`` is not among them:
# an EtcdClient without one is the platform with ``history_recording``
# off, a mode the audit's config field chooses, not an off-switch of a
# signal every run emits.
OBSERVERS = {"metrics", "tracer", "events", "registry", "health"}
# A metric child a component binds once (``self._m_adds``, ``_g_firing``,
# ``_c_transitions``): testing one against None is testing the registry.
METRIC_CHILD = re.compile(r"_[mgc]_\w+$")

# Deployment sizes and credentials stay configurable although no caller
# varies them today — siblings of the ``lcm_replicas`` that perfbench
# does vary.
DEPLOYMENT = {"api_replicas", "etcd_size", "mongo_size", "metrics_auth"}


def test_field_count_only_goes_down():
    assert len(dataclasses.fields(PlatformConfig)) <= MAX_FIELDS


def test_every_field_is_set_somewhere():
    sources = [path.read_text() for root in SETTER_ROOTS
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
        f"PlatformConfig fields no caller outside tests/ sets: {unset} — "
        "make each a module constant beside its reader, or add the caller "
        "that needs a second value")


def _bare_name(expr):
    if isinstance(expr, ast.Name):
        return expr.id
    return expr.attr if isinstance(expr, ast.Attribute) else None


def _module_name(path):
    """``src/repro/core/faults.py`` -> ``repro.core.faults``; a
    package's ``__init__.py`` is the package."""
    parts = list(path.relative_to(REPO_ROOT).with_suffix("").parts)
    parts = parts[1:] if parts[0] == "src" else parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class _Scope:
    """What a module's names refer to: ``from m import f`` makes ``f``
    the ``f`` of ``m``, ``import m`` or ``from p import m`` make ``m.f``
    the ``f`` of ``m``, and a name the module defines itself is its
    own."""

    def __init__(self, tree, module, is_package):
        self.module = module
        self.names = {}  # local name -> (module, name)
        self.modules = {}  # local name -> module
        package = module if is_package else module.rpartition(".")[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        top = alias.name.partition(".")[0]
                        self.modules[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = package
                for _ in range(node.level - 1):
                    base = base.rpartition(".")[0]
                source = ".".join(p for p in (base if node.level else "",
                                              node.module or "") if p)
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = (source, alias.name)
                    self.modules[local] = f"{source}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.names.setdefault(node.name, (module, node.name))

    def callee(self, expr):
        """``(module, name)`` of what ``expr`` calls; the module is None
        where no import says which (a method, a parameter), and then
        the call counts for every same-named definition."""
        if isinstance(expr, ast.Name):
            return self.names.get(expr.id, (None, expr.id))
        if isinstance(expr, ast.Attribute):
            owner = expr.value
            if isinstance(owner, ast.Name) and owner.id in self.modules:
                return self.modules[owner.id], expr.attr
            return None, expr.attr
        return None, None


def _related(caller_module, definition_module):
    """A call keyed by module ``m`` reaches definitions in ``m``, in its
    submodules (a package re-exports them) and in a module ``m`` is an
    attribute of (``Class.method``)."""
    if caller_module is None:
        return True
    a, b = sorted((caller_module, definition_module), key=len)
    return b == a or b.startswith(a + ".")


def _calls(node, scope, bases=(), owner=None):
    """``(call, callees)`` under ``node``, each callee a ``(module,
    name)`` of :meth:`_Scope.callee`. Inside a class,
    ``super().__init__(...)`` is a call of each of its bases and
    ``cls(...)`` a call of the class; pytest-benchmark's
    ``benchmark.pedantic(f, kwargs={...})`` is a call of ``f`` with the
    dict's keys."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _calls(child, scope,
                              [scope.callee(b) for b in child.bases],
                              (scope.module, child.name))
            continue
        if isinstance(child, ast.Call):
            callee = scope.callee(child.func)
            if callee[1] == "__init__":
                yield child, bases
            elif callee == (None, "cls") and owner is not None:
                yield child, [owner]
            else:
                yield child, [callee]
            kwargs = [kw.value for kw in child.keywords if kw.arg == "kwargs"]
            if (callee[1] == "pedantic" and child.args and kwargs
                    and isinstance(kwargs[0], ast.Dict)):
                yield (ast.Call(func=child.args[0], args=[], keywords=[
                    ast.keyword(arg=key.value) for key in kwargs[0].keys
                    if isinstance(key, ast.Constant)]),
                    [scope.callee(child.args[0])])
        yield from _calls(child, scope, bases, owner)


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


def _fields(cls):
    """``(name, positional index)`` for every defaulted field of a
    dataclass that its generated ``__init__`` takes."""
    index = 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        if isinstance(value, ast.Call) and any(
                kw.arg == "init" and getattr(kw.value, "value", True) is False
                for kw in value.keywords):
            continue
        if value is not None:
            yield node.target.id, index
        index += 1


def _is_dataclass(cls):
    return any(_bare_name(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in cls.decorator_list)


def never_passed_parameters():
    """Keyword parameters under ``src/repro`` that no call in the repo
    passes, by keyword or by position. A call reaches a definition
    when their names match and, where the caller's imports say which
    module it calls, the modules do too (``_related``); a call that
    splats ``**kwargs`` or ``*args`` counts as passing everything.
    A dataclass's defaulted fields count as its constructor's
    parameters (``PlatformConfig``'s have a census of their own)."""
    return _never_passed(ROOTS)


def never_passed_outside_tests():
    """The same census with ``tests/`` not counted as a caller."""
    return _never_passed(SETTER_ROOTS)


def _never_passed(roots):
    passed = {}  # callee name -> {caller module: [positional args, keywords]}
    for root in roots:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text())
            scope = _Scope(tree, _module_name(path), path.name == "__init__.py")
            for call, callees in _calls(tree, scope):
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                splat = any(kw.arg is None for kw in call.keywords)
                for module, name in callees:
                    seen = passed.setdefault(name, {}).setdefault(
                        module, [0, set()])
                    seen[0] = max(seen[0], 99 if starred or splat
                                  else len(call.args))
                    seen[1].update(kw.arg for kw in call.keywords)
    found = []

    def check(name, module, parameters, where):
        reaching = [seen for caller, seen in passed.get(name, {}).items()
                    if _related(caller, module)]
        count = max((seen[0] for seen in reaching), default=0)
        keywords = set().union(*(seen[1] for seen in reaching))
        for param, index in parameters:
            if param not in keywords and not (
                    index is not None and count > index):
                found.append(f"{where}:{name}({param}=)")

    def visit(node, owner, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child) and child.name != "PlatformConfig":
                    check(child.name, module, _fields(child), path)
                visit(child, child, path, module)
            elif isinstance(child, ast.FunctionDef):
                name = child.name
                if owner is not None and name == "__init__":
                    name = owner.name
                check(name, module, _defaulted(child, owner is not None), path)
                visit(child, None, path, module)
            else:
                visit(child, owner, path, module)

    source = REPO_ROOT / "src" / "repro"
    for path in sorted(source.rglob("*.py")):
        visit(ast.parse(path.read_text()), None,
              path.relative_to(source).as_posix(), _module_name(path))
    return found


def test_never_passed_parameters_only_go_down():
    unpassed = never_passed_parameters()
    assert len(unpassed) <= MAX_NEVER_PASSED, (
        f"{len(unpassed)} keyword parameters no call site passes (the "
        f"ratchet is {MAX_NEVER_PASSED}): a new one is a constant beside "
        "its reader, or comes with the caller that needs a second value. "
        "All of them:\n" + "\n".join(unpassed))


def test_parameters_only_tests_pass_only_go_down():
    unpassed = never_passed_outside_tests()
    assert len(unpassed) <= MAX_NEVER_PASSED_OUTSIDE_TESTS, (
        f"{len(unpassed)} keyword parameters no call outside tests/ passes "
        f"(the ratchet is {MAX_NEVER_PASSED_OUTSIDE_TESTS}). All of them:\n"
        + "\n".join(unpassed))


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_a_same_named_function_elsewhere_passes_nothing(tmp_path, monkeypatch):
    # perfbench's own two-argument check_history once hid that no call
    # passed the library's max_configs: a call reaches a definition
    # only through the module its caller imported it from.
    _tree(tmp_path, {
        "src/repro/audit/checker.py":
            "def check_history(history, max_configs=100):\n    return history\n",
        "src/repro/audit/report.py":
            "from .checker import check_history\n\ncheck_history([])\n",
        "perfbench/measure.py":
            "def check_history(doc, problems):\n    return problems\n\n\n"
            "check_history({}, [])\n",
    })
    monkeypatch.setattr(sys.modules[__name__], "REPO_ROOT", tmp_path)
    assert never_passed_parameters() == [
        "audit/checker.py:check_history(max_configs=)"]
    # Called through its module, the keyword does reach it.
    _tree(tmp_path, {"scripts/audit.py":
                     "from repro.audit import checker\n\n"
                     "checker.check_history([], max_configs=5)\n"})
    assert never_passed_parameters() == []


def _observer(expr):
    name = _bare_name(expr)
    return name is not None and (name in OBSERVERS
                                 or METRIC_CHILD.match(name) is not None)


def optional_observers():
    """Every parameter under ``src/repro`` named for an observer that has
    a default, and every ``is None`` / ``is not None`` test of an
    observer or a bound metric child."""
    found = []
    source = REPO_ROOT / "src" / "repro"
    for path in sorted(source.rglob("*.py")):
        where = path.relative_to(source).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                found += [f"{where}:{node.lineno}:{node.name}({name}=)"
                          for name, _index in _defaulted(node, False)
                          if name in OBSERVERS]
            elif isinstance(node, ast.Compare) and all(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Constant) and o.value is None
                       for o in operands):
                    found += [f"{where}:{node.lineno}:{ast.unparse(node)}"
                              for o in operands if _observer(o)]
    return found


def test_no_component_has_an_unobserved_mode():
    optional = optional_observers()
    assert len(optional) <= MAX_OPTIONAL_OBSERVERS, (
        f"{len(optional)} optional observers (the ratchet is "
        f"{MAX_OPTIONAL_OBSERVERS}): take the metrics registry, tracer or "
        "event recorder as a required parameter and record "
        "unconditionally. All of them:\n" + "\n".join(optional))


def test_an_optional_observer_is_found(tmp_path, monkeypatch):
    _tree(tmp_path, {"src/repro/sim/queue.py":
                     "class Queue:\n"
                     "    def __init__(self, kernel, metrics=None, history=None):\n"
                     "        self._m_adds = None\n"
                     "        if metrics is not None:\n"
                     "            self._m_adds = metrics.counter('adds')\n"
                     "        self.history = history\n\n"
                     "    def add(self):\n"
                     "        if self._m_adds is not None and self.history:\n"
                     "            self._m_adds.inc()\n"})
    monkeypatch.setattr(sys.modules[__name__], "REPO_ROOT", tmp_path)
    assert optional_observers() == [
        "sim/queue.py:2:__init__(metrics=)",
        "sim/queue.py:4:metrics is not None",
        "sim/queue.py:9:self._m_adds is not None"]
