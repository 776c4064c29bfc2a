"""A fixed-interval loop is written once, in ``repro.sim.periodic``.

Walks ``src/repro`` outside ``repro/sim`` and fails on a component
that grows its own polling skeleton again: a class that defines
``start`` (or inherits it from ``Polling``) and also owns a ``while``
loop whose body begins or ends in
``yield <kernel>.sleep(<interval>)``, where the interval is a
``self.…`` attribute or a module constant (a computed delay — a
backoff, a deadline remainder, a service time — is not polling).
Such a component holds a :class:`repro.sim.Periodic` instead and keeps
only its ``*_once()`` body (DESIGN.md "Lifecycle").
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# Waits and protocol timers, not polling: (file, class, function) -> why
# it stays. (``RaftNode``'s election and replication loops and
# ``Guardian._await_cluster`` sleep a computed remainder and never match.)
ALLOWED = {
    ("raftkv/cluster.py", "EtcdCluster", "wait_for_leader"):
        "a caller's deadline wait, not a component's loop",
    ("cluster/kubelet.py", "Kubelet", "_provision_volumes"):
        "one pod worker waiting for its claim to bind, then moving on",
}


def _bare_name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_interval(node):
    """``self.x``, ``self.config.x`` … or an UPPER_CASE constant."""
    if isinstance(node, ast.Name):
        return node.id.isupper()
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _is_interval_sleep(stmt):
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield)):
        return False
    call = stmt.value.value
    return (isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "sleep"
            and len(call.args) == 1
            and _is_interval(call.args[0]))


def _polls(loop):
    """Work-then-sleep ends in the sleep, sleep-then-work begins with it."""
    return _is_interval_sleep(loop.body[-1]) or _is_interval_sleep(loop.body[0])


def handrolled_loops(root=SRC):
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.startswith("sim/"):
            continue
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [node for node in cls.body
                       if isinstance(node, ast.FunctionDef)]
            if not (any(method.name == "start" for method in methods)
                    or any(_bare_name(base) == "Polling"
                           for base in cls.bases)):
                continue
            for method in methods:
                for node in ast.walk(method):
                    if isinstance(node, ast.While) and _polls(node):
                        found.append((relative, cls.name, method.name))
    return found


def test_no_component_hand_rolls_a_polling_loop():
    offenders = [loop for loop in handrolled_loops() if loop not in ALLOWED]
    assert not offenders, (
        f"hand-rolled polling loops: {offenders} — hold a "
        "repro.sim.Periodic and keep only the *_once() body")


def test_allow_list_has_no_dead_entries():
    assert set(ALLOWED) <= set(handrolled_loops())
