"""Linearizability checker for the raftkv register/CAS/delete model.

Given a recorded client history (see :mod:`repro.audit.history`), the
checker decides whether the operations on each key can be arranged in
a single total order that (a) respects real-time precedence — if A's
response was recorded before B's invocation, A comes first — and
(b) steps a sequential register model (``put`` / ``get`` / ``cas`` /
``delete`` over one value-or-absent cell) through exactly the observed
results. This is the Wing & Gong search with the usual refinements:

* **per-key partitioning** — keys are independent registers, so each
  is checked on its own (exponentially smaller search spaces);
* **memoized configurations** — the search explores ``(done-set,
  state)`` pairs, with the done-set packed into an int bitmask, and
  never revisits one (Jepsen's "just-in-time linearization" cache);
* **maybe-applied ops** — ``info`` outcomes (timeouts, killed
  clients) have no response edge, may linearize anywhere after their
  invocation, *or never* — a complete linearization only has to place
  every ``ok`` op; ``fail`` ops and indeterminate reads are dropped
  before the search (a lost read constrains nothing).

Precedence comes from recorder *sequence numbers*, not timestamps:
the simulation is single-threaded, so the append order of the history
log is the exact real-time order and never collides.

On failure the checker reports a witness: a minimal sub-history (greedy
delta-debugging — any recorded op whose removal keeps the history
failing is dropped) plus the longest linearizable prefix found and a
per-op explanation of why nothing can linearize next.
``render_witness`` turns that into the counterexample text printed by
``scripts/audit_report.py``.
"""

__all__ = [
    "CheckBudgetExceeded", "CheckResult", "KeyOutcome",
    "check_history", "check_operations", "render_witness",
]

_INF = float("inf")

DEFAULT_MAX_CONFIGS = 200_000

# Witnesses above this size skip the delta-debugging pass (quadratic
# in history length); the failing key's history is reported whole.
# A test sets MINIMIZE to False to see the unshrunk witness.
_MINIMIZE_CAP = 200
MINIMIZE = True


class CheckBudgetExceeded(RuntimeError):
    """The search visited more configurations than the budget allows."""


class KeyOutcome:
    """Verdict for one key's operations."""

    __slots__ = ("ok", "final_states", "witness", "ops_considered")

    def __init__(self, ok, final_states=None, witness=None,
                 ops_considered=0):
        self.ok = ok
        self.final_states = final_states
        self.witness = witness
        self.ops_considered = ops_considered


class CheckResult:
    """Verdict for a whole history (all keys)."""

    __slots__ = ("ok", "ops_checked", "keys_checked", "violations")

    def __init__(self):
        self.ok = True
        self.ops_checked = 0
        self.keys_checked = 0
        self.violations = []


# ----------------------------------------------------------------------
# Sequential model: one register holding a string value, or absent
# ----------------------------------------------------------------------

def _droppable(record):
    """Ops that constrain nothing: definite failures, and reads whose
    outcome was never observed (an unapplied read has no effect; an
    applied-but-unobserved one permits every state)."""
    if record.status == "fail":
        return True
    return record.status in ("info", "invoke") and record.op == "get"


def _transitions(state, record):
    """Possible next states when linearizing ``record`` at ``state``.

    Empty tuple = infeasible here. ``ok`` ops must reproduce the
    observed result; maybe-applied mutations transition freely (their
    output was never observed, so only the state change constrains).
    """
    op = record.op
    if record.status != "ok":  # maybe-applied mutation
        if op == "put":
            return (record.args,)
        if op == "delete":
            return (None,)
        if op == "cas":
            expected, new = record.args
            return (new,) if state == expected else (state,)
        return ()
    result = record.result
    if op == "put":
        if isinstance(result, dict) and not result.get("ok", True):
            return ()  # rejected (e.g. unknown lease): no state change
        return (record.args,)
    if op == "get":
        return (state,) if state == result else ()
    if op == "delete":
        deleted = bool(result.get("deleted")) if isinstance(result, dict) \
            else bool(result)
        return (None,) if deleted == (state is not None) else ()
    if op == "cas":
        expected, new = record.args
        if isinstance(result, dict) and not result.get("ok", True):
            # observed failure must match the model state
            if state != expected and result.get("actual", state) == state:
                return (state,)
            return ()
        return (new,) if state == expected else ()
    raise ValueError(f"unmodeled operation in history: {record!r}")


def _explain(state, record):
    """Why ``record`` cannot linearize at ``state`` (for the witness)."""
    op, result = record.op, record.result
    if op == "get":
        return (f"get observed {result!r} but the register holds "
                f"{state!r} in every reachable linearization")
    if op == "delete":
        return (f"delete observed deleted={result.get('deleted')!r} "
                f"but the register {'holds ' + repr(state) if state is not None else 'is empty'}")
    if op == "cas":
        expected, new = record.args
        if isinstance(result, dict) and not result.get("ok", True):
            return (f"cas(expected={expected!r}) observed failure with "
                    f"actual={result.get('actual')!r} but the register "
                    f"holds {state!r}")
        return (f"cas(expected={expected!r} -> {new!r}) succeeded but "
                f"the register holds {state!r}")
    return f"{op} result {result!r} is impossible from state {state!r}"


def _freeze(value):
    """Hashable canonical form of a register value, for the visited
    set and final-state dedup. Platform clients store dicts/lists in
    etcd; the model compares raw values but hashes frozen ones."""
    if isinstance(value, dict):
        return ("__dict__", tuple(sorted(
            (k, _freeze(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("__seq__", tuple(_freeze(v) for v in value))
    return value


# ----------------------------------------------------------------------
# Wing & Gong search
# ----------------------------------------------------------------------

def _search(ops, initial_states, collect_final, max_configs):
    """Explore (done-mask, state) configurations depth-first.

    Returns ``(ok, final_states, best_path, best_state)`` where
    ``best_path`` is the longest linearization order reached (a list of
    op indices) and ``best_state`` the register value it ends in.
    """
    n = len(ops)
    required_mask = 0
    for i, record in enumerate(ops):
        if record.status == "ok":
            required_mask |= 1 << i
    full_mask = (1 << n) - 1
    inv = [record.invoke_seq for record in ops]
    resp = [record.response_seq if record.status == "ok" else _INF
            for record in ops]

    def expand(mask, state):
        pending = [i for i in range(n) if not mask >> i & 1]
        if not pending:
            return
        min_resp = min(resp[i] for i in pending)
        for i in pending:
            if inv[i] >= min_resp:
                continue  # someone responded before this was invoked
            for next_state in _transitions(state, ops[i]):
                yield i, next_state

    visited = set()
    finals = {}  # frozen state -> raw state (dedup, insertion-ordered)
    best_path, best_state = [], None
    ok = required_mask == 0 and not collect_final

    for start_state in initial_states:
        if not best_path:
            best_state = start_state
        root = (0, _freeze(start_state))
        if root in visited:
            continue
        visited.add(root)
        if collect_final and n == 0:
            finals.setdefault(root[1], start_state)
            continue
        stack = [(0, start_state, expand(0, start_state))]
        path = []
        while stack:
            mask, state, branches = stack[-1]
            advanced = False
            for i, next_state in branches:
                next_mask = mask | 1 << i
                config = (next_mask, _freeze(next_state))
                if config in visited:
                    continue
                visited.add(config)
                if len(visited) > max_configs:
                    raise CheckBudgetExceeded(
                        f"linearizability search exceeded {max_configs} "
                        f"configurations over {n} operations")
                path.append(i)
                if len(path) > len(best_path):
                    best_path = list(path)
                    best_state = next_state
                if next_mask & required_mask == required_mask:
                    ok = True
                    if not collect_final:
                        return True, None, best_path, best_state
                    if next_mask == full_mask:
                        finals.setdefault(config[1], next_state)
                stack.append((next_mask, next_state,
                              expand(next_mask, next_state)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                if path:
                    path.pop()
    if collect_final:
        return bool(finals), tuple(finals.values()), best_path, best_state
    return ok, None, best_path, best_state


def check_operations(ops, initial_states=(None,), collect_final=False,
                     max_configs=DEFAULT_MAX_CONFIGS):
    """Check one key's operations against the register model.

    ``initial_states`` is the set of values the register may hold
    before the first op (the auditor chains segment outcomes through
    it). With ``collect_final`` the search is exhaustive and the
    outcome carries every reachable end state — only meaningful for
    fully-completed segments, and required by the auditor's
    compaction.
    """
    ops = sorted((record for record in ops if not _droppable(record)),
                 key=lambda record: record.invoke_seq)
    considered = len(ops)
    if collect_final and any(record.status != "ok" for record in ops):
        raise ValueError("collect_final requires a fully-ok segment")
    ok, finals, best_path, best_state = _search(
        ops, initial_states, collect_final, max_configs)
    if ok:
        return KeyOutcome(True, final_states=finals,
                          ops_considered=considered)
    if MINIMIZE and len(ops) <= _MINIMIZE_CAP:
        ops = _minimize(ops, initial_states, max_configs)
        _, _, best_path, best_state = _search(
            ops, initial_states, False, max_configs)
    witness = _build_witness(ops, initial_states, best_path, best_state)
    return KeyOutcome(False, witness=witness, ops_considered=considered)


def check_history(history):
    """Check every auditable key of a :class:`HistoryRecorder` (or any
    object with ``keys()`` / ``ops_for_key()`` / ``auditable()``)."""
    result = CheckResult()
    for key in sorted(history.keys()):
        if not history.auditable(key):
            continue
        outcome = check_operations(history.ops_for_key(key))
        result.keys_checked += 1
        result.ops_checked += outcome.ops_considered
        if not outcome.ok:
            result.ok = False
            result.violations.append(outcome.witness)
    return result


# ----------------------------------------------------------------------
# Witness construction
# ----------------------------------------------------------------------

def _minimize(ops, initial_states, max_configs):
    """Greedy delta-debugging: drop any op whose removal keeps the
    history non-linearizable. Sub-histories of a linearizable history
    are linearizable, so the surviving subset is a genuine witness."""

    def fails(subset):
        try:
            return not _search(subset, initial_states, False,
                               max_configs)[0]
        except CheckBudgetExceeded:
            return False  # keep the op rather than overclaim

    current = list(ops)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for record in list(current):
            trial = [op for op in current if op is not record]
            if fails(trial):
                current = trial
                shrunk = True
    return current


def _summarize(record):
    doc = record.to_doc()
    if record.op == "get" and record.status == "ok":
        doc["observed"] = record.result
    return doc


def _build_witness(ops, initial_states, best_path, best_state):
    linearized = [ops[i] for i in best_path]
    done = set(best_path)
    stuck = []
    for i, record in enumerate(ops):
        if i in done or _droppable(record) or record.status != "ok":
            continue
        stuck.append({"op": _summarize(record),
                      "reason": _explain(best_state, record)})
    key = ops[0].key if ops else None
    return {
        "key": key,
        "initial_states": sorted(initial_states,
                                 key=lambda v: (v is not None, str(v))),
        "ops": [_summarize(record) for record in ops],
        "linearized": [_summarize(record) for record in linearized],
        "final_state": best_state,
        "stuck": stuck,
        "message": (f"history for key {key!r} is not linearizable: "
                    f"{len(linearized)}/{len(ops)} ops linearize, then "
                    f"every continuation contradicts an observed result"),
    }


def _fmt_op(doc):
    op, args = doc["op"], doc["args"]
    if op == "put":
        call = f"put({args!r})"
    elif op == "cas":
        call = f"cas({args[0]!r} -> {args[1]!r})"
    elif op == "delete":
        call = "delete()"
    else:
        call = "get()"
    outcome = doc["status"]
    if doc["status"] == "ok" and op == "get":
        outcome = f"ok = {doc['result']!r}"
    elif doc["status"] == "ok" and isinstance(doc["result"], dict):
        interesting = {k: v for k, v in doc["result"].items()
                       if k in ("ok", "deleted", "actual")}
        if interesting:
            outcome = f"ok {interesting}"
    window = (f"[{doc['invoke_time']:.3f}, "
              f"{doc['response_time']:.3f}]" if doc["response_time"]
              is not None else f"[{doc['invoke_time']:.3f}, ...)")
    return (f"{doc['client']:<16} #{str(doc['op_id']):<4} {call:<28} "
            f"{outcome:<24} {window}")


def render_witness(witness):
    """The human-readable counterexample for one violated key."""
    lines = [f"== linearizability violation: key {witness['key']!r} ==",
             witness["message"], "",
             f"initial state(s): {witness['initial_states']!r}",
             "", "recorded history (invocation order):"]
    lines += [f"  {_fmt_op(doc)}" for doc in witness["ops"]]
    lines += ["", "longest linearizable prefix:"]
    if witness["linearized"]:
        lines += [f"  {_fmt_op(doc)}" for doc in witness["linearized"]]
    else:
        lines.append("  (empty)")
    lines.append(f"  -> register ends as {witness['final_state']!r}")
    lines.append("")
    lines.append("no remaining operation can linearize next:")
    for entry in witness["stuck"]:
        lines.append(f"  {_fmt_op(entry['op'])}")
        lines.append(f"      {entry['reason']}")
    return "\n".join(lines)
