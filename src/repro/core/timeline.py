"""Per-job timelines: the debugging view the paper's users need.

§II: users rely on status timestamps "for job profiling and debugging".
This module merges everything the platform knows about one job — status
transitions, Kubernetes events for its pods, trace events from its
Guardian/controller/learners, injected faults — into one ordered,
human-readable timeline. All but the status rows are trace records (a
Kubernetes event is the API server's ``k8s-event`` record).
:func:`timeline_digest` is the whole-platform counterpart: one
fingerprint of every trace record and status flip.
"""

import hashlib


def timeline_digest(platform, docs):
    """The canonical fingerprint of everything one platform decided:
    the full trace-record sequence, every job's status history, and the
    final simulated clock. Shared by the benches and the tests so
    "bit-identical" means one thing everywhere."""
    trace = [(round(r.time, 9), r.component, r.kind) for r in
             platform.tracer.records]
    histories = [
        [(h["status"], round(h["time"], 9)) for h in doc["status_history"]]
        for doc in docs or ()
    ]
    blob = repr((trace, histories, round(platform.kernel.now, 9)))
    return hashlib.sha256(blob.encode()).hexdigest()


def job_timeline(platform, job_id, status_doc=None):
    """All events concerning ``job_id`` as (time, source, text), sorted."""
    entries = []

    if status_doc is not None:
        for item in status_doc.get("status_history", []):
            entries.append((item["time"], "status", item["status"]))

    k8s = []  # after the trace rows: the sort keeps that order at a tie
    for record in platform.tracer.records:
        fields = record.fields
        if fields.get("job") == job_id:
            detail = {k: v for k, v in fields.items() if k != "job"}
            text = record.kind + (f" {detail}" if detail else "")
            entries.append((record.time, record.component, text))
        elif record.component == "fault-injector" and \
                job_id in str(fields.get("target", "")):
            entries.append((record.time, "fault", str(fields["target"])))
        elif record.kind == "k8s-event" and record.component == "apiserver":
            name, message = fields["name"], fields["message"]
            if job_id in name or job_id in message:
                k8s.append((record.time, f"k8s:{fields['resource'].lower()}",
                            f"{fields['reason']} {name}"
                            + (f" ({message})" if message else "")))
    entries += k8s

    entries.sort(key=lambda item: item[0])
    return entries


def render_timeline(entries, limit=None):
    """Format timeline entries as aligned text lines.

    ``limit`` caps the number of real entries shown: the first
    ``limit // 2`` and the last ``limit - limit // 2`` survive, with a
    single elision marker between them counting what was dropped.
    """
    if limit is not None and limit >= 0 and len(entries) > limit:
        skipped = len(entries) - limit
        head_count = limit // 2
        # Positive tail index: entries[-(limit - head_count):] breaks
        # down at limit == 0, where -0 slices the whole list back in.
        tail_start = len(entries) - (limit - head_count)
        marker = (None, None, f"... {skipped} events elided ...")
        entries = entries[:head_count] + [marker] + entries[tail_start:]
    width = max((len(source) for _t, source, _x in entries if source), default=6)
    lines = []
    for time, source, text in entries:
        if time is None:
            lines.append(f"{'':>10}  {text}")
        else:
            lines.append(f"{time:>9.2f}s  {source:<{width}}  {text}")
    return "\n".join(lines)
