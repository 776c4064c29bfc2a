"""Structured trace of simulation activity: records and causal spans.

Components append typed records; tests and benchmarks query them. The
trace is the simulated analogue of the platform's log pipeline, and is
what lets Fig. 4 measure crash-to-recovery intervals precisely.

Beyond the flat record stream, the tracer supports *causal spans*
(OpenTelemetry-shaped): a :class:`Span` has a trace id, a span id, a
parent link, a status and attributes. Context propagates two ways:

* **in-band** — RPC clients inject a :class:`SpanContext` into call
  metadata (``__trace_ctx__``) and the far handler extracts it with
  :func:`extract_context`;
* **out-of-band** — components that communicate through databases
  rather than RPCs (the API hands a job to the LCM via MongoDB) stash
  their context in the tracer's correlation registry under a key such
  as ``("job", job_id)`` and the downstream component looks it up with
  :meth:`Tracer.context_of`.

One submitted job therefore yields a single span tree rooted at the API
request, and :meth:`Tracer.critical_path` attributes end-to-end latency
to its stages.
"""

import itertools
from sys import intern as _intern

# Wire key under which RPC clients carry the span context inside a
# dict-shaped request (the simulated analogue of GRPC call metadata).
TRACE_CONTEXT_KEY = "__trace_ctx__"


class TraceRecord:
    """One trace entry: time, component, event kind, free-form fields."""

    __slots__ = ("time", "component", "kind", "fields")

    def __init__(self, time, component, kind, fields):
        self.time = time
        self.component = component
        self.kind = kind
        self.fields = fields

    def __repr__(self):
        return f"<{self.time:.3f} {self.component} {self.kind} {self.fields}>"


class SpanContext:
    """The propagatable identity of a span: (trace id, span id)."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id, span_id):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_wire(self):
        """Serializable form for RPC metadata."""
        return (self.trace_id, self.span_id)

    @classmethod
    def from_wire(cls, value):
        if value is None:
            return None
        if isinstance(value, SpanContext):
            return value
        trace_id, span_id = value
        return cls(trace_id, span_id)

    def __eq__(self, other):
        return (isinstance(other, SpanContext)
                and other.trace_id == self.trace_id
                and other.span_id == self.span_id)

    def __hash__(self):
        return hash((self.trace_id, self.span_id))

    def __repr__(self):
        return f"<ctx trace={self.trace_id} span={self.span_id}>"


def extract_context(request):
    """The :class:`SpanContext` carried in a dict request, or None."""
    if isinstance(request, dict):
        return SpanContext.from_wire(request.get(TRACE_CONTEXT_KEY))
    return None


def inject_context(request, ctx):
    """Copy of ``request`` carrying ``ctx``; non-dict requests pass through."""
    if ctx is None or not isinstance(request, dict):
        return request
    carried = dict(request)
    carried[TRACE_CONTEXT_KEY] = ctx.to_wire()
    return carried


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "component", "trace_id", "span_id", "parent_id",
                 "start", "end_time", "status", "attributes", "_clock")

    def __init__(self, name, component, trace_id, span_id, parent_id,
                 start, clock, attributes=None):
        self.name = name
        self.component = component
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end_time = None
        self.status = "open"
        self.attributes = attributes or {}
        self._clock = clock

    @property
    def context(self):
        return SpanContext(self.trace_id, self.span_id)

    @property
    def ended(self):
        return self.end_time is not None

    def duration(self):
        """Span length; open spans are measured up to now."""
        end = self.end_time
        if end is None:
            end = self._clock()
        return max(0.0, end - self.start)

    def set_attribute(self, key, value):
        self.attributes[key] = value
        return self

    def end(self, status="ok"):
        """Close the span (idempotent: the first end wins)."""
        if self.end_time is None:
            self.end_time = self._clock()
            self.status = status
        return self

    # Context-manager use for synchronous sections: ends with status
    # "ok", or "error" if the block raised.
    def __repr__(self):
        end = f"{self.end_time:.3f}" if self.ended else "…"
        return (f"<span {self.name} [{self.component}] "
                f"t{self.trace_id}/s{self.span_id} "
                f"{self.start:.3f}->{end} {self.status}>")


class Tracer:
    """Append-only trace with spans and simple query helpers."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.records = []
        self.spans = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._bindings = {}

    # ------------------------------------------------------------------
    # Flat records
    # ------------------------------------------------------------------

    def emit(self, component, kind, **fields):
        # component/kind values repeat millions of times across a run
        # (f-built names like "learner-0" included); interning collapses
        # them to one object each, so the equality filters in query()
        # and the digest hashing are pointer comparisons.
        record = TraceRecord(self._kernel.now, _intern(component),
                             _intern(kind), fields)
        self.records.append(record)
        return record

    def query(self, component=None, kind=None, since=None, **field_filters):
        """Records matching all given criteria, in time order."""
        out = []
        for record in self.records:
            if component is not None and record.component != component:
                continue
            if kind is not None and record.kind != kind:
                continue
            if since is not None and record.time < since:
                continue
            if any(record.fields.get(k) != v for k, v in field_filters.items()):
                continue
            out.append(record)
        return out

    def first(self, **kwargs):
        matches = self.query(**kwargs)
        return matches[0] if matches else None

    def last(self, **kwargs):
        matches = self.query(**kwargs)
        return matches[-1] if matches else None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def start_span(self, name, component=None, parent=None, **attributes):
        """Open a span; ``parent`` is a Span, SpanContext, or None.

        With no parent the span roots a fresh trace.
        """
        if isinstance(parent, Span):
            parent = parent.context
        if parent is None:
            trace_id, parent_id = next(self._trace_ids), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(name, component or name, trace_id, next(self._span_ids),
                    parent_id, self._kernel.now, lambda: self._kernel.now,
                    attributes=attributes)
        self.spans.append(span)
        return span

    # Correlation registry: out-of-band context propagation for hops
    # that ride on shared state (MongoDB documents, etcd keys, pod
    # creation) rather than on an RPC.

    def bind(self, binding_key, context):
        if context is not None:
            self._bindings[binding_key] = context

    def context_of(self, binding_key):
        return self._bindings.get(binding_key)

    def unbind(self, binding_key):
        self._bindings.pop(binding_key, None)

    # ------------------------------------------------------------------
    # Span analysis
    # ------------------------------------------------------------------

    def trace_of(self, trace_id):
        """All spans in one trace, ordered by (start, span id)."""
        spans = [s for s in self.spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start, s.span_id))
        return spans

    def find_spans(self, name=None, **attrs):
        out = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if any(span.attributes.get(k) != v for k, v in attrs.items()):
                continue
            out.append(span)
        return out

    def span_tree(self, trace_id):
        """(roots, children) for one trace.

        ``children`` maps span id -> child spans sorted by start time.
        Spans whose parent is missing from the trace are treated as
        roots, so a partially collected trace still renders.
        """
        spans = self.trace_of(trace_id)
        by_id = {s.span_id: s for s in spans}
        roots, children = [], {}
        for span in spans:
            if span.parent_id is None or span.parent_id not in by_id:
                roots.append(span)
            else:
                children.setdefault(span.parent_id, []).append(span)
        return roots, children

    def critical_path(self, trace_id):
        """The latency-dominating path through one trace.

        Walks from the root toward the descendant that finished last,
        and attributes each step's *self time*: the part of the path's
        elapsed time spent in that span but not in its on-path child.
        Returns ``[{"span", "self_seconds"}, ...]`` root-first; open
        spans are measured up to the trace's latest timestamp.
        """
        roots, children = self.span_tree(trace_id)
        if not roots:
            return []
        trace_end = max(
            (s.end_time if s.ended else s.start + s.duration())
            for s in self.trace_of(trace_id)
        )

        def effective_end(span):
            return span.end_time if span.ended else trace_end

        root = max(roots, key=effective_end)
        path = [root]
        while True:
            kids = children.get(path[-1].span_id)
            if not kids:
                break
            path.append(max(kids, key=effective_end))
        steps = []
        for span, child in itertools.zip_longest(path, path[1:]):
            span_elapsed = effective_end(span) - span.start
            if child is None:
                self_seconds = span_elapsed
            else:
                # Time in this span before the on-path child starts plus
                # any tail after the child ends.
                self_seconds = (max(0.0, child.start - span.start)
                                + max(0.0, effective_end(span) - effective_end(child)))
                self_seconds = min(self_seconds, span_elapsed)
            steps.append({"span": span, "self_seconds": max(0.0, self_seconds)})
        return steps


def render_span_tree(tracer, trace_id):
    """The trace's span tree as indented text, one line per span."""
    roots, children = tracer.span_tree(trace_id)
    lines = []

    def walk(span, depth):
        end = f"{span.end_time:9.3f}" if span.ended else "     open"
        attrs = "".join(f" {k}={v}" for k, v in sorted(span.attributes.items()))
        lines.append(
            f"{span.start:9.3f} -> {end}  {span.duration():8.3f}s  "
            f"{'  ' * depth}{span.name} [{span.component}] {span.status}{attrs}"
        )
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def render_critical_path(tracer, trace_id):
    """The critical path as text, attributing latency to each stage."""
    steps = tracer.critical_path(trace_id)
    if not steps:
        return "no spans in trace"
    total = sum(step["self_seconds"] for step in steps)
    lines = [f"critical path ({total:.3f}s total):"]
    for step in steps:
        span = step["span"]
        share = step["self_seconds"] / total if total else 0.0
        lines.append(
            f"  {step['self_seconds']:8.3f}s  {share:5.1%}  "
            f"{span.name} [{span.component}]"
        )
    return "\n".join(lines)
