"""Deterministic discrete-event simulation kernel.

This is the substrate clock for the whole reproduction: every
microservice, Kubernetes controller, Raft node and learner process runs
as a generator-based process on :class:`Kernel`, and all times reported
by benchmarks are simulated seconds. The two control-loop shapes are
written once each: :class:`Reconciler` (watch-driven, keyed) and
:class:`Periodic` (fixed interval — every poller in the platform holds
one, and its ``start()``/``stop()`` contract is theirs).
"""

from .channels import Channel
from .errors import ChannelClosed, Interrupt, ProcessKilled, SimError, SimTimeout
from .events import AllOf, AnyOf, Event
from .faults import FaultInjector
from .kernel import Kernel
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .periodic import Periodic, Polling
from .process import Process
from .reconciler import Reconciler, WatchSource, WorkQueue
from .shard import (
    BoundaryMessage,
    ShardPort,
    ShardSlot,
    ShardedKernel,
    merged_digest,
)
from .timeseries import TimeSeries, TimeSeriesStore
from .tracing import (
    NULL_SPAN,
    Span,
    SpanContext,
    TraceRecord,
    Tracer,
    extract_context,
    inject_context,
    render_critical_path,
    render_span_tree,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "BoundaryMessage",
    "Channel",
    "ChannelClosed",
    "Counter",
    "Event",
    "FaultInjector",
    "Gauge",
    "Histogram",
    "Interrupt",
    "Kernel",
    "MetricsRegistry",
    "NULL_SPAN",
    "Periodic",
    "Polling",
    "Process",
    "ProcessKilled",
    "Reconciler",
    "ShardPort",
    "ShardSlot",
    "ShardedKernel",
    "SimError",
    "SimTimeout",
    "Span",
    "SpanContext",
    "TimeSeries",
    "TimeSeriesStore",
    "TraceRecord",
    "Tracer",
    "WatchSource",
    "WorkQueue",
    "extract_context",
    "inject_context",
    "merged_digest",
    "render_critical_path",
    "render_span_tree",
]
