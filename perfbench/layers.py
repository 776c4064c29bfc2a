"""The repo's modules as layers, and the probe points on their edges."""

import importlib
from pathlib import PurePath

LAYERS = ("sim.kernel", "sim.reconciler", "sim.metrics", "sim.tracing",
          "grpcnet", "raftkv", "docstore", "cluster", "core", "monitoring",
          "audit", "nfs", "objectstore", "frameworks", "driver")

_SIM_FILES = {
    "kernel.py": "sim.kernel", "events.py": "sim.kernel",
    "process.py": "sim.kernel", "channels.py": "sim.kernel",
    "reconciler.py": "sim.reconciler",
    "metrics.py": "sim.metrics", "timeseries.py": "sim.metrics",
    "tracing.py": "sim.tracing",
}
_PACKAGES = frozenset(LAYERS) - {"driver"}


def layer_of(relative_path):
    """The layer owning a file, given its path relative to ``src/repro``.

    ``sim`` is split by file (the rest of the package falls back to
    ``sim.kernel``); every other package is one layer; what is left —
    ``bench``, ``serving``, the package root — is ``driver``, as is any
    frame outside ``src/repro``.
    """
    parts = PurePath(relative_path).parts
    if parts[0] == "sim":
        return _SIM_FILES.get(parts[-1], "sim.kernel")
    return parts[0] if parts[0] in _PACKAGES else "driver"


# probe name -> (module, class, methods). Each is a plain synchronous
# method: a wrapper around a generator function would time its creation,
# not its work (tests/test_layers.py checks).
PROBES = {
    "sim.tracing.emit": ("repro.sim.tracing", "Tracer", ("emit",)),
    "sim.tracing.start_span": ("repro.sim.tracing", "Tracer",
                               ("start_span",)),
    "sim.tracing.query": ("repro.sim.tracing", "Tracer", ("query",)),
    "sim.metrics.snapshot": ("repro.sim.metrics", "MetricsRegistry",
                             ("snapshot",)),
    "grpcnet.call": ("repro.grpcnet.network", "Network", ("call",)),
    "raftkv.apply": ("repro.raftkv.statemachine", "KvStateMachine",
                     ("apply",)),
    "docstore.read": ("repro.docstore.collection", "Collection",
                      ("find", "find_one", "count_documents")),
    "docstore.write": ("repro.docstore.collection", "Collection",
                       ("insert_one", "update_one", "find_one_and_update")),
    "cluster.list": ("repro.cluster.apiserver", "ApiServer", ("list",)),
    "cluster.write": ("repro.cluster.apiserver", "ApiServer",
                      ("create", "update", "delete")),
    "cluster.schedule_once": ("repro.cluster.scheduler", "Scheduler",
                              ("schedule_once",)),
    "monitoring.scrape_once": ("repro.monitoring.scraper", "MetricsScraper",
                               ("scrape_once",)),
    "monitoring.evaluate_once": ("repro.monitoring.alerts", "AlertEngine",
                                 ("evaluate_once",)),
    "audit.audit_once": ("repro.audit.auditor", "ConsistencyAuditor",
                         ("audit_once",)),
}


def probe_targets():
    """``(probe name, class, method name)`` for every probed method."""
    for name, (module, cls, methods) in PROBES.items():
        owner = getattr(importlib.import_module(module), cls)
        for method in methods:
            yield name, owner, method
