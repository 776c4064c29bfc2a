"""Monitoring subsystem: scrape pipeline, health probes, SLO alerting.

The consumption side of observability (FfDL's monitoring stack, NSML's
automated health monitoring): periodic scrapes of the platform's
metric registry into bounded time series, ``healthz`` probes exposed
as ``up{component=...}``, Kubernetes-style platform events, and a
declarative alert-rule engine walking pending -> firing -> resolved.
"""

from .alerts import (
    AlertEngine,
    AlertRule,
    Condition,
    FIRING,
    INACTIVE,
    Increase,
    Metric,
    PENDING,
    Ratio,
    RecordingRule,
    RESOLVED,
    default_rule_pack,
)
from .dashboard import render_dashboard, sparkline
from .differential import DifferentialDetector, robust_score, role_of
from .health import HealthRegistry, PodGroupProbe, Probe, register_platform_probes
from .scraper import MetricsScraper
from .stack import MonitoringStack

__all__ = [
    "AlertEngine",
    "AlertRule",
    "Condition",
    "DifferentialDetector",
    "FIRING",
    "HealthRegistry",
    "INACTIVE",
    "Increase",
    "Metric",
    "MetricsScraper",
    "MonitoringStack",
    "PENDING",
    "PodGroupProbe",
    "Probe",
    "RESOLVED",
    "Ratio",
    "RecordingRule",
    "default_rule_pack",
    "register_platform_probes",
    "render_dashboard",
    "robust_score",
    "role_of",
    "sparkline",
]
