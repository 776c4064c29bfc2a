"""SLO-driven replica autoscaling (distinct from the node-level
``ClusterAutoscaler``).

The node autoscaler provisions *machines* from unschedulable demand;
this one sets *replica counts* per model from user-visible signals —
window p99 latency and queue depth, never utilization — because the
SLO is what tenants buy. Policy:

* scale **up** (by half the fleet, at least one) when the p99 over the
  runtime's rolling window exceeds the manifest's ``slo_p99`` or the
  queue holds more than ``QUEUE_HIGH`` requests per replica;
* scale **down** (by one) only when p99 sits below half the SLO and
  the queue is nearly drained — and no scale-up happened recently;
* both directions respect the manifest's ``[min, max]`` bounds and a
  per-direction cooldown, so one burst cannot thrash the Deployment.

Every decision is written to MongoDB *before* the Deployment is
patched: desired state is durable first (the same write-ahead
discipline the API applies to submissions), so a manager crash
between the write and the patch is healed by the next reconcile.
``plan_scaling`` is a pure function of the observed stats, unit-tested
in isolation from the platform.
"""

from ..sim.periodic import Periodic, Polling

AUTOSCALE_INTERVAL = 2.0
SCALE_UP_COOLDOWN = 5.0
SCALE_DOWN_COOLDOWN = 60.0
QUEUE_HIGH = 16.0  # queued requests per replica


def plan_scaling(*, replicas, p99, queue_depth, manifest, now,
                 last_scale_up, last_scale_down, queue_high,
                 up_cooldown, down_cooldown):
    """Return the new desired replica count, or ``None`` to hold."""
    breach = ((p99 is not None and p99 > manifest.slo_p99)
              or queue_depth > queue_high * max(replicas, 1))
    if breach:
        if replicas >= manifest.max_replicas:
            return None
        if now - last_scale_up < up_cooldown:
            return None
        step = max(1, (replicas + 1) // 2)
        return min(manifest.max_replicas, replicas + step)
    calm = ((p99 is None or p99 < 0.5 * manifest.slo_p99)
            and queue_depth <= max(replicas, 1))
    if calm and replicas > manifest.min_replicas:
        if now - last_scale_down < down_cooldown \
                or now - last_scale_up < down_cooldown:
            return None
        return replicas - 1
    return None


class ServingAutoscaler(Polling):
    """Periodic per-model evaluation loop inside the manager pod."""

    def __init__(self, manager):
        self.manager = manager
        self.platform = manager.platform
        self.kernel = manager.kernel
        # Cooldown clocks are in-memory only: a manager restart resets
        # them, which at worst re-permits one early scaling step.
        self._last_up = {}
        self._last_down = {}
        self._loop = Periodic(
            self.kernel, f"serving-autoscaler:{manager.address}",
            self.evaluate_once, AUTOSCALE_INTERVAL)
        metrics = self.platform.metrics
        self._m_scale = metrics.counter(
            "serving_scale_events_total", ("model", "direction"),
            help="Autoscaler replica-count changes")
        self._g_breach = metrics.gauge(
            "serving_slo_breach", ("model",),
            help="Window p99 over the model SLO (ratio; >1 is a breach)")

    def evaluate_once(self):
        runtime = self.platform.serving
        for model_id in runtime.model_ids():
            manifest = runtime.manifest_of(model_id)
            if manifest is None:
                continue
            stats = runtime.stats(model_id)
            p99 = stats["window_p99"]
            self._g_breach.labels(model=model_id).set(
                0.0 if p99 is None else p99 / manifest.slo_p99)
            doc = yield from self.manager.mongo.find_one(
                "models", {"model_id": model_id, "status": "ACTIVE"},
                projection=["replicas"])
            if doc is None:
                continue
            replicas = doc.get("replicas", manifest.min_replicas)
            now = self.kernel.now
            target = plan_scaling(
                replicas=replicas, p99=p99,
                queue_depth=stats["queue_depth"], manifest=manifest,
                now=now,
                last_scale_up=self._last_up.get(model_id, float("-inf")),
                last_scale_down=self._last_down.get(model_id, float("-inf")),
                queue_high=QUEUE_HIGH,
                up_cooldown=SCALE_UP_COOLDOWN,
                down_cooldown=SCALE_DOWN_COOLDOWN)
            if target is None or target == replicas:
                continue
            yield from self._apply(model_id, replicas, target, p99, stats)

    def _apply(self, model_id, replicas, target, p99, stats):
        direction = "up" if target > replicas else "down"
        # Durable intent first; actuation second. The reconciler resync
        # replays the Deployment patch if we crash in between.
        matched, _modified = yield from self.manager.mongo.update_one(
            "models", {"model_id": model_id, "status": "ACTIVE"},
            {"$set": {"replicas": target}})
        if not matched:
            return  # deleted underneath us
        if direction == "up":
            self._last_up[model_id] = self.kernel.now
        else:
            self._last_down[model_id] = self.kernel.now
        self._m_scale.labels(model=model_id, direction=direction).inc()
        self.platform.events.emit_event(
            "Normal", "ServingScaleUp" if direction == "up" else "ServingScaleDown",
            "Model", model_id,
            message=f"{replicas} -> {target} replicas "
                    f"(p99 {p99 if p99 is not None else 'n/a'}, "
                    f"queue {stats['queue_depth']})")
        yield from self.manager.reconcile_model(model_id)
