"""The inference-replica pod workload.

One replica = one container in a pod owned by the model's Deployment
(``serving-<model_id>``). After an init delay (model load, weight
download) it registers into the platform's :class:`ServingRuntime`,
then loops: pull up to ``max_batch`` queued requests, spend one
forward pass of simulated service time, report completions. Service
time follows the manifest's linear model (base + per-item) with
multiplicative jitter from the dedicated ``serving-service`` RNG
stream, so serving never perturbs the training streams.

Graceful scale-down triggers the pod's stop event; a crash kills the
generator outright. Either way the ``finally`` deregisters the
replica, and the runtime re-routes whatever was still queued — a
dying replica drops no requests.
"""

REPLICA_INIT_TIME = 2.0  # model load on a replica
SERVICE_JITTER = 0.1  # fraction of service time


def make_replica_workload(platform, model_id, manifest):
    def workload(ctx):
        kernel = ctx.kernel
        runtime = platform.serving
        rng = kernel.rng("serving-service")
        yield kernel.sleep(REPLICA_INIT_TIME)
        handle = runtime.register_replica(model_id, ctx.pod.metadata.name)
        platform.events.emit_event(
            "Normal", "ComponentReady", "Pod", ctx.pod.metadata.name,
            message=f"serving replica for {model_id} ready")
        try:
            while not ctx.stop_event.triggered:
                if not handle.queue:
                    yield kernel.any_of([ctx.stop_event, handle.wait_event()])
                    if ctx.stop_event.triggered:
                        break
                batch = runtime.take_batch(model_id, handle, manifest.max_batch)
                if not batch:
                    continue
                service = (manifest.base_service_time
                           + manifest.per_item_time * len(batch))
                service *= 1.0 + SERVICE_JITTER * rng.random()
                yield kernel.sleep(service)
                runtime.complete(model_id, batch)
        finally:
            runtime.deregister_replica(model_id, handle)
        return 0

    return workload
