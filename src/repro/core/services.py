"""Core-service pod workloads: API and LCM as Kubernetes Deployments.

"All containerized DLaaS core services are executed as K8S deployments,
exposed through the K8S service abstraction" (§III.b). Each pod boots
the service, registers its endpoint into the platform's load balancer
(the service registry), serves until stopped, and unregisters — the
endpoint-controller behaviour that gives incoming requests fail-over.
"""

from ..sim.errors import ProcessKilled
from .api import ApiService
from .lcm import LcmService

# Service boot times (drive the Fig. 4 recovery bands).
API_INIT_TIME = 2.9
LCM_INIT_TIME = 4.1


def _emit_exit_event(platform, ctx, component):
    # Graceful scale-down triggers the stop event first; anything else
    # reaching the finally block is a crash (killed pod, dead node).
    crashed = not ctx.stop_event.triggered
    platform.events.emit_event(
        "Warning" if crashed else "Normal",
        "ComponentCrashed" if crashed else "ComponentStopped",
        "Pod", ctx.pod.metadata.name,
        message=f"{component} endpoint "
                + ("lost" if crashed else "deregistered"))


def make_api_workload(platform):
    def workload(ctx):
        kernel = ctx.kernel
        address = f"api:{ctx.pod.metadata.name}"
        yield kernel.sleep(API_INIT_TIME)
        service = ApiService(platform, address)
        try:
            service.server.start()
            platform.api_balancer.add(address)
            platform.tracer.emit("api", "component-ready", pod=ctx.pod.metadata.name)
            platform.events.emit_event("Normal", "ComponentReady", "Pod",
                                       ctx.pod.metadata.name,
                                       message="api serving")
            yield ctx.stop_event
        finally:
            # Pod gone (gracefully or not): the endpoint controller
            # removes it from the service registry.
            platform.api_balancer.remove(address)
            service.server.stop()
            _emit_exit_event(platform, ctx, "api")
        return 0

    return workload


def make_lcm_workload(platform):
    def workload(ctx):
        kernel = ctx.kernel
        address = f"lcm:{ctx.pod.metadata.name}"
        yield kernel.sleep(LCM_INIT_TIME)
        service = LcmService(platform, address)
        deploy = gc = None
        try:
            service.server.start()
            platform.lcm_balancer.add(address)
            if service.slices is not None:
                service.slices.start()
            deploy = service.make_deploy_reconciler().start()
            gc = service.make_gc_reconciler().start()
            platform.tracer.emit("lcm", "component-ready", pod=ctx.pod.metadata.name)
            platform.events.emit_event("Normal", "ComponentReady", "Pod",
                                       ctx.pod.metadata.name,
                                       message="lcm serving")
            yield ctx.stop_event
        except ProcessKilled:
            raise
        finally:
            # Pod gone (gracefully or crashed): stop the reconcilers,
            # which also cancels their API-server watch registrations —
            # a crashed LCM must not leak watch channels.
            platform.lcm_balancer.remove(address)
            service.server.stop()
            if service.slices is not None:
                # The claim loop dies with the pod; the slice leases
                # are left to TTL-expire, which is exactly the crash
                # path the survivors' adoption logic covers.
                service.slices.stop()
            if deploy is not None:
                deploy.stop()
            if gc is not None:
                gc.stop()
            _emit_exit_event(platform, ctx, "lcm")
        return 0

    return workload
