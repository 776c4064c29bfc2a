"""User-facing DLaaS client (the REST/GRPC SDK of the real system).

All methods are process generators (``yield from``); they call the API
service through its load-balanced endpoint with retries, so API pod
crashes and fail-overs are invisible to the user beyond latency.
"""

from ..grpcnet import Client
from ..grpcnet.errors import ServiceError
from .errors import DlaasError
from .states import TERMINAL_STATUSES

# How hard a tenant's SDK tries before an API outage becomes an error.
RPC_RETRIES = 6
RPC_BACKOFF = 0.25
RPC_DEADLINE = 5.0


class DlaasClient:
    """Handle for one tenant's interactions with the platform."""

    def __init__(self, platform, token, route_key=None):
        self.platform = platform
        self.kernel = platform.kernel
        self.token = token
        # With ring routing the tenant rides as the affinity key, so
        # every call of this client lands on the tenant's API replica.
        self._rpc = Client(self.kernel, platform.network, platform.api_balancer,
                           caller=f"client-{token}", retries=RPC_RETRIES,
                           retry_backoff=RPC_BACKOFF, deadline=RPC_DEADLINE,
                           route_key=route_key)

    def _call(self, method, **payload):
        payload["token"] = self.token
        try:
            response = yield from self._rpc.call(method, payload)
        except ServiceError as exc:
            # Surface platform-level errors (auth, validation, not
            # found) as themselves rather than RPC wrappers.
            if isinstance(exc.cause, DlaasError):
                raise exc.cause from None
            raise
        return response

    # ------------------------------------------------------------------

    def submit(self, manifest):
        """Submit a training job; returns its job id."""
        response = yield from self._call("submit", manifest=manifest)
        return response["job_id"]

    def status(self, job_id):
        response = yield from self._call("status", job_id=job_id)
        return response

    def list_jobs(self):
        response = yield from self._call("list_jobs")
        return response

    def halt(self, job_id):
        response = yield from self._call("halt", job_id=job_id)
        return response

    def logs(self, job_id, tail=None):
        response = yield from self._call("logs", job_id=job_id, tail=tail)
        return response["lines"]

    def usage(self):
        response = yield from self._call("usage")
        return response

    # ------------------------------------------------------------------
    # Serving models (repro.serving; needs PlatformConfig(serving=True))
    # ------------------------------------------------------------------

    def create_model(self, manifest):
        """Register an inference model; returns its model id."""
        response = yield from self._call("create_model", manifest=manifest)
        return response["model_id"]

    def get_model(self, model_id):
        response = yield from self._call("get_model", model_id=model_id)
        return response

    def list_models(self):
        response = yield from self._call("list_models")
        return response

    def delete_model(self, model_id):
        response = yield from self._call("delete_model", model_id=model_id)
        return response

    def wait_for_model_ready(self, model_id, replicas=1, timeout=600.0,
                             poll_interval=1.0):
        """Poll until at least ``replicas`` replicas report ready."""
        deadline = self.kernel.now + timeout
        while True:
            doc = yield from self.get_model(model_id)
            if doc.get("ready_replicas", 0) >= replicas:
                return doc
            if self.kernel.now >= deadline:
                raise TimeoutError(
                    f"{model_id} has {doc.get('ready_replicas', 0)}/"
                    f"{replicas} replicas after {timeout}s")
            yield self.kernel.sleep(poll_interval)

    # ------------------------------------------------------------------

    def wait_for_status(self, job_id, statuses=None, timeout=3600.0,
                        poll_interval=2.0):
        """Poll until the job reaches one of ``statuses`` (default: any
        terminal status); returns the final status document."""
        targets = set(statuses) if statuses else set(TERMINAL_STATUSES)
        deadline = self.kernel.now + timeout
        while True:
            doc = yield from self.status(job_id)
            if doc["status"] in targets:
                return doc
            if self.kernel.now >= deadline:
                raise TimeoutError(
                    f"{job_id} still {doc['status']} after {timeout}s"
                )
            yield self.kernel.sleep(poll_interval)

    def watch_job(self, job_id, callback, poll_interval=2.0, timeout=3600.0):
        """Poll the job, invoking ``callback(doc)`` on each status change;
        returns the terminal status document."""
        deadline = self.kernel.now + timeout
        last_status = None
        while True:
            doc = yield from self.status(job_id)
            if doc["status"] != last_status:
                last_status = doc["status"]
                callback(doc)
            if doc["status"] in TERMINAL_STATUSES:
                return doc
            if self.kernel.now >= deadline:
                raise TimeoutError(f"{job_id} still {doc['status']} after {timeout}s")
            yield self.kernel.sleep(poll_interval)

    def run_to_completion(self, manifest, timeout=3600.0):
        """Submit and wait for a terminal status; returns (job_id, doc)."""
        job_id = yield from self.submit(manifest)
        doc = yield from self.wait_for_status(job_id, timeout=timeout)
        return job_id, doc
