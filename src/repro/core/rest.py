"""RESTful facade over the API service (paper §III.c).

"It exposes both a RESTful API as well as a GRPC API endpoint." The
gateway translates HTTP-shaped requests (method, path, query, bearer
token, JSON body) onto the same service handlers the GRPC surface uses,
and maps platform errors onto HTTP status codes.
"""

import hmac
import re

from .errors import (
    AuthError,
    DlaasError,
    InvalidManifest,
    JobNotFound,
    RateLimited,
)

# ``/v1/models`` is the paper's name for *training jobs* (FfDL's
# historical route).
_ROUTES = (
    ("POST", re.compile(r"^/v1/models$"), "submit"),
    ("GET", re.compile(r"^/v1/models$"), "list_jobs"),
    ("GET", re.compile(r"^/v1/models/(?P<job_id>[^/]+)$"), "status"),
    ("DELETE", re.compile(r"^/v1/models/(?P<job_id>[^/]+)$"), "halt"),
    ("GET", re.compile(r"^/v1/models/(?P<job_id>[^/]+)/logs$"), "logs"),
    ("GET", re.compile(r"^/v1/usage$"), "usage"),
)

_STATUS_FOR = (
    (AuthError, 401),
    (RateLimited, 429),
    (InvalidManifest, 400),
    (JobNotFound, 404),
    (DlaasError, 500),
)


class RestGateway:
    """Translates HTTP requests into service-handler calls.

    Registered on the API instance's RPC server under the ``http``
    method; a request looks like::

        {"method": "POST", "path": "/v1/models",
         "headers": {"Authorization": "Bearer <token>"},
         "body": {...manifest...}, "query": {...}}

    and the response is ``{"status": <code>, "body": <json>}``.
    """

    def __init__(self, api_service):
        self.api_service = api_service

    def handle(self, request):
        method = request.get("method", "GET").upper()
        path = request.get("path", "/")
        # Operational endpoints: unauthenticated by default (the real
        # platform exposes them on a cluster-internal port), optionally
        # gated by a shared bearer token (``PlatformConfig.metrics_auth``)
        # when the port is reachable from outside the cluster.
        if method == "GET" and path in ("/metrics", "/healthz"):
            platform = self.api_service.platform
            required = platform.config.metrics_auth
            if required is not None:
                supplied = self._bearer_token(request.get("headers") or {})
                # Constant-time compare: the token is a shared secret.
                if supplied is None or not hmac.compare_digest(
                        supplied.encode(), required.encode()):
                    return {"status": 401, "body": {"error": "unauthorized"}}
            if path == "/metrics":
                return {"status": 200,
                        "body": platform.metrics.expose(),
                        "content_type": "text/plain; version=0.0.4"}
            health = platform.health.snapshot()
            return {"status": 200 if health["status"] == "ok" else 503,
                    "body": health}
        token = self._bearer_token(request.get("headers") or {})
        payload = {"token": token}
        payload.update(request.get("query") or {})

        for verb, pattern, handler_name in _ROUTES:
            if verb != method:
                continue
            match = pattern.match(path)
            if match is None:
                continue
            payload.update(match.groupdict())
            if handler_name == "submit":
                payload["manifest"] = request.get("body")
            handler = getattr(self.api_service, f"_on_{handler_name}")
            try:
                body = yield from handler(payload)
            except DlaasError as exc:
                return self._error_response(exc)
            created = handler_name == "submit"
            return {"status": 201 if created else 200, "body": body}
        return {"status": 404, "body": {"error": f"no route {method} {path}"}}

    @staticmethod
    def _bearer_token(headers):
        value = headers.get("Authorization", "")
        if value.startswith("Bearer "):
            return value[len("Bearer "):]
        return value or None

    @staticmethod
    def _error_response(exc):
        for exc_type, code in _STATUS_FOR:
            if isinstance(exc, exc_type):
                return {"status": code, "body": {"error": str(exc)}}
        return {"status": 500, "body": {"error": str(exc)}}


class RestClient:
    """An HTTP-ish client for the REST surface (curl stand-in).

    All methods are process generators returning the full
    ``{"status", "body"}`` response; no retries — REST users see raw
    availability, which is itself useful in dependability tests.
    """

    def __init__(self, platform, token):
        self.platform = platform
        self.kernel = platform.kernel
        self.token = token

    def request(self, method, path, body=None, query=None):
        endpoints = self.platform.api_balancer.pick_order()
        if not endpoints:
            return {"status": 503, "body": {"error": "no API endpoints"}}
        http_request = {
            "method": method,
            "path": path,
            "headers": {"Authorization": f"Bearer {self.token}"},
            "body": body,
            "query": query,
        }
        from ..grpcnet.errors import RpcError

        try:
            response = yield self.platform.network.call(
                endpoints[0], "http", http_request, deadline=5.0,
                caller=f"rest-{self.token}",
            )
        except RpcError as exc:
            return {"status": 503, "body": {"error": repr(exc)}}
        return response

    def post(self, path, body):
        return self.request("POST", path, body=body)

    def get(self, path, query=None):
        return self.request("GET", path, query=query)

    def delete(self, path):
        return self.request("DELETE", path)
