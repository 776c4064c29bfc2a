"""REST surface tests: routes, status codes, parity with the GRPC path."""

import pytest

from repro.core import RestClient

from .conftest import manifest


def rest_client(platform, tenant="rest-team"):
    token = platform.tokens.create_tenant(tenant)
    return RestClient(platform, token)


class TestRestLifecycle:
    def test_submit_poll_complete(self, platform):
        rest = rest_client(platform)

        def scenario():
            response = yield from rest.post("/v1/models", manifest())
            assert response["status"] == 201
            job_id = response["body"]["job_id"]
            while True:
                response = yield from rest.get(f"/v1/models/{job_id}")
                if response["body"]["status"] in ("COMPLETED", "FAILED", "HALTED"):
                    return job_id, response["body"]
                yield platform.kernel.sleep(5.0)

        job_id, body = platform.run_process(scenario(), limit=50_000)
        assert body["status"] == "COMPLETED"
        assert body["job_id"] == job_id

    def test_list_and_logs_routes(self, platform):
        rest = rest_client(platform)

        def scenario():
            response = yield from rest.post("/v1/models", manifest(target_steps=5000))
            job_id = response["body"]["job_id"]
            listing = yield from rest.get("/v1/models")
            yield platform.kernel.sleep(60.0)
            logs = yield from rest.get(f"/v1/models/{job_id}/logs",
                                       query={"tail": 5})
            return listing, logs

        listing, logs = platform.run_process(scenario(), limit=10_000)
        assert listing["status"] == 200
        assert len(listing["body"]) == 1
        assert logs["status"] == 200
        assert isinstance(logs["body"]["lines"], list)

    def test_delete_halts_job(self, platform):
        rest = rest_client(platform)

        def scenario():
            response = yield from rest.post("/v1/models", manifest(target_steps=5000))
            job_id = response["body"]["job_id"]
            yield platform.kernel.sleep(40.0)
            response = yield from rest.delete(f"/v1/models/{job_id}")
            assert response["status"] == 200
            while True:
                response = yield from rest.get(f"/v1/models/{job_id}")
                if response["body"]["status"] in ("COMPLETED", "FAILED", "HALTED"):
                    return response["body"]["status"]
                yield platform.kernel.sleep(2.0)

        assert platform.run_process(scenario(), limit=10_000) == "HALTED"

    def test_usage_route(self, platform):
        rest = rest_client(platform)

        def scenario():
            yield from rest.get("/v1/models")
            response = yield from rest.get("/v1/usage")
            return response

        response = platform.run_process(scenario(), limit=600)
        assert response["status"] == 200
        assert response["body"]["api_calls_total"] >= 1


class TestRestErrors:
    def test_bad_token_is_401(self, platform):
        rest = RestClient(platform, "forged")

        def scenario():
            return (yield from rest.get("/v1/models"))

        assert platform.run_process(scenario(), limit=600)["status"] == 401

    def test_invalid_manifest_is_400(self, platform):
        rest = rest_client(platform)

        def scenario():
            return (yield from rest.post("/v1/models", {"name": "incomplete"}))

        response = platform.run_process(scenario(), limit=600)
        assert response["status"] == 400
        assert "error" in response["body"]

    def test_unknown_job_is_404(self, platform):
        rest = rest_client(platform)

        def scenario():
            return (yield from rest.get("/v1/models/job-99999"))

        assert platform.run_process(scenario(), limit=600)["status"] == 404

    # Platform events live only in memory, so no route serves them.
    @pytest.mark.parametrize("path", [
        "/v2/nonsense", "/events", "/v1/models/{job_id}/events",
    ], ids=["nonsense", "events", "job-events"])
    def test_unknown_route_is_404(self, platform, path):
        rest = rest_client(platform)

        def scenario():
            response = yield from rest.post("/v1/models", manifest())
            job_id = response["body"]["job_id"]
            return (yield from rest.get(path.format(job_id=job_id)))

        assert platform.run_process(scenario(), limit=600)["status"] == 404

    def test_cross_tenant_access_is_404(self, platform):
        alice = rest_client(platform, "alice")
        bob = rest_client(platform, "bob")

        def scenario():
            response = yield from alice.post("/v1/models", manifest())
            job_id = response["body"]["job_id"]
            return (yield from bob.get(f"/v1/models/{job_id}"))

        assert platform.run_process(scenario(), limit=600)["status"] == 404
