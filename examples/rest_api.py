#!/usr/bin/env python3
"""The REST surface end to end: submit, watch, halt, read logs.

The paper's API "exposes both a RESTful API as well as a GRPC API
endpoint" (§III.c). This example drives the REST one with
`RestClient`, the curl stand-in: it submits a training job with
`POST /v1/models`, polls `GET /v1/models/<id>` until the job is
PROCESSING, halts it with `DELETE` and polls until HALTED, then reads
the job's logs. It also scrapes the operational endpoints
(`GET /metrics`, `GET /healthz`) and shows the error codes a forged
token (401), an unknown path (404) and a manifest with a field the
platform does not have (400) get.

Run:  python examples/rest_api.py
"""

from repro import DlaasPlatform
from repro.core import PlatformConfig, RestClient

CREDENTIALS = {"access_key": "AK", "secret": "SK"}


def poll_until(platform, rest, job_id, wanted, interval=2.0):
    """GET the job until its status is ``wanted``; prints each change."""
    last = None
    while True:
        response = yield from rest.get(f"/v1/models/{job_id}")
        status = response["body"]["status"]
        if status != last:
            print(f"  t={platform.kernel.now:7.1f}s  GET -> "
                  f"{response['status']} {status}")
            last = status
        if status == wanted:
            return response
        yield platform.kernel.sleep(interval)


def main():
    platform = DlaasPlatform(
        seed=7,
        config=PlatformConfig(gpu_nodes=1, gpus_per_node=2, gpu_type="k80"),
    ).start()
    platform.seed_training_data("train", CREDENTIALS, size_mb=200)
    platform.ensure_results_bucket("out", CREDENTIALS)
    rest = RestClient(platform, platform.tokens.create_tenant("rest-team"))
    manifest = {
        "name": "rest-demo",
        "framework": "tensorflow",
        "model": "resnet50",
        "learners": 1,
        "gpus_per_learner": 1,
        "gpu_type": "k80",
        "target_steps": 5000,
        "checkpoint_interval": 60.0,
        "dataset_size_mb": 200,
        "data": {"bucket": "train", "credentials": CREDENTIALS},
        "results": {"bucket": "out", "credentials": CREDENTIALS},
    }

    def scenario():
        response = yield from rest.post("/v1/models", manifest)
        job_id = response["body"]["job_id"]
        print(f"POST /v1/models -> {response['status']} {job_id}")
        yield from poll_until(platform, rest, job_id, "PROCESSING")

        response = yield from rest.delete(f"/v1/models/{job_id}")
        print(f"DELETE /v1/models/{job_id} -> {response['status']} "
              f"{response['body']}")
        final = yield from poll_until(platform, rest, job_id, "HALTED")
        print("status history (simulated seconds):")
        for entry in final["body"]["status_history"]:
            print(f"  {entry['time']:9.1f}s  {entry['status']}")

        logs = yield from rest.get(f"/v1/models/{job_id}/logs",
                                   query={"tail": 3})
        print(f"GET /v1/models/{job_id}/logs -> {logs['status']}")
        for line in logs["body"]["lines"]:
            print(f"  {line}")

        metrics = yield from rest.get("/metrics")
        samples = [line for line in metrics["body"].splitlines()
                   if line and not line.startswith("#")]
        print(f"GET /metrics -> {metrics['status']}, {len(samples)} samples")
        health = yield from rest.get("/healthz")
        print(f"GET /healthz -> {health['status']} "
              f"{health['body']['status']}")

        forged = RestClient(platform, "forged-token")
        denied = yield from forged.get(f"/v1/models/{job_id}")
        print(f"GET with a forged token -> {denied['status']} "
              f"{denied['body']['error']}")
        missing = yield from rest.get("/v1/nowhere")
        print(f"GET /v1/nowhere -> {missing['status']} "
              f"{missing['body']['error']}")
        # Faults come from the operator, never from a tenant's manifest.
        stale = dict(manifest, extra={"fail_at_step": 10})
        rejected = yield from rest.post("/v1/models", stale)
        print(f"POST with an unknown field -> {rejected['status']} "
              f"{rejected['body']['error']}")
        return denied["status"], missing["status"], rejected["status"]

    codes = platform.run_process(scenario(), limit=10_000)
    assert codes == (401, 404, 400), codes


if __name__ == "__main__":
    main()
