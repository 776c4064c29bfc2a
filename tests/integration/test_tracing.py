"""End-to-end causal tracing and the REST metrics endpoint.

The PR 3 acceptance scenario: one submitted job yields a single
connected span tree rooted at the API request, covering API -> LCM ->
Guardian -> controller -> learner; the critical path attributes its
latency; and the REST gateway serves the Prometheus exposition.
"""

from repro.core import ComponentCrasher
from repro.core.rest import RestClient
from repro.sim import render_critical_path, render_span_tree

from .conftest import manifest, wait_terminal


def run_one_job(platform, client):
    job_id, doc = platform.run_process(
        client.run_to_completion(manifest()), limit=50_000)
    # COMPLETED is written before the Guardian tears down; run on so
    # the teardown/monitor spans close and the trace is complete.
    platform.run_for(30.0)
    return job_id, doc


class TestJobTrace:
    def test_single_connected_span_tree(self, platform, client):
        job_id, doc = run_one_job(platform, client)
        assert doc["status"] == "COMPLETED"
        tracer = platform.tracer

        roots = tracer.find_spans(name="api.submit", job=job_id)
        assert len(roots) == 1
        trace_id = roots[0].trace_id

        # Every pipeline stage contributed a span to the *same* trace.
        for name, component in (("api.submit", "api"),
                                ("lcm.deploy_job", "lcm"),
                                ("guardian.run", "guardian"),
                                ("guardian.deploy", "guardian"),
                                ("guardian.monitor", "guardian"),
                                ("guardian.teardown", "guardian"),
                                ("controller.run", "controller"),
                                ("learner.run", "learner-0")):
            spans = tracer.find_spans(name=name, component=component,
                                      trace_id=trace_id)
            assert spans, f"missing span {name} [{component}]"
            assert all(s.ended for s in spans)

        # Connected: exactly one root; no span dangles off the tree.
        tree_roots, children = tracer.span_tree(trace_id)
        assert tree_roots == roots
        reachable = set()
        frontier = [roots[0]]
        while frontier:
            span = frontier.pop()
            reachable.add(span.span_id)
            frontier.extend(children.get(span.span_id, ()))
        assert reachable == {s.span_id for s in tracer.trace_of(trace_id)}

    def test_critical_path_covers_end_to_end_latency(self, platform, client):
        job_id, _doc = run_one_job(platform, client)
        tracer = platform.tracer
        root = tracer.find_spans(name="api.submit", job=job_id)[0]
        steps = tracer.critical_path(root.trace_id)
        assert steps[0]["span"] is root
        # Self times cover (nearly all of) the interval from submission
        # to the last span's end; small gaps remain where a stage hands
        # off asynchronously (LCM's reply returns before the Guardian
        # pod starts).
        last_end = max(s.end_time for s in tracer.trace_of(root.trace_id))
        elapsed = last_end - root.start
        total = sum(step["self_seconds"] for step in steps)
        assert 0.9 * elapsed < total < 1.01 * elapsed
        # Training dominates a healthy run, so the monitor stage (which
        # contains it) should carry most of the latency.
        by_name = {step["span"].name: step["self_seconds"] for step in steps}
        assert max(by_name, key=by_name.get) in ("guardian.monitor",
                                                 "controller.run",
                                                 "learner.run")

    def test_report_renders(self, platform, client):
        job_id, _doc = run_one_job(platform, client)
        tracer = platform.tracer
        trace_id = tracer.find_spans(name="api.submit", job=job_id)[0].trace_id
        tree = render_span_tree(tracer, trace_id)
        assert "api.submit" in tree and "learner.run" in tree
        path = render_critical_path(tracer, trace_id)
        assert path.startswith("critical path")

    def test_span_tracing_can_be_disabled(self):
        from .conftest import make_platform

        platform = make_platform(span_tracing=False)
        client = platform.client("team-a")
        _job_id, doc = run_one_job(platform, client)
        assert doc["status"] == "COMPLETED"
        assert platform.tracer.spans == []

    def test_halted_job_trace_records_error_status(self, platform, client):
        from .conftest import submit_and_wait_running

        job_id = submit_and_wait_running(platform, client,
                                         manifest(target_steps=5000))
        platform.run_process(client.halt(job_id), limit=10_000)
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "HALTED"
        platform.run_for(30.0)  # let teardown finish
        guardian = platform.tracer.find_spans(name="guardian.run", job=job_id)
        assert guardian and guardian[0].ended

    def test_bindings_released_once_the_job_is_torn_down(self, platform,
                                                         client):
        tracer = platform.tracer
        before = len(tracer._bindings)
        job_id, _doc = run_one_job(platform, client)
        assert len(tracer._bindings) == before
        for stage in ("job", "job-deploy", "job-run"):
            assert tracer.context_of((stage, job_id)) is None

    def test_bindings_survive_a_guardian_crash(self, platform, client):
        from .conftest import submit_and_wait_running

        tracer = platform.tracer
        before = len(tracer._bindings)
        job_id = submit_and_wait_running(platform, client,
                                         manifest(target_steps=400))
        ComponentCrasher(platform).crash_guardian(job_id)
        platform.run_for(10.0)
        # The restarted Guardian found its parent: both incarnations
        # hang off the submit request's trace.
        root = tracer.find_spans(name="api.submit", job=job_id)[0]
        runs = tracer.find_spans(name="guardian.run", job=job_id)
        assert len(runs) == 2
        assert {span.trace_id for span in runs} == {root.trace_id}
        assert tracer.context_of(("job-run", job_id)) == runs[1].context
        wait_terminal(platform, client, job_id)
        platform.run_for(30.0)
        assert len(tracer._bindings) == before


class TestRestMetricsEndpoint:
    def test_exposition_served_unauthenticated(self, platform, client):
        run_one_job(platform, client)
        rest = RestClient(platform, token="")  # no auth needed for scrape
        response = platform.run_process(rest.get("/metrics"), limit=10_000)
        assert response["status"] == 200
        body = response["body"]
        assert isinstance(body, str)
        # Labeled series from all three instrumented layers are present.
        lines = body.splitlines()
        for prefix in ("workqueue_depth{", "workqueue_adds_total{",
                       "workqueue_queue_duration_seconds_bucket{",
                       "workqueue_work_duration_seconds_bucket{",
                       "raft_leader_elections_total{",
                       "raft_commit_duration_seconds_count{",
                       "rpc_client_calls_total{",
                       "rpc_client_duration_seconds_sum{",
                       "scheduler_placement_latency_seconds_count",
                       "nfs_ops_total{", "objectstore_transfer_duration"):
            assert any(line.startswith(prefix) for line in lines), prefix
        assert "# TYPE workqueue_depth gauge" in lines
        assert "# TYPE rpc_client_calls_total counter" in lines

    def test_non_metric_routes_still_work(self, platform, client):
        rest = RestClient(platform, token="")
        response = platform.run_process(rest.get("/nope"), limit=10_000)
        assert response["status"] == 404
