"""Unit tests for the job timeline tool."""

from repro.cluster.apiserver import ApiServer
from repro.core import job_timeline, render_timeline
from repro.sim import Kernel, Tracer


class FakePlatform:
    """Just enough platform surface for timeline assembly: the tracer
    that every row but the status rows comes from."""

    def __init__(self, tracer):
        self.tracer = tracer


def make_platform():
    kernel = Kernel()
    return FakePlatform(Tracer(kernel)), kernel


class TestJobTimeline:
    def test_merges_sources_in_time_order(self):
        platform, kernel = make_platform()
        api = ApiServer(kernel, platform.tracer)
        platform.tracer.emit("guardian", "component-ready", job="job-1")

        def later():
            yield kernel.sleep(2.0)
            api.record_event("Pod", "job-1-learner-0", "Scheduled", "gpu-0")
            yield kernel.sleep(3.0)
            platform.tracer.emit("learner-0", "learner-exit", job="job-1",
                                 exit_code=0)

        kernel.spawn(later())
        kernel.run()
        doc = {"status_history": [{"status": "QUEUED", "time": 0.5}]}

        entries = job_timeline(platform, "job-1", status_doc=doc)
        times = [t for t, _s, _x in entries]
        assert times == sorted(times)
        sources = [s for _t, s, _x in entries]
        # guardian fired at t=0, status recorded at t=0.5.
        assert sources == ["guardian", "status", "k8s:pod", "learner-0"]

    def test_k8s_rows_keep_their_text_and_follow_trace_rows_at_a_tie(self):
        # A Kubernetes event is an API-server trace record; its row reads
        # "<reason> <name> (<message>)" and, at an equal time, comes
        # after the status and other trace rows even when recorded first.
        platform, kernel = make_platform()
        api = ApiServer(kernel, platform.tracer)
        api.record_event("Pod", "job-1-learner-0", "Scheduled",
                         "bound to gpu-0")
        platform.tracer.emit("guardian", "component-ready", job="job-1")
        api.record_event("Job", "guardian-job-1", "Completed")
        api.record_event("Pod", "lhelper", "Killing", "job-1 torn down")
        api.record_event("Pod", "job-2-learner-0", "Scheduled", "gpu-1")
        doc = {"status_history": [{"status": "QUEUED", "time": 0.0}]}

        entries = job_timeline(platform, "job-1", status_doc=doc)
        assert entries == [
            (0.0, "status", "QUEUED"),
            (0.0, "guardian", "component-ready"),
            (0.0, "k8s:pod", "Scheduled job-1-learner-0 (bound to gpu-0)"),
            (0.0, "k8s:job", "Completed guardian-job-1"),
            (0.0, "k8s:pod", "Killing lhelper (job-1 torn down)"),
        ]
        assert render_timeline(entries).splitlines() == [
            "     0.00s  status    QUEUED",
            "     0.00s  guardian  component-ready",
            "     0.00s  k8s:pod   Scheduled job-1-learner-0 (bound to gpu-0)",
            "     0.00s  k8s:job   Completed guardian-job-1",
            "     0.00s  k8s:pod   Killing lhelper (job-1 torn down)",
        ]

    def test_other_jobs_excluded(self):
        platform, _kernel = make_platform()
        platform.tracer.emit("guardian", "component-ready", job="job-1")
        platform.tracer.emit("guardian", "component-ready", job="job-2")
        entries = job_timeline(platform, "job-1")
        assert len(entries) == 1

    def test_render_elides_middle(self):
        platform, _kernel = make_platform()
        for i in range(40):
            platform.tracer.emit("c", "event", job="j", n=i)
        text = render_timeline(job_timeline(platform, "j"), limit=10)
        assert "elided" in text
        assert text.count("\n") <= 12

    def test_elision_keeps_exact_head_and_tail(self):
        entries = [(float(i), "c", f"event-{i}") for i in range(20)]
        lines = render_timeline(entries, limit=7).splitlines()
        # limit=7 -> first 3, one marker, last 4; 13 entries elided.
        assert len(lines) == 8
        shown = [line.split()[-1] for line in lines]
        assert shown[:3] == ["event-0", "event-1", "event-2"]
        assert shown[4:] == ["event-16", "event-17", "event-18", "event-19"]
        assert "... 13 events elided ..." in lines[3]

    def test_elision_limit_zero_shows_only_marker(self):
        entries = [(float(i), "c", f"event-{i}") for i in range(5)]
        lines = render_timeline(entries, limit=0).splitlines()
        assert lines == [f"{'':>10}  ... 5 events elided ..."]

    def test_no_elision_at_or_under_limit(self):
        entries = [(float(i), "c", f"event-{i}") for i in range(5)]
        assert "elided" not in render_timeline(entries, limit=5)
        assert "elided" not in render_timeline(entries)
        assert len(render_timeline(entries, limit=5).splitlines()) == 5

    def test_render_plain(self):
        platform, _kernel = make_platform()
        platform.tracer.emit("api", "component-ready", job="j")
        text = render_timeline(job_timeline(platform, "j"))
        assert "component-ready" in text
        assert "0.00s" in text
