"""Unit tests for causal spans: creation, propagation, analysis."""

import pytest

from repro.sim import (
    Kernel,
    SpanContext,
    Tracer,
    extract_context,
    inject_context,
    render_critical_path,
    render_span_tree,
)


@pytest.fixture
def kernel():
    return Kernel(seed=1)


@pytest.fixture
def tracer(kernel):
    return Tracer(kernel)


class TestSpanLifecycle:
    def test_root_span_starts_fresh_trace(self, tracer):
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        assert a.trace_id != b.trace_id
        assert a.parent_id is None

    def test_child_spans_share_trace(self, tracer):
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        grandchild = tracer.start_span("grandchild", parent=child.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.trace_id == root.trace_id
        assert grandchild.parent_id == child.span_id

    def test_end_is_idempotent(self, kernel, tracer):
        span = tracer.start_span("s")

        def proc():
            yield kernel.sleep(2.0)
            span.end("ok")
            yield kernel.sleep(2.0)
            span.end("error")  # ignored: first end wins

        kernel.spawn(proc())
        kernel.run()
        assert span.end_time == 2.0
        assert span.status == "ok"
        assert span.duration() == 2.0

    def test_open_span_duration_tracks_clock(self, kernel, tracer):
        span = tracer.start_span("s")

        def proc():
            yield kernel.sleep(5.0)

        kernel.spawn(proc())
        kernel.run()
        assert not span.ended
        assert span.duration() == 5.0

    def test_attributes(self, tracer):
        span = tracer.start_span("s", component="api", job="j-1")
        span.set_attribute("code", 200)
        assert span.attributes == {"job": "j-1", "code": 200}
        assert tracer.find_spans(job="j-1") == [span]


class TestContextPropagation:
    def test_inject_extract_roundtrip(self, tracer):
        span = tracer.start_span("s")
        request = {"job_id": "j-1"}
        carried = inject_context(request, span.context)
        assert "__trace_ctx__" not in request  # original untouched
        assert extract_context(carried) == span.context

    def test_inject_none_passthrough(self):
        request = {"a": 1}
        assert inject_context(request, None) is request
        assert extract_context({"a": 1}) is None
        assert extract_context("not-a-dict") is None

    def test_wire_form_survives_serialization(self):
        ctx = SpanContext(7, 13)
        assert SpanContext.from_wire(ctx.to_wire()) == ctx
        assert SpanContext.from_wire(None) is None

    def test_bindings(self, tracer):
        span = tracer.start_span("s")
        tracer.bind(("job", "j-1"), span.context)
        assert tracer.context_of(("job", "j-1")) == span.context
        tracer.unbind(("job", "j-1"))
        assert tracer.context_of(("job", "j-1")) is None
        tracer.bind(("job", "j-2"), None)  # no-op
        assert tracer.context_of(("job", "j-2")) is None


class TestSpanAnalysis:
    def build_trace(self, kernel, tracer):
        """root(0..10) -> deploy(1..3), monitor(3..10) -> train(4..9)."""
        spans = {}

        def proc():
            spans["root"] = tracer.start_span("root")
            yield kernel.sleep(1.0)
            spans["deploy"] = tracer.start_span("deploy", parent=spans["root"])
            yield kernel.sleep(2.0)
            spans["deploy"].end()
            spans["monitor"] = tracer.start_span("monitor", parent=spans["root"])
            yield kernel.sleep(1.0)
            spans["train"] = tracer.start_span("train", parent=spans["monitor"])
            yield kernel.sleep(5.0)
            spans["train"].end()
            yield kernel.sleep(1.0)
            spans["monitor"].end()
            spans["root"].end()

        kernel.spawn(proc())
        kernel.run()
        return spans

    def test_span_tree(self, kernel, tracer):
        spans = self.build_trace(kernel, tracer)
        roots, children = tracer.span_tree(spans["root"].trace_id)
        assert roots == [spans["root"]]
        assert children[spans["root"].span_id] == [spans["deploy"],
                                                   spans["monitor"]]
        assert children[spans["monitor"].span_id] == [spans["train"]]

    def test_orphan_spans_become_roots(self, tracer):
        orphan = tracer.start_span("child-of-missing",
                                   parent=SpanContext(42, 999))
        roots, _children = tracer.span_tree(42)
        assert roots == [orphan]

    def test_critical_path_attribution(self, kernel, tracer):
        spans = self.build_trace(kernel, tracer)
        steps = tracer.critical_path(spans["root"].trace_id)
        names = [step["span"].name for step in steps]
        assert names == ["root", "monitor", "train"]
        by_name = {step["span"].name: step["self_seconds"] for step in steps}
        # root: 3s before monitor starts (+0 tail); monitor: 1s before
        # train + 1s after; train: its full 5s.
        assert by_name["root"] == pytest.approx(3.0)
        assert by_name["monitor"] == pytest.approx(2.0)
        assert by_name["train"] == pytest.approx(5.0)
        total = sum(by_name.values())
        assert total == pytest.approx(spans["root"].duration())

    def test_critical_path_empty_trace(self, tracer):
        assert tracer.critical_path(123) == []

    def test_renderers(self, kernel, tracer):
        spans = self.build_trace(kernel, tracer)
        trace_id = spans["root"].trace_id
        tree_text = render_span_tree(tracer, trace_id)
        lines = tree_text.splitlines()
        assert len(lines) == 4
        assert "root" in lines[0]
        # Children render indented under their parents.
        assert lines[1].index("deploy") > lines[0].index("root")
        path_text = render_critical_path(tracer, trace_id)
        assert "critical path" in path_text
        assert "train" in path_text
        assert render_critical_path(tracer, 999) == "no spans in trace"

    def test_trace_ids_and_order(self, kernel, tracer):
        spans = self.build_trace(kernel, tracer)
        trace_id = spans["root"].trace_id
        assert trace_id in {span.trace_id for span in tracer.spans}
        ordered = tracer.trace_of(trace_id)
        assert [s.name for s in ordered] == ["root", "deploy", "monitor",
                                             "train"]
