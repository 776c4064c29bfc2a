"""Property-based tests: scheduler invariants, filesystem model,
performance-model monotonicity, job-status aggregation."""

from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ContainerSpec,
    Pod,
    PodSpec,
    RESTART_NEVER,
)
from repro.core import (
    COMPLETED,
    DOWNLOADING,
    FAILED,
    HALTED,
    PROCESSING,
    STORING,
    aggregate_job_status,
)
from repro.core.states import STALLED
from repro.frameworks import (
    BARE_METAL,
    DLAAS,
    K80,
    PCIE3,
    TENSORFLOW,
    WorkloadConfig,
    get_model,
    images_per_sec,
    step_time,
)
from repro.nfs import SharedFilesystem
from repro.sim import Kernel

from ..observers import kubernetes


class TestSchedulerProperties:
    @settings(max_examples=25)
    @given(
        node_gpus=st.lists(st.integers(0, 8), min_size=1, max_size=4),
        pod_gpus=st.lists(st.integers(0, 8), min_size=0, max_size=10),
    )
    def test_allocations_never_exceed_capacity(self, node_gpus, pod_gpus):
        kernel = Kernel(seed=1)
        cluster = kubernetes(kernel)
        cluster.registry.register("img", 10)
        for i, gpus in enumerate(node_gpus):
            cluster.add_node(f"n{i}", gpus=gpus, gpu_type="k80")
        for i, gpus in enumerate(pod_gpus):
            spec = PodSpec(
                containers=[ContainerSpec("c", "img", gpus=gpus)],
                restart_policy=RESTART_NEVER,
                gpu_type="k80" if gpus else None,
            )
            cluster.api.create(Pod(f"p{i}", spec))
        cluster.scheduler.schedule_once()
        for node in cluster.api.list("Node"):
            assert 0 <= node.allocated_gpus <= node.capacity.gpus
        # Every bound pod's node could actually fit it at bind time.
        bound = [p for p in cluster.api.list("Pod") if p.node_name is not None]
        total_bound = sum(p.spec.total_gpus for p in bound)
        total_alloc = sum(n.allocated_gpus
                          for n in cluster.api.list("Node"))
        assert total_bound == total_alloc

    @settings(max_examples=25)
    @given(pod_gpus=st.lists(st.integers(1, 4), min_size=1, max_size=8))
    def test_scheduling_is_work_conserving(self, pod_gpus):
        # If any node could fit a pending pod, the pod must be bound.
        kernel = Kernel(seed=1)
        cluster = kubernetes(kernel)
        cluster.registry.register("img", 10)
        cluster.add_node("n0", gpus=8, gpu_type="k80")
        for i, gpus in enumerate(pod_gpus):
            spec = PodSpec(
                containers=[ContainerSpec("c", "img", gpus=gpus)],
                restart_policy=RESTART_NEVER, gpu_type="k80",
            )
            cluster.api.create(Pod(f"p{i}", spec))
        cluster.scheduler.schedule_once()
        node = cluster.api.list("Node")[0]
        pending = [p for p in cluster.api.list("Pod") if p.node_name is None]
        for pod in pending:
            assert pod.spec.total_gpus > node.free_gpus


fs_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "append"]),
        st.sampled_from(["/a", "/b", "/d/x", "/d/y"]),
        st.text(alphabet="xyz\n", max_size=5),
    ),
    max_size=25,
)


class TestFilesystemModel:
    @settings(max_examples=40)
    @given(fs_ops)
    def test_matches_dict_model(self, ops):
        fs = SharedFilesystem()
        model = {}
        for op, path, payload in ops:
            if op == "write":
                fs.write_file(path, payload)
                model[path] = payload
            else:
                fs.write_file(path, payload, append=True)
                model[path] = model.get(path, "") + payload
        for path, content in model.items():
            assert fs.read_file(path) == content
        for path in ("/a", "/b", "/d/x", "/d/y"):
            assert fs.exists(path) == (path in model)


class TestPerfModelProperties:
    model_names = st.sampled_from(["vgg16", "resnet50", "inceptionv3"])

    @given(model_names, st.integers(1, 4))
    def test_dlaas_never_faster_than_bare_metal(self, model_name, gpus):
        config = WorkloadConfig(model=get_model(model_name), framework=TENSORFLOW,
                                gpu=K80, gpus_per_learner=gpus, intra_node=PCIE3)
        assert images_per_sec(config, DLAAS) < images_per_sec(config, BARE_METAL)

    @given(model_names, st.integers(1, 3))
    def test_more_gpus_more_throughput(self, model_name, gpus):
        model = get_model(model_name)
        small = WorkloadConfig(model=model, framework=TENSORFLOW, gpu=K80,
                               gpus_per_learner=gpus, intra_node=PCIE3)
        large = WorkloadConfig(model=model, framework=TENSORFLOW, gpu=K80,
                               gpus_per_learner=gpus + 1, intra_node=PCIE3)
        assert images_per_sec(large, BARE_METAL) > images_per_sec(small, BARE_METAL)

    @given(model_names, st.integers(8, 128))
    def test_step_time_positive_and_finite(self, model_name, batch):
        config = WorkloadConfig(model=get_model(model_name), framework=TENSORFLOW,
                                gpu=K80, batch_per_gpu=batch)
        seconds = step_time(config, DLAAS)
        assert 0 < seconds < 3600


class TestAggregationProperties:
    """The rule the Guardian runs (``aggregate_job_status``) over any
    reports a job's controller can publish, in any order."""

    learner_reports = st.lists(
        st.one_of(
            st.builds(lambda status: {"status": status}, st.sampled_from(
                [DOWNLOADING, PROCESSING, STALLED, COMPLETED, FAILED, HALTED])),
            st.sampled_from([None, "garbage"]),  # not a report: ignored
        ),
        max_size=8)

    @given(learner_reports, st.booleans())
    def test_failed_dominates(self, reports, store_done):
        assert aggregate_job_status(reports + [{"status": FAILED}],
                                    store_done) == FAILED

    @given(learner_reports, st.booleans(), st.randoms(use_true_random=False))
    def test_aggregate_is_order_insensitive(self, reports, store_done, rng):
        shuffled = list(reports)
        rng.shuffle(shuffled)
        assert aggregate_job_status(shuffled, store_done) == \
            aggregate_job_status(reports, store_done)

    @given(learner_reports, st.booleans())
    def test_stalled_counts_as_processing(self, reports, store_done):
        as_processing = [
            {"status": PROCESSING}
            if isinstance(r, dict) and r["status"] == STALLED else r
            for r in reports]
        assert aggregate_job_status(reports, store_done) == \
            aggregate_job_status(as_processing, store_done)

    @given(learner_reports)
    def test_store_done_completes_unless_a_learner_failed(self, reports):
        failed = any(isinstance(r, dict) and r["status"] == FAILED
                     for r in reports)
        assert aggregate_job_status(reports, store_done=True) == \
            (FAILED if failed else COMPLETED)

    @given(st.integers(1, 8))
    def test_all_completed_is_storing(self, learners):
        assert aggregate_job_status([{"status": COMPLETED}] * learners,
                                    store_done=False) == STORING
