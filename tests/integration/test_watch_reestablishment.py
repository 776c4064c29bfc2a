"""Watch re-establishment under crashes (the reconciler runtime's
crash-recovery contract): a watch broken by a server or client crash is
re-registered with a full relist, so the control plane converges on the
same final state it would have reached with no crash at all."""

from repro.core import Fault, fire, layout
from repro.raftkv import EtcdClient
from repro.sim import Reconciler

from .conftest import manifest, submit_and_wait_running, wait_terminal


def watchers_of(api, kind):
    """Live watch registrations of one kind, kind-wide and owner-scoped."""
    return sum(len(channels) for channels in api._watchers.get(kind, {}).values())


class TestEtcdWatchReestablishment:
    def test_job_converges_after_watch_serving_node_crash(self, platform, client):
        # The Guardian's etcd watch is served from the first live node;
        # crashing that node closes the watch channel mid-job. The
        # reconciler must re-register on a surviving member and relist
        # (via its static key), not miss the terminal transition.
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=120))
        fire(platform, Fault("etcd-member", platform.etcd.node_ids[0]))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"
        statuses = [h["status"] for h in doc["status_history"]]
        assert statuses[-1] == "COMPLETED"

    def test_rewatch_is_traced(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=400))
        fire(platform, Fault("etcd-member", platform.etcd.node_ids[0]))
        wait_terminal(platform, client, job_id)
        rewatches = platform.tracer.query(
            component=f"reconciler:guardian:{job_id}", kind="watch-lost"
        )
        assert rewatches, "guardian never re-established its etcd watch"

    def test_halt_detected_through_reestablished_watch(self, platform, client):
        # Crash the watch-serving node, then halt: the signal arrives
        # only through the *re-registered* watch (or its resync).
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=5000))
        fire(platform, Fault("etcd-member", platform.etcd.node_ids[0]))
        platform.run_for(3.0)

        def halt():
            yield from client.halt(job_id)

        platform.run_process(halt(), limit=600)
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "HALTED"


    def test_put_during_the_rewatch_gap_is_read_at_rewatch(self, platform):
        # The Guardian's arrangement in miniature, without its resync:
        # one static key, a watch with no listing of its own. The
        # serving node dies and a status lands while no watch stands;
        # the pass at re-establishment reads it.
        kernel = platform.kernel
        etcd = EtcdClient(kernel, platform.network, platform.etcd,
                          client_id="rewatch-test")
        seen = []

        def reconcile(_key):
            value = yield from etcd.get("jobs/j/learners/learner-0/status")
            seen.append((kernel.now, value))

        # Served by a follower, so that its crash costs no election.
        leader = platform.etcd.leader().node_id
        serving = next(n for n in platform.etcd.node_ids if n != leader)
        reconciler = Reconciler(kernel, "rewatch-test", reconcile,
                                tracer=platform.tracer,
                                metrics=platform.metrics)
        reconciler.add_static_key("status")

        def subscribe():
            node = platform.etcd.node(serving)
            return node.watch("jobs/j/") if node.alive else etcd.watch("jobs/j/")

        reconciler.watch_channel("etcd", subscribe=subscribe,
                                 keys_of=lambda event: ["status"])
        reconciler.start()
        platform.run_for(1.0)
        fire(platform, Fault("etcd-member", serving))
        crashed = kernel.now
        platform.run_for(0.05)
        platform.run_process(
            etcd.put("jobs/j/learners/learner-0/status", "FAILED"), limit=60)
        assert kernel.now < crashed + 0.2  # still inside the gap
        del seen[:]
        platform.run_for(1.0)
        reconciler.stop()
        assert seen and seen[0][1] == "FAILED"
        assert seen[0][0] <= crashed + 0.2 + 0.1


class TestApiServerWatchHygiene:
    def test_lcm_crash_does_not_leak_job_watches(self, platform, client):
        api = platform.k8s.api
        submit_and_wait_running(platform, client, manifest(target_steps=400))
        before = watchers_of(api, "Job")
        assert before >= 1  # the LCM GC reconciler is watching
        fire(platform, Fault("lcm"))
        platform.run_for(20.0)  # restart: old watch cancelled, new one up
        assert watchers_of(api, "Job") == before

    def test_gc_still_collects_after_lcm_restart(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=120))
        fire(platform, Fault("lcm"))
        wait_terminal(platform, client, job_id)
        platform.run_for(30.0)  # LCM back up; GC relist collects the Job
        assert not platform.k8s.api.exists("Job", layout.guardian_job_name(job_id))

    def test_guardian_waits_leave_no_watches_behind(self, platform, client):
        api = platform.k8s.api
        baseline = api.watcher_count()
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=120))
        wait_terminal(platform, client, job_id)
        platform.run_for(30.0)
        # Guardian rollback/teardown waits and its reconciler are gone.
        assert api.watcher_count() == baseline
