"""LCM partition crash-failover: lease expiry and slice adoption.

With ``lcm_slices > 0`` each LCM replica claims a lease-guarded slice
of the job-id space. Killing a replica mid-flight must:

* expire its slice leases (no operator involvement),
* have a surviving replica adopt the orphaned slices (``SliceAdopted``),
* complete every in-flight job (reconcile re-drives adopted slices),
* leak zero GPUs once the dust settles.
"""

from repro.core.faults import ComponentCrasher
from repro.core.partitions import SLICE_PREFIX

from .conftest import make_platform, manifest

JOBS = 6


def sharded_platform(**overrides):
    defaults = dict(
        gpu_nodes=3,
        lcm_replicas=2,
        lcm_slices=4,
    )
    defaults.update(overrides)
    return make_platform(**defaults)


class TestPartitionCrashFailover:
    def test_survivor_adopts_and_all_jobs_complete(self):
        platform = sharded_platform()
        client = platform.client("team-a")
        crasher = ComponentCrasher(platform)

        def scenario():
            job_ids = []
            for i in range(JOBS):
                job_ids.append((yield from client.submit(
                    manifest(name=f"fo-{i}", target_steps=120))))
            # Let deployments spread across both partitions, then kill
            # one LCM replica while its slice still has live jobs.
            yield platform.kernel.sleep(8.0)
            crasher.crash_lcm()
            docs = []
            for job_id in job_ids:
                docs.append((yield from client.wait_for_status(
                    job_id, timeout=4000.0)))
            yield platform.kernel.sleep(60.0)  # teardown settles
            return docs

        docs = platform.run_process(scenario(), limit=500_000)

        assert [d["status"] for d in docs] == ["COMPLETED"] * JOBS

        # The orphaned slices were adopted by the survivor, loudly.
        adoptions = platform.events.events(reason="SliceAdopted")
        assert adoptions, "no SliceAdopted event after LCM crash"

        # Zero GPU leakage: everything the crashed partition deployed
        # was torn down by the adopting replica's reconcilers.
        summary = platform.k8s.capacity_summary()
        assert summary["gpus_allocated"] == 0, summary

    def test_all_slices_owned_after_failover(self):
        platform = sharded_platform()
        client = platform.client("team-a")
        crasher = ComponentCrasher(platform)

        def scenario():
            job_id = yield from client.submit(
                manifest(name="fo-single", target_steps=120))
            yield platform.kernel.sleep(8.0)
            crasher.crash_lcm()
            yield from client.wait_for_status(job_id, timeout=4000.0)
            # Give the survivor a few ticks beyond the lease TTL, then
            # read slice ownership straight from etcd.
            yield platform.kernel.sleep(10.0)
            from repro.raftkv import EtcdClient
            kv = EtcdClient(platform.kernel, platform.network, platform.etcd,
                            client_id="test-observer")
            pairs = yield from kv.get_range(SLICE_PREFIX)
            return {key: value for key, value in pairs if value is not None}

        owners = platform.run_process(scenario(), limit=500_000)
        slices = platform.config.lcm_slices
        assert len(owners) == slices, owners
        # Every slice is owned by a single live replica (the replacement
        # pod the Deployment re-created also counts once it registers).
        for owner in owners.values():
            assert owner.startswith("lcm:"), owners
