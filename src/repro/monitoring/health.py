"""Health probes: every service answers ``healthz()``.

Each probe is a *pure, synchronous* check over platform state — load
balancer endpoint counts, Raft liveness/quorum, Mongo membership, NFS
availability, pod-group strength. Probes never issue RPCs, so probing
(at scrape time or on a REST ``GET /healthz``) cannot perturb the
simulated timeline.

A probe returns ``None`` ("no data yet") or a dict with:

* ``live``  — the component is present at all;
* ``ready`` — the component is at full declared strength;
* ``detail`` — human-readable summary for ``/healthz``.

The scraper turns probe results into ``up{component=...}`` samples
(1.0 iff live *and* ready, so a degraded replica set dips the series),
and the REST gateway aggregates them at ``GET /healthz``.

Pod-group probes (guardian/helper/learner) carry an *ever-ready
latch*: an owner (K8S Job / Deployment / StatefulSet) only counts
toward health once it has first reached full Running strength.
Without the latch every job deployment would masquerade as an outage
while its pods boot.
"""

from ..cluster.resources.pod import RUNNING, SUCCEEDED


class Probe:
    """A named health check wrapping a plain callable."""

    def __init__(self, name, check, core=True, latch=False):
        self.name = name
        self._check = check
        # Core probes gate the aggregate /healthz status; per-job pod
        # groups degrade a job, not the platform.
        self.core = core
        self._latch = latch
        self._seen_ready = False

    def check(self):
        result = self._check()
        if result is None:
            return None
        if self._latch:
            if result["ready"]:
                self._seen_ready = True
            elif not self._seen_ready:
                return None  # still booting; don't report a false outage
        return result


class HealthRegistry:
    """All registered probes; the aggregation point for /healthz."""

    def __init__(self):
        self._probes = {}

    def register(self, name, check, latch=False):
        """A core probe around ``check``; see :meth:`register_probe`."""
        return self.register_probe(Probe(name, check, latch=latch))

    def register_probe(self, probe):
        if probe.name in self._probes:
            raise ValueError(f"probe {probe.name!r} already registered")
        self._probes[probe.name] = probe
        return probe

    def probe_names(self):
        return list(self._probes)

    def check(self, name):
        return self._probes[name].check()

    def snapshot(self):
        """The ``GET /healthz`` body: per-component status + rollup."""
        components = {}
        ok = True
        for name, probe in self._probes.items():
            result = probe.check()
            if result is None:
                components[name] = {"status": "unknown"}
                continue
            live, ready = result["live"], result["ready"]
            status = "ok" if live and ready else ("degraded" if live else "down")
            if probe.core and status != "ok":
                ok = False
            components[name] = {
                "status": status,
                "live": live,
                "ready": ready,
                "detail": result.get("detail", ""),
            }
        return {"status": "ok" if ok else "degraded", "components": components}

    def up_samples(self):
        """``(component, up)`` pairs for the scraper; probes with no
        data yield no sample (the series goes stale, not to zero)."""
        out = []
        for name, probe in self._probes.items():
            result = probe.check()
            if result is None:
                continue
            out.append((name, 1.0 if result["live"] and result["ready"] else 0.0))
        return out


class PodGroupProbe(Probe):
    """Health of a per-job pod family (guardian, helper or learner).

    An owner counts once latched (first seen at full Running strength);
    from then on, fewer Running pods than desired means the group — and
    the component — is down until replacements run. Owners being torn
    down (or K8S Jobs that completed) stop counting entirely.
    """

    def __init__(self, platform, name, collect_owners):
        super().__init__(name, self._check_groups, core=False)
        self.platform = platform
        self._collect_owners = collect_owners
        self._latched = set()

    def _check_groups(self):
        owners = self._collect_owners(self.platform.k8s.api)
        current = {owner_name for owner_name, _desired, _running in owners}
        self._latched &= current  # forget owners that went away
        total = healthy = 0
        for owner_name, desired, running in owners:
            full = running >= desired
            if full:
                self._latched.add(owner_name)
            elif owner_name not in self._latched:
                continue  # still booting for the first time
            total += 1
            healthy += 1 if full else 0
        if total == 0:
            return None
        live = healthy == total
        return {"live": live, "ready": live,
                "detail": f"{healthy}/{total} groups at full strength"}


def _guardian_owners(api):
    out = []
    for job in api.list("Job"):
        job_id = job.metadata.labels.get("dlaas-job")
        if job_id is None or job.complete:
            continue
        running = 0
        if job.active_pod:
            pod = api.get_or_none("Pod", job.active_pod)
            # A Succeeded guardian finished its K8S Job; that is health,
            # not an outage.
            if pod is not None and pod.phase in (RUNNING, SUCCEEDED):
                running = 1
        out.append((job.metadata.name, 1, running))
    return out


def _template_owners(api, kind, role):
    out = []
    for owner in api.list(kind):
        labels = owner.template.labels or {}
        if labels.get("role") != role or getattr(owner, "deletion_requested", False):
            continue
        # The controller stamps the template's labels and itself as
        # owner on every pod it makes: the owner index is that selector.
        running = sum(
            1 for pod in api.list("Pod", owner=(kind, owner.metadata.name))
            if pod.phase == RUNNING and not pod.deletion_requested
        )
        out.append((owner.metadata.name, owner.replicas, running))
    return out


def register_platform_probes(platform, registry):
    """Wire the standard probe set for an assembled DlaasPlatform."""
    config = platform.config

    def balancer_check(balancer, desired):
        def check():
            n = len(balancer.endpoints)
            return {"live": n > 0, "ready": n >= desired,
                    "detail": f"{n}/{desired} endpoints"}
        return check

    # Core services answer through their load-balancer registration —
    # the endpoint set is exactly what a Kubernetes readiness probe
    # feeds. Latched: no false outage while the first pods boot.
    registry.register("api",
                      balancer_check(platform.api_balancer, config.api_replicas),
                      latch=True)
    registry.register("lcm",
                      balancer_check(platform.lcm_balancer, config.lcm_replicas),
                      latch=True)

    def etcd_check():
        alive = platform.etcd.alive_count()
        size = len(platform.etcd.nodes)
        has_leader = platform.etcd.leader() is not None
        return {"live": alive > size // 2 and has_leader,
                "ready": alive == size and has_leader,
                "detail": f"{alive}/{size} members alive"
                          + ("" if has_leader else ", no leader")}

    def mongo_check():
        # With docstore sharding, every shard must have a primary for
        # the store to be live (each owns part of the key space).
        shard_sets = ([shard for shard in platform.mongo_shard_set.shards]
                      if platform.mongo_shard_set is not None
                      else [platform.mongo])
        alive = total = 0
        primaries = 0
        for shard in shard_sets:
            alive += sum(1 for m in shard.members.values() if m.alive)
            total += len(shard.members)
            primaries += 1 if shard.primary_id() is not None else 0
        all_primaried = primaries == len(shard_sets)
        return {"live": all_primaried,
                "ready": alive == total and all_primaried,
                "detail": f"{alive}/{total} members alive, "
                          f"{primaries}/{len(shard_sets)} shards primaried"}

    def nfs_check():
        up = platform.nfs.available
        return {"live": up, "ready": up,
                "detail": "serving" if up else "unavailable"}

    registry.register("etcd", etcd_check)
    registry.register("mongo", mongo_check)
    registry.register("nfs", nfs_check)

    registry.register_probe(PodGroupProbe(platform, "guardian", _guardian_owners))
    registry.register_probe(PodGroupProbe(
        platform, "helper",
        lambda api: _template_owners(api, "Deployment", "helper")))
    registry.register_probe(PodGroupProbe(
        platform, "learner",
        lambda api: _template_owners(api, "StatefulSet", "learner")))
    return registry
