"""The GPU-aware pod scheduler.

Reconcile loop: finds unbound pending pods, filters nodes by readiness,
GPU type, node selector and free resources, then bin-packs onto the
most-allocated feasible node (consolidating GPU fragments so large
multi-GPU jobs can still place — the paper's platform layer must place
1–4 GPU learners densely).
"""

from ..sim.periodic import Periodic, Polling

# A pod that stays parked (see ``Scheduler._report_unschedulable``) is
# reported again this often, in simulated seconds.
UNSCHEDULABLE_REPORT_INTERVAL = 30.0
INTERVAL = 0.1  # between scheduling passes, simulated seconds


def _fit_state(nodes):
    """Everything about ``nodes`` a placement reads that can change:
    which nodes there are, their readiness and what is allocated on
    them (``Node.release`` is an in-memory write no watch sees)."""
    return tuple((node, node.condition, node.allocated_gpus,
                  node.allocated_cpu, node.allocated_memory)
                 for node in nodes)


class Scheduler(Polling):
    """Binds pending pods to nodes."""

    STRATEGIES = ("binpack", "spread")

    def __init__(self, kernel, api, tracer, metrics, events):
        self.kernel = kernel
        self.api = api
        self.events = events
        self._loop = Periodic(kernel, "scheduler", self.schedule_once,
                              INTERVAL)
        self.tracer = tracer
        # One of STRATEGIES; the scheduler ablation sets "spread".
        self.strategy = "binpack"
        # The unschedulable set: uid of a pod no pass could place (a
        # gang: of its first member) -> when that was last reported.
        self.parked = {}
        # Set by a pass that bound nothing and parked every pod it
        # tried: (the API server's unscheduled version, the nodes' fit
        # state, the pending count, the earliest report among those
        # pods). While the version and the fit state stand and no
        # report is due, a pass would do nothing (see ``_quiet``).
        self._quiet_state = None
        self._m_pending = metrics.gauge(
            "scheduler_pending_pods",
            help="Unbound pending pods at the last scheduling pass")
        self._m_placement = metrics.histogram(
            "scheduler_placement_latency_seconds",
            help="Pod creation to node binding")
        self._m_scheduled = metrics.counter(
            "scheduler_scheduled_pods_total", help="Pods bound to nodes")

    def start(self):
        if not self._loop.running:
            self.parked = {}  # a restarted scheduler reports afresh
            self._quiet_state = None
            self._loop.start()
        return self

    def schedule_once(self):
        """One reconcile pass; returns how many pods were bound.

        Pods are tried in the order the API server lists them, oldest
        first (ties by name): placement is first come, first served.
        Gang-aware: pods sharing ``spec.gang`` are bound all-or-nothing
        when a full gang (``gang_size`` members) is pending together.
        A partially-pending gang (e.g. one crashed learner being
        replaced while its siblings run) schedules member-by-member.
        """
        if self._quiet():
            return 0
        self._quiet_state = None
        version = self.api.unscheduled_version
        pending = self.api.list("Pod", unscheduled=True)
        self._m_pending.set(len(pending))
        if self.parked:
            # Deleted or terminal while parked: gone from the list, gone
            # from the set.
            listed = {pod.metadata.uid for pod in pending}
            self.parked = {uid: at for uid, at in self.parked.items()
                            if uid in listed}
        if not pending:
            return 0
        nodes = self.api.list("Node")
        gang_members = {}
        for pod in pending:
            if pod.spec.gang is not None:
                gang_members.setdefault(pod.spec.gang, []).append(pod)

        bound = 0
        scheduled_gangs = set()
        # Request shapes that found no node earlier in this pass. The
        # pass is synchronous and only allocates, so free capacity never
        # grows inside it: a shape that fit nowhere still fits nowhere,
        # and the node scan is skipped for every later pod of that
        # shape.
        no_room = set()
        tried = []  # the pod each bind attempt reports under
        for pod in pending:
            gang = pod.spec.gang
            if gang is not None and len(gang_members[gang]) >= pod.spec.gang_size:
                if gang in scheduled_gangs:
                    continue
                scheduled_gangs.add(gang)
                tried.append(gang_members[gang][0].metadata.uid)
                bound += self._bind_gang(gang_members[gang], nodes, no_room)
                continue
            tried.append(pod.metadata.uid)
            bound += self._bind_one(pod, nodes, no_room)
        reported = [self.parked.get(uid) for uid in tried]
        if not bound and None not in reported:
            self._quiet_state = (version, _fit_state(nodes), len(pending),
                                 min(reported))
        return bound

    def _quiet(self):
        """Would a pass now bind nothing and report nothing?

        True when the last pass bound nothing and parked every pod it
        tried, and since then the pending list (the API server's
        unscheduled version) and every node's fit state are unchanged
        and no parked pod's report is due: the pass would try the same
        pods on the same nodes, fail the same way and stay silent. Sets
        ``scheduler_pending_pods`` as the pass would. Costs the nodes,
        not the pods.
        """
        quiet = self._quiet_state
        if quiet is None:
            return False
        version, fit, count, reported = quiet
        if (version != self.api.unscheduled_version
                or self.kernel.now - reported >= UNSCHEDULABLE_REPORT_INTERVAL
                or fit != _fit_state(self.api.list("Node"))):
            return False
        self._m_pending.set(count)
        return True

    def _find_node(self, pod, nodes, no_room, tentative=False):
        """``_pick_node`` behind the pass's ``no_room`` memo.

        ``tentative`` marks a lookup made while a gang's earlier members
        hold capacity the rollback would hand back: a miss there proves
        nothing about the rest of the pass and is not remembered.
        """
        shape = pod.spec.shape
        if shape in no_room:
            return None
        node = self._pick_node(pod, nodes)
        if node is None and not tentative:
            no_room.add(shape)
        return node

    def _bind_gang(self, pods, nodes, no_room):
        """Place every member or none; rolls back on any failure."""
        placed = []
        for pod in pods:
            node = self._find_node(pod, nodes, no_room, tentative=bool(placed))
            if node is None:
                for bound_pod, bound_node in placed:
                    bound_node.release(bound_pod.spec)
                self._report_unschedulable(
                    pods[0],
                    f"gang {pods[0].spec.gang!r} needs {len(pods)} slots together")
                return 0
            node.allocate(pod.spec)
            placed.append((pod, node))
        for pod, node in placed:
            self._commit_bind(pod, node)
        return len(placed)

    def _bind_one(self, pod, nodes, no_room):
        node = self._find_node(pod, nodes, no_room)
        if node is None:
            self._report_unschedulable(pod, "no node with sufficient resources")
            return 0
        node.allocate(pod.spec)
        self._commit_bind(pod, node)
        return 1

    def _report_unschedulable(self, pod, message):
        """Park ``pod``; say so once per ``UNSCHEDULABLE_REPORT_INTERVAL``.

        Every pass still tries a parked pod: what is parked is the
        report, as in kube-scheduler's unschedulable set. One
        ``FailedScheduling`` when the pod parks, one per interval while
        it stays; the entry goes when it binds or leaves the pending
        list, so whatever fails after that parks anew.
        """
        now = self.kernel.now
        reported = self.parked.get(pod.metadata.uid)
        if reported is not None and now - reported < UNSCHEDULABLE_REPORT_INTERVAL:
            return
        self.parked[pod.metadata.uid] = now
        self.api.record_event("Pod", pod.metadata.name, "FailedScheduling",
                              message)
        self.events.emit_event(
            "Warning", "Unschedulable", "Pod", pod.metadata.name,
            message=message, job=pod.metadata.labels.get("dlaas-job"))

    def _pick_node(self, pod, nodes):
        """Feasible node per strategy, or None (does not allocate)."""
        feasible = [node for node in nodes if node.can_fit(pod.spec)]
        if not feasible:
            return None
        if self.strategy == "binpack":
            # Prefer the node with the fewest free GPUs that still
            # fits, then fewest free CPU millicores: consolidates
            # fragments so large multi-GPU pods keep placing.
            return min(
                feasible,
                key=lambda n: (n.free_gpus,
                               n.capacity.cpu_millicores - n.allocated_cpu,
                               n.metadata.name),
            )
        # Spread: the ablation baseline — most free GPUs first.
        return max(
            feasible,
            key=lambda n: (n.free_gpus,
                           n.capacity.cpu_millicores - n.allocated_cpu,
                           n.metadata.name),
        )

    def _commit_bind(self, pod, node):
        """Record an already-allocated placement (allocation done by caller)."""
        pod.node_name = node.metadata.name
        pod._resources_released = False
        self.parked.pop(pod.metadata.uid, None)
        self.api.update(pod)
        self.api.record_event("Pod", pod.metadata.name, "Scheduled",
                              f"bound to {node.metadata.name}")
        self.tracer.emit("scheduler", "bind", pod=pod.metadata.name,
                         node=node.metadata.name)
        self._m_scheduled.inc()
        created = pod.metadata.creation_time
        if created is not None:
            self._m_placement.observe(self.kernel.now - created)
