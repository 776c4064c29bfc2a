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


class Scheduler(Polling):
    """Binds pending pods to nodes."""

    STRATEGIES = ("binpack", "spread")

    def __init__(self, kernel, api, interval=0.1, tracer=None, strategy="binpack",
                 preemption=True, metrics=None, events=None):
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.kernel = kernel
        self.api = api
        self.events = events
        self._loop = Periodic(kernel, "scheduler", self.schedule_once,
                              interval)
        self.tracer = tracer
        self.strategy = strategy
        self.preemption = preemption
        self.scheduled_count = 0
        self.preemptions = 0
        # The unschedulable set: uid of a pod no pass could place (a
        # gang: of its first member) -> when that was last reported.
        self.parked = {}
        if metrics is not None:
            self._m_pending = metrics.gauge(
                "scheduler_pending_pods",
                help="Unbound pending pods at the last scheduling pass")
            self._m_placement = metrics.histogram(
                "scheduler_placement_latency_seconds",
                help="Pod creation to node binding")
            self._m_scheduled = metrics.counter(
                "scheduler_scheduled_pods_total", help="Pods bound to nodes")
            self._m_preempted = metrics.counter(
                "scheduler_preemptions_total", help="Pods evicted by priority")
        else:
            self._m_pending = self._m_placement = None
            self._m_scheduled = self._m_preempted = None

    def start(self):
        if not self._loop.running:
            self.parked = {}  # a restarted scheduler reports afresh
            self._loop.start()
        return self

    def schedule_once(self):
        """One reconcile pass; returns how many pods were bound.

        Gang-aware: pods sharing ``spec.gang`` are bound all-or-nothing
        when a full gang (``gang_size`` members) is pending together.
        A partially-pending gang (e.g. one crashed learner being
        replaced while its siblings run) schedules member-by-member.
        """
        pending = self.api.list("Pod", unscheduled=True)
        if self._m_pending is not None:
            self._m_pending.set(len(pending))
        if self.parked:
            # Deleted or terminal while parked: gone from the list, gone
            # from the set.
            listed = {pod.metadata.uid for pod in pending}
            self.parked = {uid: at for uid, at in self.parked.items()
                            if uid in listed}
        if not pending:
            return 0
        pending.sort(key=lambda p: (-p.spec.priority, p.metadata.creation_time or 0.0))
        nodes = self.api.list("Node", namespace="")
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
        for pod in pending:
            gang = pod.spec.gang
            if gang is not None and len(gang_members[gang]) >= pod.spec.gang_size:
                if gang in scheduled_gangs:
                    continue
                scheduled_gangs.add(gang)
                bound += self._bind_gang(gang_members[gang], nodes, no_room)
                continue
            bound += self._bind_one(pod, nodes, no_room)
        return bound

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
            if self.preemption and pod.spec.priority > 0:
                self._try_preempt(pod, nodes)
            self._report_unschedulable(pod, "no node with sufficient resources")
            return 0
        node.allocate(pod.spec)
        self._commit_bind(pod, node)
        return 1

    def _report_unschedulable(self, pod, message):
        """Park ``pod``; say so once per ``UNSCHEDULABLE_REPORT_INTERVAL``.

        Every pass still tries a parked pod (and preempts for it): what
        is parked is the report, as in kube-scheduler's unschedulable
        set. One ``FailedScheduling`` when the pod parks, one per
        interval while it stays; the entry goes when it binds or leaves
        the pending list, so whatever fails after that parks anew.
        """
        now = self.kernel.now
        reported = self.parked.get(pod.metadata.uid)
        if reported is not None and now - reported < UNSCHEDULABLE_REPORT_INTERVAL:
            return
        self.parked[pod.metadata.uid] = now
        self.api.record_event("Pod", pod.metadata.name, "FailedScheduling",
                              message)
        if self.events is not None:
            self.events.emit_event(
                "Warning", "Unschedulable", "Pod", pod.metadata.name,
                message=message, job=pod.metadata.labels.get("dlaas-job"))

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------

    def _try_preempt(self, pod, nodes):
        """Evict lower-priority GPU pods to make room for ``pod``.

        Chooses the feasible node needing the fewest victims; victims
        are the node's lowest-priority GPU pods. Eviction only requests
        deletion — the pod binds on a later pass once the victims have
        actually terminated (and they resume elsewhere/later from their
        checkpoints, which is why preemption is safe on this platform).
        """
        best = None  # (victim_count, node, victims)
        for node in nodes:
            if node.condition != "Ready" or node.unschedulable:
                continue
            if pod.spec.gpu_type and pod.spec.gpu_type != node.capacity.gpu_type:
                continue
            if not all(node.metadata.labels.get(k) == v
                       for k, v in pod.spec.node_selector.items()):
                continue
            if pod.spec.total_gpus > node.capacity.gpus:
                continue
            victims = self._victims_on(node, pod)
            if victims is None:
                continue
            if best is None or len(victims) < len(best[2]):
                best = (len(victims), node, victims)
        if best is None:
            return False
        _count, node, victims = best
        for victim in victims:
            victim.deletion_requested = True
            self.api.update(victim)
            self.api.record_event("Pod", victim.metadata.name, "Preempted",
                                  f"by {pod.metadata.name} "
                                  f"(priority {pod.spec.priority})")
            if self.events is not None:
                self.events.emit_event(
                    "Warning", "Preempted", "Pod", victim.metadata.name,
                    message=f"evicted by {pod.metadata.name} "
                            f"(priority {pod.spec.priority})",
                    job=victim.metadata.labels.get("dlaas-job"))
            self.preemptions += 1
            if self._m_preempted is not None:
                self._m_preempted.inc()
        return True

    def _victims_on(self, node, pod):
        """Cheapest set of lower-priority GPU pods freeing enough room,
        or None if even evicting all of them would not fit."""
        residents = []
        terminating_gpus = 0
        for p in self.api.list("Pod", node_name=node.metadata.name):
            if p.is_terminal():
                continue
            if p.deletion_requested:
                # Already on its way out (e.g. a previous preemption
                # pass): count its GPUs as freeing, evict nothing new.
                terminating_gpus += p.spec.total_gpus
            elif p.spec.priority < pod.spec.priority and p.spec.total_gpus > 0:
                residents.append(p)
        residents.sort(key=lambda p: (p.spec.priority,
                                      -p.spec.total_gpus))
        freed = node.free_gpus + terminating_gpus
        victims = []
        for resident in residents:
            if freed >= pod.spec.total_gpus:
                break
            victims.append(resident)
            freed += resident.spec.total_gpus
        if freed < pod.spec.total_gpus:
            return None
        return victims

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
        if self.tracer is not None:
            self.tracer.emit("scheduler", "bind", pod=pod.metadata.name,
                             node=node.metadata.name)
        self.scheduled_count += 1
        if self._m_scheduled is not None:
            self._m_scheduled.inc()
            created = pod.metadata.creation_time
            if created is not None:
                self._m_placement.observe(self.kernel.now - created)
