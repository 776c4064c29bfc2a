"""The cluster API server: resource stores, watches, events.

Controllers and kubelets coordinate exclusively through here, mirroring
the real architecture: declarative resources in a store, reconciled by
loops that never talk to each other directly.
"""

from ..sim.channels import Channel
from .errors import ConflictError, NotFoundError
from .resources.meta import selector_matches
from .resources.pod import PENDING

# Index group of the pods a scheduler pass looks at: Pending, not bound,
# not being deleted.
_UNSCHEDULED = ("unscheduled",)


def _order_key(resource):
    """list() order. (namespace, name) is the store key, so this is a
    total order: any subset sorted by it equals the sorted whole,
    filtered."""
    metadata = resource.metadata
    return (metadata.creation_time or 0.0, metadata.name, metadata.namespace)


def _matches(resource, namespace, selector, owner):
    metadata = resource.metadata
    if namespace is not None and metadata.namespace != namespace:
        return False
    if owner is not None and metadata.owner != owner:
        return False
    return selector is None or selector_matches(selector, metadata.labels)


def _pod_groups(pod):
    """The index groups a pod belongs to, from its current fields."""
    groups = []
    if pod.metadata.owner is not None:
        groups.append(("owner", pod.metadata.owner))
    if pod.node_name is not None:
        groups.append(("node", pod.node_name))
    elif pod.phase == PENDING and not pod.deletion_requested:
        groups.append(_UNSCHEDULED)
    return tuple(groups)


class ResourceWatch(Channel):
    """A watch subscription: a channel of ``(event_type, resource)``.

    Behaves exactly like a :class:`Channel` (so existing drain-style
    consumers keep working) but knows how to deregister itself —
    watchers that die without cancelling used to leak in the API
    server's ``_watchers`` list forever.
    """

    def __init__(self, api, kind):
        super().__init__(api.kernel, name=f"watch:{kind}")
        self._api = api
        self.kind = kind

    def cancel(self):
        """Deregister and close; idempotent."""
        self._api.unwatch(self)


class ClusterEvent:
    """A recorded cluster event (kubectl get events)."""

    __slots__ = ("time", "kind", "name", "reason", "message")

    def __init__(self, time, kind, name, reason, message):
        self.time = time
        self.kind = kind
        self.name = name
        self.reason = reason
        self.message = message

    def __repr__(self):
        return f"<Event {self.time:.2f} {self.kind}/{self.name} {self.reason}>"


class ApiServer:
    """Typed, namespaced resource stores with watch channels."""

    def __init__(self, kernel, tracer=None):
        self.kernel = kernel
        self.tracer = tracer
        self._stores = {}
        # Per-kind list() cache, sorted by (creation_time, name). Both
        # sort-key fields are immutable after create, so updates never
        # reorder it; creates append (monotone clock) and deletes remove
        # in place. None = rebuild on next list().
        self._sorted = {}
        # (namespace, selector) list() results, cached per kind. Labels
        # and namespace are set only at construction (no call site
        # mutates them afterwards), so membership changes only on
        # create/delete — updates leave every filtered list valid.
        self._filtered = {}
        # Pod field indexes: by owner, by node_name, and the unscheduled
        # set. A pod's groups are re-read from its fields on create and
        # update (binding, deletion requests and phase flips all go
        # through update) and dropped on delete, so an indexed list()
        # costs the size of its group, not of the cluster.
        self._pod_groups = {}  # group -> {store key: pod}
        # group -> {(namespace, selector, owner): members in list()
        # order}, like ``_filtered``; dropped when the group changes.
        self._pod_group_views = {}
        self._pod_filed = {}  # store key -> groups the pod is filed under
        self._watchers = {}
        self.events = []

    def _store(self, kind):
        return self._stores.setdefault(kind, {})

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------

    def create(self, resource):
        store = self._store(resource.kind)
        key = resource.metadata.key
        if key in store:
            raise ConflictError(f"{resource.kind} {key} already exists")
        resource.metadata.creation_time = self.kernel.now
        resource.metadata.resource_version = 1
        store[key] = resource
        cache = self._sorted.get(resource.kind)
        if cache is not None:
            if not cache or _order_key(cache[-1]) <= _order_key(resource):
                cache.append(resource)
            else:
                self._sorted[resource.kind] = None
        self._filtered.pop(resource.kind, None)
        if resource.kind == "Pod":
            self._file_pod(key, resource, _pod_groups(resource))
        self._notify(resource.kind, "ADDED", resource)
        return resource

    def get(self, kind, name, namespace="default"):
        resource = self._store(kind).get((namespace, name))
        if resource is None:
            raise NotFoundError(f"{kind} {namespace}/{name}")
        return resource

    def get_or_none(self, kind, name, namespace="default"):
        return self._store(kind).get((namespace, name))

    def list(self, kind, namespace=None, selector=None, owner=None,
             node_name=None, unscheduled=False):
        """Resources of ``kind`` in (creation_time, name) order.

        For pods, ``owner``, ``node_name`` and ``unscheduled`` (Pending,
        unbound, not being deleted) are served from the field indexes
        and narrow further by ``namespace`` and ``selector`` like any
        other list. Always a fresh list; the caches are private.
        """
        if kind == "Pod" and (unscheduled or node_name is not None
                              or owner is not None):
            if unscheduled:
                group = _UNSCHEDULED
            elif node_name is not None:
                group, node_name = ("node", node_name), None
            else:
                group, owner = ("owner", owner), None
            members = self._pod_groups.get(group)
            if members is None:
                return []
            candidates = None  # sorted from ``members`` on a view miss
            views = self._pod_group_views.setdefault(group, {})
        else:
            candidates = self._sorted.get(kind)
            if candidates is None:
                candidates = sorted(self._store(kind).values(), key=_order_key)
                self._sorted[kind] = candidates
            if namespace is None and selector is None and owner is None:
                return list(candidates)
            views = self._filtered.setdefault(kind, {})
        # Filtering a sorted list equals sorting the filtered list.
        view_key = (namespace,
                    tuple(sorted(selector.items())) if selector else None,
                    owner)
        out = views.get(view_key)
        if out is None:
            if candidates is None:
                candidates = sorted(members.values(), key=_order_key)
            out = views[view_key] = [
                resource for resource in candidates
                if _matches(resource, namespace, selector, owner)]
        if node_name is not None:
            # Narrowing another group by node: node_name changes on
            # bind, so this cut is not cached with the views.
            return [pod for pod in out if pod.node_name == node_name]
        return list(out)

    def _file_pod(self, key, pod, groups):
        """Move ``pod`` to exactly ``groups`` (``()`` unfiles it)."""
        filed = self._pod_filed.get(key, ())
        if filed == groups:
            return
        for group in filed:
            if group not in groups:
                members = self._pod_groups[group]
                del members[key]
                if not members:
                    del self._pod_groups[group]
                self._pod_group_views.pop(group, None)
        for group in groups:
            if group not in filed:
                self._pod_groups.setdefault(group, {})[key] = pod
                self._pod_group_views.pop(group, None)
        if groups:
            self._pod_filed[key] = groups
        else:
            self._pod_filed.pop(key, None)

    def update(self, resource):
        store = self._store(resource.kind)
        key = resource.metadata.key
        if key not in store:
            raise NotFoundError(f"{resource.kind} {key}")
        resource.metadata.resource_version += 1
        if resource.kind == "Pod":
            self._file_pod(key, resource, _pod_groups(resource))
        self._notify(resource.kind, "MODIFIED", resource)
        return resource

    def delete(self, kind, name, namespace="default"):
        store = self._store(kind)
        resource = store.pop((namespace, name), None)
        if resource is None:
            raise NotFoundError(f"{kind} {namespace}/{name}")
        cache = self._sorted.get(kind)
        if cache is not None:
            try:
                cache.remove(resource)
            except ValueError:
                self._sorted[kind] = None
        self._filtered.pop(kind, None)
        if kind == "Pod":
            self._file_pod((namespace, name), resource, ())
        self._notify(kind, "DELETED", resource)
        return resource

    def exists(self, kind, name, namespace="default"):
        return (namespace, name) in self._store(kind)

    # ------------------------------------------------------------------
    # Watches & events
    # ------------------------------------------------------------------

    def watch(self, kind):
        """A :class:`ResourceWatch` receiving (event_type, resource)
        for ``kind``; call ``cancel()`` when done watching."""
        channel = ResourceWatch(self, kind)
        self._watchers.setdefault(kind, []).append(channel)
        return channel

    def unwatch(self, channel):
        """Deregister a watch channel and close it; idempotent."""
        registered = self._watchers.get(getattr(channel, "kind", None), [])
        try:
            registered.remove(channel)
        except ValueError:
            pass
        if not channel.closed:
            channel.close()

    def watcher_count(self, kind=None):
        """Live watch registrations (observability + leak tests)."""
        if kind is not None:
            return len(self._watchers.get(kind, []))
        return sum(len(channels) for channels in self._watchers.values())

    def _notify(self, kind, event_type, resource):
        channels = self._watchers.get(kind)
        if not channels:
            return
        live = [c for c in channels if not c.closed]
        if len(live) != len(channels):
            # Prune channels closed without cancel() (crashed watchers).
            self._watchers[kind] = live
        for channel in live:
            channel.put((event_type, resource))

    def record_event(self, kind, name, reason, message=""):
        event = ClusterEvent(self.kernel.now, kind, name, reason, message)
        self.events.append(event)
        if self.tracer is not None:
            self.tracer.emit("apiserver", "k8s-event", resource=kind, name=name,
                             reason=reason, message=message)
        return event
