"""A shared, watch-driven reconciler runtime for the control plane.

Kubernetes-style level-triggered reconciliation over the DES kernel:
components stop busy-polling and instead *subscribe* to change streams
(etcd watches, API-server resource watches, NFS change notifications),
funnel change keys through a coalescing :class:`WorkQueue`, and run a
``reconcile(key)`` function that re-reads the *full* current state for
that key. Because reconciliation is level-triggered (state-based, not
edge-based), a missed or duplicated event is harmless — a periodic
resync relists every key as a safety net, and a watch broken by a
component crash is re-established with a full relist.

The three building blocks:

* :class:`WorkQueue` — keyed work items with duplicate coalescing,
  rate-limited requeue with exponential backoff, and FIFO dispatch;
* :class:`WatchSource` — adapter from a concrete watch facility
  (a channel of events plus a relist function) to work-queue keys;
* :class:`Reconciler` — the runtime: one pump process per source
  (enqueue-on-event, re-establish + relist on channel close), a resync
  ticker, and a worker process driving ``reconcile(key)``.
"""

from collections import deque

from .errors import ChannelClosed, ProcessKilled
from .periodic import Periodic


class WorkQueue:
    """Keyed FIFO work queue with coalescing and backoff requeue.

    A key present in the queue is never enqueued twice (duplicate adds
    *coalesce*): a burst of watch events for one object costs exactly
    one reconcile. Failed keys are requeued after an exponential
    per-key backoff; :meth:`forget` resets the backoff once a key
    reconciles cleanly.

    ``kind`` is the value of the ``name`` label on the queue's
    ``workqueue_*`` series. It defaults to the queue's own name, which
    suits a bounded set of run-long queues (``deploy:<lcm>``); a queue
    created per job passes what it *is* (``guardian``) so that the
    series count the kinds that exist, not every job that ever ran.
    Queues of one kind share their metric children.
    """

    def __init__(self, kernel, name="", backoff_base=0.1, backoff_max=5.0,
                 metrics=None, kind=None):
        self._kernel = kernel
        self.name = name
        self.kind = kind or name
        self.closed = False
        self._ready = deque()
        self._queued = set()
        self._getters = deque()
        self._failures = {}
        self._timers = {}  # key -> earliest scheduled fire time
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        # Observability: how much polling the coalescing saved.
        self.adds = 0
        self.coalesced = 0
        self.dispatched = 0
        self._enqueued_at = {}  # key -> enqueue time, for queue latency
        # Kubernetes workqueue metric names, labeled by queue kind.
        if metrics is not None:
            # Children bound once: the label never changes, and
            # labels() per enqueue is measurable on the hot path.
            self._m_depth = metrics.gauge(
                "workqueue_depth", ("name",),
                help="Keys currently waiting in the work queues of a kind"
            ).labels(name=self.kind)
            self._m_adds = metrics.counter(
                "workqueue_adds_total", ("name",),
                help="Keys added to the work queue (incl. coalesced)"
            ).labels(name=self.kind)
            self._m_queue_dur = metrics.histogram(
                "workqueue_queue_duration_seconds", ("name",),
                help="Time keys wait in the queue before dispatch"
            ).labels(name=self.kind)
            self._m_retries = metrics.counter(
                "workqueue_retries_total", ("name",),
                help="Keys requeued after a failed reconcile"
            ).labels(name=self.kind)
        else:
            self._m_depth = self._m_adds = None
            self._m_queue_dur = self._m_retries = None

    def __len__(self):
        return len(self._ready)

    def _move_depth(self, delta):
        # The gauge child may be shared with other queues of this kind:
        # move it by what this queue gained or lost, never set it. A
        # closed queue has already given its keys back (see close()).
        if self._m_depth is not None and not self.closed:
            self._m_depth.inc(delta)

    def add(self, key):
        """Enqueue ``key`` now; a duplicate of a queued key coalesces."""
        if self.closed:
            return
        self.adds += 1
        if self._m_adds is not None:
            self._m_adds.inc()
        if key in self._queued:
            self.coalesced += 1
            return
        self._queued.add(key)
        self._enqueued_at.setdefault(key, self._kernel.now)
        if self._getters:
            self.dispatched += 1
            self._queued.discard(key)
            self._dispatch_metrics(key)
            self._getters.popleft().succeed(key)
        else:
            self._ready.append(key)
            self._move_depth(1)

    def _dispatch_metrics(self, key):
        enqueued = self._enqueued_at.pop(key, None)
        if self._m_queue_dur is not None and enqueued is not None:
            self._m_queue_dur.observe(self._kernel.now - enqueued)

    def add_after(self, key, delay):
        """Enqueue ``key`` after ``delay`` seconds.

        Pending delayed adds for the same key coalesce, keeping the
        earliest fire time; an immediate :meth:`add` always wins.
        """
        if self.closed:
            return
        if delay <= 0:
            self.add(key)
            return
        fire_at = self._kernel.now + delay
        pending = self._timers.get(key)
        if pending is not None and pending <= fire_at:
            return
        self._timers[key] = fire_at
        self._kernel.sleep(delay).add_callback(
            lambda _ev, key=key, fire_at=fire_at: self._fire_timer(key, fire_at)
        )

    def _fire_timer(self, key, fire_at):
        if self.closed or self._timers.get(key) != fire_at:
            return  # superseded by an earlier timer, or queue torn down
        del self._timers[key]
        self.add(key)

    def requeue(self, key):
        """Re-enqueue a failed key after its exponential backoff."""
        failures = self._failures.get(key, 0) + 1
        self._failures[key] = failures
        if self._m_retries is not None:
            self._m_retries.inc()
        delay = min(self.backoff_base * (2 ** (failures - 1)), self.backoff_max)
        self.add_after(key, delay)
        return delay

    def forget(self, key):
        """Reset the failure backoff for ``key`` after a clean pass."""
        self._failures.pop(key, None)

    def get(self):
        """Event yielding the next key; fails with :class:`ChannelClosed`
        once the queue is closed and drained."""
        kernel = self._kernel
        event = kernel.event(
            name=f"workqueue.get({self.name})" if kernel.debug else "")
        if self._ready:
            self.dispatched += 1
            key = self._ready.popleft()
            self._queued.discard(key)
            self._dispatch_metrics(key)
            self._move_depth(-1)
            event.succeed(key)
        elif self.closed:
            event.fail(ChannelClosed(f"work queue {self.name!r} closed"))
        else:
            self._getters.append(event)
        return event

    def close(self):
        """Shut the queue down; pending getters fail with ChannelClosed."""
        if self.closed:
            return
        # Keys still queued leave the shared depth gauge with the queue
        # (a killed Guardian must not leave phantom backlog behind).
        self._move_depth(-len(self._ready))
        self.closed = True
        self._timers.clear()
        getters, self._getters = self._getters, deque()
        for event in getters:
            event.fail(ChannelClosed(f"work queue {self.name!r} closed"))


class WatchSource:
    """Adapter from one watch facility to work-queue keys.

    ``subscribe`` opens the underlying watch and returns a channel of
    events (or ``None`` for a resync-only source with no change
    stream); ``keys_of`` maps one event to the work keys it dirties;
    ``list_keys`` enumerates every key for a full relist — run on
    (re)establishment and on every periodic resync, which is what makes
    the runtime level-triggered. ``unsubscribe`` tears the watch down
    (the channel-leak fix: sources must deregister, not just drop,
    their channels).
    """

    def __init__(self, name, subscribe=None, keys_of=None, list_keys=None,
                 unsubscribe=None):
        self.name = name
        self._subscribe = subscribe
        self._keys_of = keys_of
        self._list_keys = list_keys
        self._unsubscribe = unsubscribe
        self._current = None  # whatever subscribe returned, for teardown

    def subscribe(self):
        if self._subscribe is None:
            return None
        self._current = self._subscribe()
        return self._channel_of(self._current)

    @staticmethod
    def _channel_of(subscription):
        return getattr(subscription, "channel", subscription)

    def keys_of(self, event):
        if self._keys_of is None:
            return ()
        keys = self._keys_of(event)
        if keys is None:
            return ()
        if isinstance(keys, (str, bytes)) or not hasattr(keys, "__iter__"):
            return (keys,)
        return keys

    def list_keys(self):
        """Keys for a full relist; may be a plain iterable or a process
        generator (for sources whose listing needs RPCs)."""
        if self._list_keys is None:
            return ()
        return self._list_keys()

    def unsubscribe(self):
        current, self._current = self._current, None
        if current is None:
            return
        if self._unsubscribe is not None:
            self._unsubscribe(current)
            return
        cancel = getattr(current, "cancel", None)
        if cancel is not None:
            cancel()


class Reconciler:
    """The reconciler runtime: sources -> work queue -> reconcile(key).

    ``reconcile(key)`` may be a plain function or a process generator.
    Its contract is level-triggered: observe the *current* state for
    ``key`` and converge it, regardless of which event woke the queue.
    Returning a positive number asks for a requeue after that many
    seconds (a scheduled re-check, without counting as a failure); an
    exception requeues with exponential backoff.

    ``name`` identifies the instance (process names, trace component);
    ``kind`` labels its metrics, as for :class:`WorkQueue` — a
    reconciler created per job passes one.

    Crash recovery: when a source's channel closes (its server died),
    the pump re-subscribes after ``rewatch_delay`` and then performs a
    full relist (the static keys and the source's own listing), so
    transitions that fired while the watch was down are re-observed
    rather than lost.
    """

    def __init__(self, kernel, name, reconcile, *, queue=None,
                 resync_interval=0.0, rewatch_delay=0.2, tracer=None,
                 metrics=None, kind=None, key_context=None):
        self.kernel = kernel
        self.name = name
        self.reconcile = reconcile
        self.queue = queue or WorkQueue(kernel, name=name, metrics=metrics,
                                        kind=kind)
        self._resync = None  # the safety-net relist behind the watches
        if resync_interval > 0:
            self._resync = Periodic(
                kernel, f"reconciler:{name}:resync", self.resync_once,
                resync_interval, sleep_first=True)
        self.rewatch_delay = rewatch_delay
        self.tracer = tracer
        # key_context(key) -> SpanContext | None: lets the owner link a
        # reconcile pass into the causal trace of the object it serves
        # (e.g. map a job id key to the job's span context).
        self.key_context = key_context
        if metrics is not None:
            self._m_work_dur = metrics.histogram(
                "workqueue_work_duration_seconds", ("name",),
                help="Time spent running reconcile(key)"
            ).labels(name=self.queue.kind)
        else:
            self._m_work_dur = None
        self.sources = []
        self.static_keys = []
        self.rewatches = 0
        self.resyncs = 0
        self._procs = []
        self._running = False

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def add_source(self, source):
        bind = getattr(source, "bind", None)
        if bind is not None:
            # Callback-driven sources enqueue directly, without a pump.
            bind(self.queue)
        self.sources.append(source)
        if self._running:
            self._spawn(self._pump(source), f"pump:{source.name}")
        return source

    def watch_channel(self, name, subscribe, keys_of, list_keys=None,
                      unsubscribe=None):
        """Shorthand for :meth:`add_source` of a :class:`WatchSource`."""
        return self.add_source(WatchSource(
            name, subscribe=subscribe, keys_of=keys_of, list_keys=list_keys,
            unsubscribe=unsubscribe,
        ))

    def add_static_key(self, key):
        """A key enqueued at start and on every resync (level-trigger)."""
        self.static_keys.append(key)
        if self._running:
            self.queue.add(key)
        return key

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        if self._running:
            return self
        self._running = True
        for key in self.static_keys:
            self.queue.add(key)
        for source in self.sources:
            self._spawn(self._pump(source), f"pump:{source.name}")
        self._spawn(self._worker(), "worker")
        if self._resync is not None:
            self._resync.start()
        return self

    def stop(self):
        """Tear the runtime down: processes, watches, queue."""
        if not self._running:
            return
        self._running = False
        procs, self._procs = self._procs, []
        reason = f"reconciler {self.name!r} stopped"
        for proc in procs:
            proc.kill(reason)
        if self._resync is not None:
            self._resync.stop(reason)
        for source in self.sources:
            source.unsubscribe()
        self.queue.close()

    def _spawn(self, generator, label):
        proc = self.kernel.spawn(generator, name=f"reconciler:{self.name}:{label}")
        self._procs.append(proc)
        return proc

    def _trace(self, kind, **fields):
        if self.tracer is not None:
            self.tracer.emit(f"reconciler:{self.name}", kind, **fields)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def _pump(self, source):
        """Deliver one source's events into the queue, forever.

        (Re)subscribing always relists first: anything that changed
        while no watch was established is re-observed, which is the
        relist-on-reconnect contract crash recovery depends on. The
        static keys are part of that relist (a source may have no
        listing of its own); at start they coalesce with ``start()``'s.
        """
        while self._running:
            try:
                channel = source.subscribe()
            except Exception:
                yield self.kernel.sleep(self.rewatch_delay)
                continue
            for key in self.static_keys:
                self.queue.add(key)
            yield from self._relist(source)
            if channel is None:
                return  # resync-only source; the ticker covers it
            while True:
                try:
                    event = yield channel.get()
                except ChannelClosed:
                    break
                for key in source.keys_of(event):
                    if isinstance(key, tuple):
                        # (key, delay): a coalesced enqueue — progress-style
                        # events batch up to ``delay`` while transitions
                        # use a bare key for immediate dispatch.
                        self.queue.add_after(*key)
                    else:
                        self.queue.add(key)
            source.unsubscribe()
            self.rewatches += 1
            self._trace("watch-lost", source=source.name)
            yield self.kernel.sleep(self.rewatch_delay)

    def _relist(self, source):
        listing = source.list_keys()
        if hasattr(listing, "send"):  # process generator (listing via RPC)
            try:
                listing = yield from listing
            except ProcessKilled:
                raise
            except Exception:
                listing = ()
        for key in listing or ():
            self.queue.add(key)

    def resync_once(self):
        """Relist everything: static keys, then every source."""
        self.resyncs += 1
        for key in self.static_keys:
            self.queue.add(key)
        for source in self.sources:
            yield from self._relist(source)

    def _start_reconcile_span(self, key):
        if self.tracer is None or not getattr(self.tracer, "span_tracing", False):
            return None
        parent = self.key_context(key) if self.key_context is not None else None
        if parent is None:
            return None  # don't root fresh traces for unlinked keys
        return self.tracer.start_span(
            f"{self.name}.reconcile", component=f"reconciler:{self.name}",
            parent=parent, key=str(key))

    def _worker(self):
        while True:
            try:
                key = yield self.queue.get()
            except ChannelClosed:
                return
            span = self._start_reconcile_span(key)
            started = self.kernel.now
            try:
                result = self.reconcile(key)
                if hasattr(result, "send"):
                    result = yield from result
            except ProcessKilled:
                if span is not None:
                    span.end("killed")
                raise
            except Exception as exc:
                delay = self.queue.requeue(key)
                self._trace("reconcile-error", key=key, error=repr(exc),
                            retry_in=delay)
                if span is not None:
                    span.set_attribute("error", repr(exc)).end("error")
            else:
                self.queue.forget(key)
                if span is not None:
                    span.end("ok")
                if isinstance(result, (int, float)) and result > 0:
                    self.queue.add_after(key, result)
            finally:
                if self._m_work_dur is not None:
                    self._m_work_dur.observe(self.kernel.now - started)
