"""FIFO channels for message passing between simulated processes."""

from collections import deque

from .errors import ChannelClosed


class Channel:
    """An unbounded FIFO channel with event-based ``get``.

    ``put`` never blocks (the simulated network and queues we model are
    effectively unbounded at the message sizes involved); ``get`` returns
    an event that fires when an item is available. Closing the channel
    fails all pending and future gets with :class:`ChannelClosed`.
    """

    __slots__ = ("_kernel", "name", "_items", "_getters", "closed")

    def __init__(self, kernel, name=""):
        self._kernel = kernel
        self.name = name
        self._items = deque()
        self._getters = deque()
        self.closed = False

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        if self.closed:
            raise ChannelClosed(f"put on closed channel {self.name!r}")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self):
        """Return an event that succeeds with the next item."""
        kernel = self._kernel
        event = kernel.event(name=f"get({self.name})" if kernel.debug else "")
        if self._items:
            event.succeed(self._items.popleft())
        elif self.closed:
            event.fail(ChannelClosed(f"get on closed channel {self.name!r}"))
        else:
            self._getters.append(event)
        return event

    def get_nowait(self):
        """Dequeue immediately, or return None if empty."""
        if self._items:
            return self._items.popleft()
        return None

    def cancel_get(self, event):
        """Withdraw a pending :meth:`get` event that was never consumed.

        Needed by select-style waiters (``any_of`` over several
        channels plus a timer): an abandoned getter would silently
        swallow the next ``put``, losing the item for every live
        waiter. Ignores events that already triggered or were never
        registered.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def close(self):
        """Close the channel; pending getters fail with ChannelClosed.

        Items already buffered stay retrievable (``get``/``get_nowait``
        drain them after close) — watch teardown never drops delivered
        events, only future ones.
        """
        if self.closed:
            return
        self.closed = True
        getters, self._getters = self._getters, deque()
        for event in getters:
            event.fail(ChannelClosed(f"channel {self.name!r} closed"))
