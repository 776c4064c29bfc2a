"""An in-memory POSIX-ish tree shared between containers.

The learner and helper containers of a DL job share one NFS volume
(paper §III.e): learners redirect exit statuses and logs to files, and
the helper's controller reads them. The filesystem state lives on the
server, so it survives any container crash — exactly the property the
paper's failure-detection design depends on.
"""

from .errors import AlreadyExists, IsADirectory, NotADirectory, NotFound


class ChangeSubscription:
    """An inotify-style registration: ``callback(path)`` on change.

    Registered against the *volume*, so it survives container crashes
    on other mounts; holders cancel it when their own container stops
    (the helper controller re-registers after a restart, mirroring how
    it rebuilds all other state from NFS).
    """

    def __init__(self, filesystem, prefix, callback):
        self._filesystem = filesystem
        self.prefix = prefix
        self.callback = callback
        self.active = True

    def cancel(self):
        self.active = False
        self._filesystem._subscriptions.discard(self)


class _File:
    __slots__ = ("content", "mtime")

    def __init__(self, mtime):
        self.content = ""
        self.mtime = mtime


class _Directory:
    __slots__ = ("entries", "mtime")

    def __init__(self, mtime):
        self.entries = {}
        self.mtime = mtime


def _split(path):
    parts = [p for p in path.split("/") if p]
    if not parts and path.strip("/") != "":
        raise NotFound(f"bad path {path!r}")
    return parts


class SharedFilesystem:
    """One NFS volume: a tree of directories and text files."""

    def __init__(self, name="volume", clock=None):
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self._root = _Directory(self._clock())
        self._subscriptions = set()

    # ------------------------------------------------------------------
    # Change notification (inotify analogue)
    # ------------------------------------------------------------------

    def subscribe(self, prefix, callback):
        """Invoke ``callback(path)`` whenever a file under ``prefix``
        is written or deleted; returns a cancellable subscription."""
        subscription = ChangeSubscription(self, prefix, callback)
        self._subscriptions.add(subscription)
        return subscription

    def _notify_change(self, path):
        for subscription in list(self._subscriptions):
            if subscription.active and path.startswith(subscription.prefix):
                subscription.callback(path)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def _lookup(self, path):
        node = self._root
        for part in _split(path):
            if not isinstance(node, _Directory):
                raise NotADirectory(f"{part!r} in {path!r}")
            if part not in node.entries:
                raise NotFound(path)
            node = node.entries[part]
        return node

    def _lookup_dir(self, path, create=False):
        node = self._root
        for part in _split(path):
            if not isinstance(node, _Directory):
                raise NotADirectory(f"{part!r} in {path!r}")
            if part not in node.entries:
                if not create:
                    raise NotFound(path)
                node.entries[part] = _Directory(self._clock())
            node = node.entries[part]
        if not isinstance(node, _Directory):
            raise NotADirectory(path)
        return node

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def mkdir(self, path, parents=True):
        if not parents:
            parent_path, _slash, name = path.rstrip("/").rpartition("/")
            parent = self._lookup_dir(parent_path)
            if name in parent.entries:
                raise AlreadyExists(path)
            parent.entries[name] = _Directory(self._clock())
            return
        self._lookup_dir(path, create=True)

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------

    def write_file(self, path, content, append=False):
        parent_path, _slash, name = path.rstrip("/").rpartition("/")
        parent = self._lookup_dir(parent_path, create=True)
        node = parent.entries.get(name)
        if node is None:
            node = _File(self._clock())
            parent.entries[name] = node
        elif isinstance(node, _Directory):
            raise IsADirectory(path)
        if append:
            node.content += content
        else:
            node.content = content
        node.mtime = self._clock()
        self._notify_change(path)

    def append_line(self, path, line):
        self.write_file(path, line.rstrip("\n") + "\n", append=True)

    def read_file(self, path):
        node = self._lookup(path)
        if isinstance(node, _Directory):
            raise IsADirectory(path)
        return node.content

    def read_from(self, path, offset):
        """Tail support: content from ``offset``; '' if nothing new."""
        content = self.read_file(path)
        return content[offset:]

    def exists(self, path):
        try:
            self._lookup(path)
            return True
        except (NotFound, NotADirectory):
            return False

    def mtime(self, path):
        return self._lookup(path).mtime
