"""The NFS server: named persistent volumes and mounts.

Volumes outlive every container and pod; a crashed controller rereads
current and previous statuses from NFS after restart (paper §III.f).
Mounts are per-container views that check the server is up on every
operation.
"""

from .errors import AlreadyExists, FsError, VolumeNotFound
from .filesystem import SharedFilesystem


class Mount:
    """A container's handle on a volume; every operation fails while
    the server is down."""

    def __init__(self, server, volume_name, filesystem):
        self._server = server
        self.volume_name = volume_name
        self._filesystem = filesystem

    def _fs(self, op=None):
        if op is not None:
            self._server.record_op(op, ok=self._server.available)
        if not self._server.available:
            raise FsError("NFS server unavailable")
        return self._filesystem

    def subscribe(self, prefix, callback):
        """Change notifications under ``prefix``; the holder cancels the
        subscription when its container stops."""
        return self._fs().subscribe(prefix, callback)

    # Delegate the filesystem API through the liveness checks.

    def mkdir(self, path, parents=True):
        return self._fs("mkdir").mkdir(path, parents=parents)

    def write_file(self, path, content, append=False):
        return self._fs("write").write_file(path, content, append=append)

    def append_line(self, path, line):
        return self._fs("write").append_line(path, line)

    def read_file(self, path):
        return self._fs("read").read_file(path)

    def read_from(self, path, offset):
        return self._fs("read").read_from(path, offset)

    def exists(self, path):
        return self._fs("stat").exists(path)

    def mtime(self, path):
        return self._fs("stat").mtime(path)


class NfsServer:
    """Holds the volumes; hands out mounts."""

    def __init__(self, kernel, metrics, events):
        self._clock = lambda: kernel.now
        self._volumes = {}
        self.available = True
        self.events = events
        self._m_ops = metrics.counter(
            "nfs_ops_total", ("op",), help="NFS operations by kind")
        self._m_errors = metrics.counter(
            "nfs_op_errors_total", ("op",),
            help="NFS operations refused (stale mount or outage)")
        self._op_children = {}

    def record_op(self, op, ok=True):
        pair = self._op_children.get(op)
        if pair is None:
            pair = self._op_children[op] = (
                self._m_ops.labels(op=op), self._m_errors.labels(op=op))
        pair[0].inc()
        if not ok:
            pair[1].inc()

    def create_volume(self, name, exist_ok=False):
        if name in self._volumes:
            if exist_ok:
                return self._volumes[name]
            raise AlreadyExists(f"volume {name!r}")
        volume = SharedFilesystem(name=name, clock=self._clock)
        self._volumes[name] = volume
        return volume

    def volume(self, name):
        if name not in self._volumes:
            raise VolumeNotFound(name)
        return self._volumes[name]

    def mount(self, name):
        return Mount(self, name, self.volume(name))

    def go_down(self):
        """Simulate an NFS outage; mounts raise until :meth:`come_up`."""
        self.available = False
        self.events.emit_event("Warning", "NfsOutage", "NfsServer", "nfs",
                               message="shared filesystem unavailable")

    def come_up(self):
        self.available = True
        self.events.emit_event("Normal", "NfsRestored", "NfsServer", "nfs",
                               message="shared filesystem back")
