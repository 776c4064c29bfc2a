"""Unit tests for the shared filesystem and NFS server."""

import pytest

from repro.nfs import (
    AlreadyExists,
    FsError,
    IsADirectory,
    NotFound,
    SharedFilesystem,
    VolumeNotFound,
)
from repro.sim import Kernel

from ..observers import Observers, nfs_server


@pytest.fixture
def fs():
    return SharedFilesystem()


class TestFiles:
    def test_write_read(self, fs):
        fs.write_file("/job/learner-0/exit-code", "0")
        assert fs.read_file("/job/learner-0/exit-code") == "0"

    def test_write_creates_parents(self, fs):
        fs.write_file("/a/b/c/d.txt", "x")
        assert fs.exists("/a/b/c/d.txt")
        with pytest.raises(IsADirectory):
            fs.read_file("/a/b/c")

    def test_overwrite(self, fs):
        fs.write_file("/f", "one")
        fs.write_file("/f", "two")
        assert fs.read_file("/f") == "two"

    def test_append(self, fs):
        fs.write_file("/log", "line1\n")
        fs.write_file("/log", "line2\n", append=True)
        assert fs.read_file("/log") == "line1\nline2\n"

    def test_append_line(self, fs):
        fs.append_line("/log", "a")
        fs.append_line("/log", "b\n")
        assert fs.read_file("/log") == "a\nb\n"

    def test_read_from_offset_tail(self, fs):
        fs.write_file("/log", "0123456789")
        assert fs.read_from("/log", 4) == "456789"
        assert fs.read_from("/log", 10) == ""

    def test_read_missing_raises(self, fs):
        with pytest.raises(NotFound):
            fs.read_file("/ghost")

    def test_read_directory_raises(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.read_file("/d")


class TestDirectories:

    def test_mkdir_no_parents_requires_parent(self, fs):
        with pytest.raises(NotFound):
            fs.mkdir("/x/y", parents=False)

    def test_mkdir_no_parents_exclusive(self, fs):
        fs.mkdir("/x")
        with pytest.raises(AlreadyExists):
            fs.mkdir("/x", parents=False)


class TestNfsServer:
    def test_volume_lifecycle(self):
        server = nfs_server(Kernel())
        volume = server.create_volume("job-1")
        assert server.volume("job-1") is volume
        with pytest.raises(VolumeNotFound):
            server.volume("job-2")

    def test_duplicate_volume_rejected_unless_exist_ok(self):
        server = nfs_server(Kernel())
        server.create_volume("v")
        with pytest.raises(AlreadyExists):
            server.create_volume("v")
        assert server.create_volume("v", exist_ok=True) is server.volume("v")

    def test_mounts_share_state(self):
        server = nfs_server(Kernel())
        server.create_volume("shared")
        learner_mount = server.mount("shared")
        helper_mount = server.mount("shared")
        learner_mount.write_file("/exit-code", "137")
        assert helper_mount.read_file("/exit-code") == "137"

    def test_server_outage_blocks_io(self):
        observers = Observers(Kernel())
        server = nfs_server(observers.kernel, observers)
        server.create_volume("v")
        mount = server.mount("v")
        mount.write_file("/f", "x")
        server.go_down()
        with pytest.raises(FsError):
            mount.read_file("/f")
        server.come_up()
        assert mount.read_file("/f") == "x"
        assert [e.reason for e in observers.events.events()] == [
            "NfsOutage", "NfsRestored"]

    def test_clock_stamps_mtime(self):
        kernel = Kernel()
        server = nfs_server(kernel)
        volume = server.create_volume("v")

        def writer():
            yield kernel.sleep(5.0)
            volume.write_file("/f", "x")

        kernel.spawn(writer())
        kernel.run()
        assert volume.mtime("/f") == 5.0


class TestMountSurface:
    def test_mount_proxies_full_api(self):
        server = nfs_server(Kernel())
        server.create_volume("v")
        mount = server.mount("v")
        mount.mkdir("/dir")
        assert mount.exists("/dir")
        mount.write_file("/dir/f", "abc")
        mount.append_line("/dir/f", "d")
        assert mount.read_file("/dir/f") == "abcd\n"
        assert mount.mtime("/dir/f") == 0.0
        assert mount.read_from("/dir/f", 1) == "bcd\n"


class TestChangeSubscriptions:
    def test_callback_fires_on_every_write(self, fs):
        seen = []
        fs.subscribe("/learners/", seen.append)
        fs.write_file("/learners/learner-0/status", "x")
        fs.write_file("/helper/load-data.status", "y")  # outside prefix
        fs.append_line("/learners/learner-0/status", "z")
        assert seen == ["/learners/learner-0/status",
                        "/learners/learner-0/status"]

    def test_cancel_stops_delivery(self, fs):
        seen = []
        subscription = fs.subscribe("/", seen.append)
        fs.write_file("/a", "1")
        subscription.cancel()
        fs.write_file("/b", "2")
        assert seen == ["/a"]
        assert not subscription.active
