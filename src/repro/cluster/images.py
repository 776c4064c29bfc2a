"""Docker image registry with per-node pull caches.

DLaaS maintains a Docker image per DL framework (paper §III.a). The
framework images are gigabytes (Caffe/TensorFlow with CUDA), while the
GoLang microservice images are tens of megabytes — a major reason
learners take longest to recover in Fig. 4: a cold restart on a new
node re-pulls a large image.
"""

from .errors import NotFoundError

PULL_BANDWIDTH_MB = 200.0  # registry-to-node pull rate, MB per sim second
CACHED_CHECK_TIME = 0.05  # a pull's manifest check, cached or not, sim s


class ImageRegistry:
    """Image catalogue plus pull-time model and node caches."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._images = {}
        self._node_caches = {}
        self.pulls = 0
        self.cache_hits = 0

    def register(self, name, size_mb):
        if size_mb <= 0:
            raise ValueError(f"image size must be positive: {size_mb}")
        self._images[name] = size_mb
        return self

    def size_of(self, name):
        if name not in self._images:
            raise NotFoundError(f"image {name!r} not in registry")
        return self._images[name]

    def pull(self, node_name, image):
        """Process generator: pull (or confirm cached) an image."""
        size = self.size_of(image)
        cache = self._node_caches.setdefault(node_name, set())
        if image in cache:
            self.cache_hits += 1
            yield self.kernel.sleep(CACHED_CHECK_TIME)
            return
        self.pulls += 1
        yield self.kernel.sleep(CACHED_CHECK_TIME + size / PULL_BANDWIDTH_MB)
        cache.add(image)

    def prewarm(self, node_name, image):
        """Mark an image already present (DaemonSet-style pre-pull)."""
        self.size_of(image)  # validate
        self._node_caches.setdefault(node_name, set()).add(image)
