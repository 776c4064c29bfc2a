"""Sharded DLaaS deployment: platform cells on a partitioned kernel.

``ShardedPlatform(config, cells=N)`` is a deployment of N *cells*. Each
cell is a complete control plane — its own API/LCM replicas, etcd and
Mongo quorums, NFS, cluster slice — assembled as a stock
:class:`~repro.core.platform.DlaasPlatform` on a **private kernel
shard** (see :mod:`repro.sim.shard`), and owns a slice of the job
space. This is the FfDL-shaped scale-out of the paper's architecture:
nothing is shared between cells except explicit federation RPCs, which
cross the shard boundary as serialized single-copy messages with the
``SHARD_LINK_LATENCY`` floor.

``DlaasPlatform`` itself is always one cell and knows nothing of this
module; a one-cell ``ShardedPlatform`` replays it bit for bit.

Determinism: the cell timelines plus the boundary-message log merge
into one fingerprint (:func:`repro.sim.shard.merged_digest`). The
merge is identical for any worker count — asserted by
``benchmarks/bench_perf.py`` and ``tests/property/
test_shard_determinism.py``.
"""

from dataclasses import replace

from ..grpcnet import Server
from ..sim import Kernel, ShardedKernel, merged_digest
from .platform import DlaasPlatform
from .timeline import timeline_digest


def federation_address(cell_id):
    return f"dlaas-federation-{cell_id}"


# Latency floor of a cross-cell boundary message, and therefore the
# conservative-lookahead window of the sharded kernel: raising it buys
# bigger parallel windows at the price of staler federation state.
SHARD_LINK_LATENCY = 0.25


class FederationService:
    """A cell's inter-cell endpoint: peers report liveness and job
    completions here; everything received lands in the cell's trace
    (and therefore in the merged digest)."""

    def __init__(self, cell_id, platform):
        self.cell_id = cell_id
        self.platform = platform
        self.heartbeats = []
        self.announcements = []
        server = Server(platform.kernel, platform.network,
                        federation_address(cell_id))
        server.add_method("heartbeat", self._on_heartbeat)
        server.add_method("announce", self._on_announce)
        server.start()
        self.server = server

    def _on_heartbeat(self, request):
        self.heartbeats.append(
            (self.platform.kernel.now, request["cell"], request["completed"]))
        self.platform.tracer.emit(
            f"federation-{self.cell_id}", "federation-heartbeat",
            cell=request["cell"], completed=request["completed"])
        return {"ok": True}

    def _on_announce(self, request):
        jobs = tuple(request["jobs"])
        self.announcements.append(
            (self.platform.kernel.now, request["cell"], jobs))
        self.platform.tracer.emit(
            f"federation-{self.cell_id}", "federation-announce",
            cell=request["cell"], jobs=len(jobs))
        return {"ok": True, "known_cells": len(self.announcements)}


class PlatformShard:
    """One cell of a sharded deployment, plus the driver running its
    slice of the workload.

    Implements the shard-program protocol of :class:`repro.sim.shard.
    ShardedKernel`: ``kernel``/``port``/``done``/``settle_time()``/
    ``result()``. The ``driver`` is a module-level generator function
    ``driver(cell, *args)`` (module-level so multiprocessing workers
    can import it); it must leave the job documents in ``cell.docs``.
    """

    def __init__(self, slot, config, seed, driver, driver_args, settle):
        self.cell_id = slot.shard_id
        self.num_cells = slot.num_shards
        self.settle = settle
        # A solo cell keeps the plain seed: cells=1 must replay the
        # unsharded platform bit for bit. Real cells fork the seed so
        # no two cells run correlated RNG streams.
        cell_seed = seed if slot.num_shards == 1 else f"{seed}#cell{slot.shard_id}"
        self.kernel = Kernel(seed=cell_seed)
        self.port = slot.bind(self.kernel)
        self.platform = DlaasPlatform(kernel=self.kernel, config=config)
        self.federation = None
        if self.num_cells > 1:
            network = self.platform.network
            network.bind_shard(self.port)
            self.federation = FederationService(self.cell_id, self.platform)
            for peer in self.peers:
                network.add_remote(federation_address(peer), peer)
        self.platform.start()
        self.docs = None
        self._driver_done_at = None
        self.driver_process = self.kernel.spawn(
            driver(self, *driver_args), name=f"cell-{self.cell_id}-driver")
        self.driver_process.add_callback(self._on_driver_done)

    @property
    def peers(self):
        return tuple(i for i in range(self.num_cells) if i != self.cell_id)

    def _on_driver_done(self, _process):
        self._driver_done_at = self.kernel.now

    # -- driver conveniences -------------------------------------------

    def broadcast(self, method, request):
        """Driver helper (generator): call ``method`` on every peer's
        federation endpoint, in cell order, awaiting each response."""
        responses = []
        for peer in self.peers:
            responses.append((yield self.platform.network.call(
                federation_address(peer), method, request,
                caller=federation_address(self.cell_id))))
        return responses

    def start_heartbeats(self, interval):
        """Periodic fire-and-forget liveness gossip to every peer until
        the driver finishes; steady cross-shard traffic that keeps the
        lookahead protocol honest under load."""
        if not self.peers or interval <= 0:
            return None

        def beat():
            network = self.platform.network
            while not self.driver_process.triggered:
                yield self.kernel.sleep(interval)
                if self.driver_process.triggered:
                    return
                completed = sum(
                    1 for d in (self.docs or ()) if d is not None)
                for peer in self.peers:
                    network.call(federation_address(peer), "heartbeat",
                                 {"cell": self.cell_id,
                                  "completed": completed},
                                 caller=federation_address(self.cell_id))

        return self.kernel.spawn(beat(), name=f"cell-{self.cell_id}-heartbeat")

    # -- shard-program protocol ----------------------------------------

    @property
    def done(self):
        return self.driver_process.triggered

    def settle_time(self):
        if self._driver_done_at is None:
            return None
        return self._driver_done_at + self.settle

    def result(self):
        docs = self.docs or []
        failure = None
        if self.driver_process.state == "failed":
            failure = repr(self.driver_process.exception)
        return {
            "cell": self.cell_id,
            "jobs": len(docs),
            "completed": sum(1 for d in docs
                             if d and d.get("status") == "COMPLETED"),
            "driver_done": None if self._driver_done_at is None
            else round(self._driver_done_at, 9),
            "now": round(self.kernel.now, 9),
            "events_processed": self.kernel.events_processed,
            "digest": timeline_digest(self.platform, docs),
            "driver_failed": failure,
            "heartbeats_received":
                len(self.federation.heartbeats) if self.federation else 0,
            "announcements_received":
                len(self.federation.announcements) if self.federation else 0,
            "boundary": self.port.counters(),
        }


def build_platform_shard(slot, config, seed, driver, driver_args, settle):
    """Module-level cell builder (multiprocessing workers import it)."""
    return PlatformShard(slot, config, seed, driver, driver_args, settle)


def cell_config(config, cells, cell_id):
    """The per-cell shape of an N-cell deployment: the GPU pool is
    divided across cells (remainder to the first ones); control-plane
    sizing stays as configured — every cell is a full control plane,
    that is the point of the sharded architecture."""
    base, remainder = divmod(config.gpu_nodes, cells)
    gpu_nodes = base + (1 if cell_id < remainder else 0)
    if gpu_nodes == 0:
        raise ValueError(
            f"{cells} cells over {config.gpu_nodes} GPU nodes leaves "
            f"cell {cell_id} empty")
    return replace(config, gpu_nodes=gpu_nodes)


class ShardedPlatform:
    """An N-cell DLaaS deployment driven as one partitioned simulation.

    ``config`` is the whole deployment's (its GPU nodes are divided
    over the ``cells``); ``driver`` is the per-cell workload generator
    (see :class:`PlatformShard`). ``run()`` executes the whole
    federation — ``workers`` picks parallelism only and never changes
    the merged timeline.
    """

    def __init__(self, config, cells, seed=0, driver=None, driver_args=(),
                 settle=30.0):
        if driver is None:
            raise ValueError("ShardedPlatform needs a driver")
        if cells < 1:
            raise ValueError(f"cells must be >= 1: {cells}")
        self.cells = cells
        self.lookahead = SHARD_LINK_LATENCY
        self._specs = [
            (build_platform_shard,
             (cell_config(config, cells, cell_id), seed, driver, driver_args,
              settle),
             {})
            for cell_id in range(cells)
        ]
        self.sharded = None
        self.results = None
        self.digest = None

    def run(self, workers=None, executor="process", limit=None):
        sharded = ShardedKernel(self._specs, lookahead=self.lookahead,
                                workers=workers, executor=executor)
        sharded.run(limit=limit)
        self.sharded = sharded
        self.results = sharded.results
        self.digest = merged_digest(
            [r["digest"] for r in self.results], sharded.message_digest)
        return self

    @property
    def stats(self):
        return self.sharded.stats if self.sharded else None
