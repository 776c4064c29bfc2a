"""repro: a reproduction of "Dependability in a Multi-tenant
Multi-framework Deep Learning as-a-Service Platform" (Boag et al.,
DSN 2018).

The package implements IBM DLaaS end to end as a deterministic
simulation: the Kubernetes platform layer (:mod:`repro.cluster`), a
Raft-replicated ETCD (:mod:`repro.raftkv`), a MongoDB-style document
store (:mod:`repro.docstore`), shared NFS volumes (:mod:`repro.nfs`), a
cloud object store (:mod:`repro.objectstore`), the RPC fabric
(:mod:`repro.grpcnet`), DL framework performance models
(:mod:`repro.frameworks`), and the DLaaS core services themselves
(:mod:`repro.core`), all on a discrete-event kernel (:mod:`repro.sim`).

Quickstart::

    from repro import DlaasPlatform

    platform = DlaasPlatform(seed=42).start()
    client = platform.client("my-team")
    ...
"""

from .core import (
    DlaasClient,
    DlaasError,
    DlaasPlatform,
    Fault,
    InvalidManifest,
    PlatformConfig,
    TrainingManifest,
    fire,
)

__version__ = "0.1.0"

__all__ = [
    "DlaasClient",
    "DlaasError",
    "DlaasPlatform",
    "Fault",
    "InvalidManifest",
    "PlatformConfig",
    "TrainingManifest",
    "__version__",
    "fire",
]
