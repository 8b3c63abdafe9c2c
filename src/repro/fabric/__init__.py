"""Distributed experiment fabric: lease-based job distribution.

The fabric turns one experiment batch into durable, claimable **lease
files** on a shared filesystem so independent worker processes — same
host or NFS peers — can run the engine's pickled jobs and survive
dying mid-job.  See :mod:`repro.fabric.protocol`
for the on-disk layout, :mod:`repro.fabric.lease` for the lease state
machine, :mod:`repro.fabric.broker` for the reaping/reassigning broker
the engine embeds, and :mod:`repro.fabric.worker` for the claim loop
behind ``pmp-repro fabric worker``.
"""

from .broker import FabricBroker
from .lease import FabricConfig
from .worker import FabricWorker

__all__ = ["FabricBroker", "FabricConfig", "FabricWorker"]
