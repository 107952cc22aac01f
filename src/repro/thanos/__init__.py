"""Thanos-style long-term storage.

Paper Fig. 1: the hot Prometheus *"will replicate the data to Thanos,
which provides long-term storage capabilities"*.  This package
reproduces the pieces of Thanos the stack exercises:

* :class:`~repro.thanos.sidecar.Sidecar` — ships completed 2-hour
  blocks from the hot TSDB into the object store;
* :class:`~repro.thanos.store.ObjectStore` — immutable blocks of raw
  and downsampled data with per-resolution retention;
* :class:`~repro.thanos.compact.Compactor` — merges blocks and
  produces the 5-minute and 1-hour downsampled resolutions that make
  year-long queries tractable (the substrate of bench E8);
* :class:`~repro.thanos.query.FanoutStorage` — a querier that merges
  hot-TSDB and raw store data behind the same ``select`` interface
  the PromQL engine uses.
"""

from repro.thanos.compact import Compactor
from repro.thanos.query import FanoutStorage
from repro.thanos.sidecar import Sidecar
from repro.thanos.store import ObjectStore

__all__ = ["Sidecar", "ObjectStore", "Compactor", "FanoutStorage"]
