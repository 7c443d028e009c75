"""HTTP/JSON service over the pipeline API (``regel serve``).

The service turns the library's wire-ready types into an actual wire: a
:class:`~repro.api.Problem` posted to ``/v1/solve`` comes back as a
:class:`~repro.api.RunReport`, async jobs stream partial solutions through
``/v1/jobs``, and every completed solve is written through a persistent
Problem-keyed result cache so identical requests across users are served in
microseconds.  Stdlib only — no new runtime dependencies.

Layers (see ``docs/architecture.md``):

* :mod:`repro.service.wire` — schemas, validation, error envelopes,
* :mod:`repro.service.cache` — persistent content-addressed result store
  (a JSON directory, LRU-bounded, counted),
* :mod:`repro.service.pool` — bounded worker pool, one warm
  :class:`~repro.api.Session` per worker, 429 back-pressure,
* :mod:`repro.service.handlers` — transport-free endpoint logic,
* :mod:`repro.service.server` — the ``http.server`` routing shim,
* :mod:`repro.service.client` — a urllib client (``regel client``).
"""

from repro.service.batch import (
    ITEM_STATUSES,
    BatchRecord,
    BatchStore,
)
from repro.service.cache import CacheCorruption, ResultCache
from repro.service.client import JobLostError, ServiceClient, ServiceError
from repro.service.handlers import ServiceConfig, ServiceState
from repro.service.pool import Job, PoolSaturated, WorkerPool
from repro.service.server import RegelHTTPServer, serve, start_server
from repro.service.wire import WIRE_SCHEMA, WireError

__all__ = [
    "ITEM_STATUSES",
    "BatchRecord",
    "BatchStore",
    "CacheCorruption",
    "ResultCache",
    "JobLostError",
    "ServiceClient",
    "ServiceError",
    "ServiceConfig",
    "ServiceState",
    "Job",
    "PoolSaturated",
    "WorkerPool",
    "RegelHTTPServer",
    "serve",
    "start_server",
    "WIRE_SCHEMA",
    "WireError",
]
