"""repro.serve — the equivalence checker as a long-running service.

Everything below runs on the standard library alone: :mod:`asyncio`
streams and a hand-rolled HTTP/1.1 subset (no ``http.server``), the
spawn worker pool of :mod:`repro.jobs` for isolation, its journal
machinery for durability, and the static-analysis
:class:`~repro.analysis.static.CheckCache` as the shared verdict
store.  Module map:

* :mod:`~repro.serve.protocol` — request/response vocabulary,
  validation, netlist parsing + lint at the front door.
* :mod:`~repro.serve.scheduler` — bounded admission, per-tenant
  fair-share dispatch, ``Retry-After`` sizing.
* :mod:`~repro.serve.executor` — job specs/records and the worker
  pool front (SIGKILL-able check execution).
* :mod:`~repro.serve.slots` — :class:`~repro.serve.slots.SlotPool`,
  single-slot worker pools behind an async idle queue, with crash
  backoff.
* :mod:`~repro.serve.store` — append-only job journal; a restarted
  server resumes queued jobs and reports lost ones.
* :mod:`~repro.serve.server` — the asyncio HTTP server tying it all
  together.
* :mod:`~repro.serve.client` — blocking socket client for scripts,
  tests and docs.

Run it: ``python -m repro.serve --port 8421 --jobs 4`` — see
``docs/service.md`` for the protocol and a runnable quickstart.
"""

from .client import ServeClient, ServeError
from .executor import JobRecord, JobSpec
from .protocol import (PROTOCOL_VERSION, ProtocolError, pair_to_request,
                       parse_submit)
from .scheduler import FairScheduler, QueueFull
from .server import EquivalenceServer, ServeConfig
from .store import JobStore

__all__ = [
    "PROTOCOL_VERSION",
    "EquivalenceServer",
    "FairScheduler",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "ProtocolError",
    "QueueFull",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "pair_to_request",
    "parse_submit",
]
