"""The resilient simulation service behind ``repro-serve``.

A long-running daemon that accepts simulation sweep jobs over a local
HTTP+JSON API and executes them on the fault-tolerant pool path from
:mod:`repro.resilience`, degrading predictably under overload and
failure instead of falling over:

- :mod:`repro.service.queue` — bounded job queue with watermark
  hysteresis and load shedding (HTTP 429 + ``Retry-After``);
- :mod:`repro.service.admission` — validate and cost every job at the
  door (probe-count budget, ``config_hash`` identity);
- :mod:`repro.service.breaker` — three-state circuit breakers around
  trace ingestion and pool execution;
- :mod:`repro.service.drain` — two-phase signal drain (graceful,
  then hard exit 130) and the worker watchdog;
- :mod:`repro.service.server` — the service core and the stdlib HTTP
  layer (``/jobs``, ``/healthz``, ``/readyz``, ``/metrics``);
- :mod:`repro.service.servecli` — the ``repro-serve`` entry point.

Everything is stdlib-only (``http.server`` + threads) and unit-
testable without sockets: the HTTP layer is a thin adapter over
:class:`~repro.service.server.SimulationService`.
"""

from repro.service.admission import AdmissionController, estimate_probe_count
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.drain import HARD_EXIT_CODE, DrainCoordinator, Watchdog
from repro.service.queue import BoundedJobQueue
from repro.service.server import (
    Job,
    ServiceHTTPServer,
    SimulationService,
    serve_in_thread,
)

__all__ = [
    "AdmissionController",
    "BoundedJobQueue",
    "CircuitBreaker",
    "CLOSED",
    "DrainCoordinator",
    "HALF_OPEN",
    "HARD_EXIT_CODE",
    "Job",
    "OPEN",
    "ServiceHTTPServer",
    "SimulationService",
    "Watchdog",
    "estimate_probe_count",
    "serve_in_thread",
]
