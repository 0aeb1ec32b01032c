"""Simulation-as-a-service: an async job API over the plan/executor.

The service turns the blocking CLI into a queue: clients POST a job
spec (one figure sweep or simulate campaign), poll its state, stream
its progress events, and fetch results that are byte-identical to a
direct CLI run -- because each job *is* a CLI run, executed in a child
process of its own against a shared
:class:`~repro.store.workspace.FileWorkspace` (see :mod:`repro.serve.jobs`
for why).  The child is a spare started ahead of the job, which has
already imported the CLI (:mod:`repro.jobchild`).

Three layers (DESIGN.md §17):

* :mod:`repro.serve.jobs` -- :class:`JobManager`: the persistent queue,
  lifecycle state machine, worker pool, dedup-by-spec-hash, crash
  recovery, and metrics folding;
* :mod:`repro.serve.api` -- the stdlib ``ThreadingHTTPServer`` endpoint
  layer (zero new dependencies);
* :mod:`repro.serve.client` -- :class:`ServiceClient`, the typed
  ``urllib`` client behind ``repro submit``.
"""

from repro.serve.api import ServiceServer, make_server, serve_forever
from repro.serve.client import JobView, ServiceClient, ServiceError
from repro.serve.jobs import (
    ALLOWED_COMMANDS,
    JobError,
    JobManager,
    spec_hash,
    validate_spec,
)

__all__ = [
    "ALLOWED_COMMANDS",
    "JobError",
    "JobManager",
    "JobView",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "make_server",
    "serve_forever",
    "spec_hash",
    "validate_spec",
]
