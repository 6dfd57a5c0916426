"""Instrumentation as a service: the persistent SuperPin daemon.

``superpin serve`` keeps one process resident so repeated
instrumentation requests stop paying per-run startup: submissions
arrive over a unix socket (newline-delimited JSON,
:mod:`repro.serve.protocol`), flow through a bounded per-tenant job
queue (:mod:`repro.serve.jobs`), execute against one shared worker pool
(:mod:`repro.serve.server`) on the programs and machines earlier jobs
left resident there, so a resubmitted program decodes next to nothing
and runs its loops as generated code from their first trip.

Clients: :class:`repro.serve.client.ServeClient` (blocking, used by
``superpin submit`` / ``superpin status``), or any program that speaks
the line protocol.
"""

from .client import ServeClient, ServeError
from .jobs import (Job, JobLog, JobQueue, JOB_STATES, QueueFull,
                   recover_jobs)
from .protocol import (decode_line, encode_line, MAX_LINE_BYTES,
                       ProtocolError, validate_request)
from .server import ServeDaemon

__all__ = [
    "ServeClient", "ServeError", "Job", "JobLog", "JobQueue",
    "JOB_STATES", "QueueFull", "recover_jobs", "decode_line",
    "encode_line", "MAX_LINE_BYTES", "ProtocolError", "validate_request",
    "ServeDaemon",
]
