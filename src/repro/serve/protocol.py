"""The serve wire protocol: newline-delimited JSON over a unix socket.

One request or event per line, UTF-8, ``\\n``-terminated.  Requests are
objects with an ``op`` field; the daemon answers every request with
exactly one response object (``{"ok": true, ...}`` or ``{"ok": false,
"error": ..., "code": ...}``), then — for streaming submissions and
watches — a sequence of event objects (``{"event": ..., "job_id": ...,
...}``) ending with a terminal ``done`` or ``failed`` event.

Requests
--------

``{"op": "ping"}``
    Liveness probe; answered ``{"ok": true, "pong": true}``.
``{"op": "submit", "tenant": T, "stream": bool, "job": SPEC}``
    Enqueue one SuperPin run.  ``SPEC`` names either a suite workload
    (``{"workload": "gzip", "scale": 0.25}``) or inline assembly
    (``{"asm": "..."}``), plus ``tool`` (see ``superpin list``),
    optional ``switches`` (the ``-sp*`` argv list) and ``seed``.
    With ``stream`` the connection stays open and receives the job's
    ``state``/``progress``/``metrics`` events through to the terminal
    event; without it the response (job id) is the whole exchange.
``{"op": "status"}`` / ``{"op": "status", "job_id": J}``
    Daemon snapshot (queue depths, counters, every job's state) or one
    job's record.
``{"op": "watch", "job_id": J}``
    Stream an already-submitted job's remaining events.
``{"op": "cancel", "job_id": J}``
    Cancel a queued or running job (terminal state ``failed``, error
    ``"cancelled"``).
``{"op": "shutdown"}``
    Graceful stop: the daemon finishes writing its state-dir exports
    and exits.

Lines are bounded (:data:`MAX_LINE_BYTES`) so a malformed client
cannot balloon daemon memory; oversize or undecodable lines are
protocol errors and close the connection.
"""

from __future__ import annotations

import json

from ..workloads.spec import positive_scale

#: Upper bound for one protocol line (requests carry inline assembly
#: sources, so this is generous — but still a bound).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Every op a request may carry.
OPS = ("ping", "submit", "status", "watch", "cancel", "shutdown")


class ProtocolError(ValueError):
    """A malformed request or frame; the connection is closed."""


class BadJobSpec(ProtocolError):
    """A well-formed ``submit`` whose job spec is malformed: answered
    ``bad_spec``, like a spec naming what the daemon cannot run, and the
    connection stays open."""


def encode_line(obj) -> bytes:
    """One protocol frame: compact JSON, newline-terminated."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode_line(line: bytes):
    """Decode one frame; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds "
                            f"{MAX_LINE_BYTES}")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


def validate_request(request: dict) -> str:
    """Check a request's shape; returns its ``op``.

    Shape errors raise :class:`ProtocolError` with a message safe to
    echo back to the client.
    """
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of "
                            f"{', '.join(OPS)})")
    if op == "submit":
        spec = request.get("job")
        if not isinstance(spec, dict):
            raise ProtocolError("submit requires a 'job' object")
        validate_job_spec(spec)
        tenant = request.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("'tenant' must be a non-empty string")
    if op in ("watch", "cancel"):
        if not isinstance(request.get("job_id"), str):
            raise ProtocolError(f"{op} requires a 'job_id' string")
    return op


def validate_job_spec(spec: dict) -> None:
    """Check one job spec's shape — program source, tool, switches,
    scale, seed — raising :class:`BadJobSpec` at the first problem."""
    has_workload = isinstance(spec.get("workload"), str)
    has_asm = isinstance(spec.get("asm"), str)
    if has_workload == has_asm:
        raise BadJobSpec(
            "job spec needs exactly one of 'workload' or 'asm'")
    tool = spec.get("tool", "icount2")
    if not isinstance(tool, str):
        raise BadJobSpec("'tool' must be a string")
    switches = spec.get("switches", [])
    if (not isinstance(switches, list)
            or not all(isinstance(s, str) for s in switches)):
        raise BadJobSpec("'switches' must be a list of strings")
    try:
        positive_scale(spec.get("scale", 0.25))
    except ValueError as error:
        raise BadJobSpec(f"'scale': {error}") from None
    seed = spec.get("seed", 42)
    if not isinstance(seed, int):
        raise BadJobSpec("'seed' must be an integer")
