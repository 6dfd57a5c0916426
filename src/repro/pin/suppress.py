"""Redundancy suppression: summarize invariant loop instrumentation.

Counting-style tools (icount, opcodemix) attach per-iteration analysis
calls whose payload is *invariant*: the same function, the same constant
arguments, every trip around a loop.  Executing the loop under
instrumentation then pays one analysis call per iteration for
information that is a pure function of the trip count.  Following the
redundancy-suppression literature (PAPERS.md), a hot single-BBL
back-edge loop whose every analysis call declares a *summary form*
(``insert_summarized_call``) compiles into a summarized loop: the body
semantics run per iteration, but the instrumentation fires **once** per
loop exit as ``summary(iterations, *args)``.

Legality (the audit's divergence taxonomy must stay silent):

* the loop is the trace's first basic block and its tail branches back
  to the trace head (``bne ... head`` or a single-BBL ``j head``);
* no body address is a forced boundary — a SuperPin signature pc inside
  the loop must observe every iteration, so suppression bails out;
* no body instruction can fault (no ``div``/``mod``; no memory ops in
  strict memory mode) — a mid-loop fault would need per-iteration
  unwind markers;
* no syscalls (they end traces anyway) and no if/then, after, or
  taken-branch calls — only IPOINT_BEFORE calls are summarizable;
* every before-call has a summary **and** fully static arguments
  (:func:`~repro.pin.args.try_static_args`) — a register or memory
  operand varies per iteration and cannot be summarized.

The trip count is capped (:data:`LOOP_TRIP_CAP`): a summarized loop
otherwise never returns to the dispatcher, bypassing the engine's
instruction budget and SP_EndSlice.  At the cap the loop fires its
summary for the trips so far and exits to its own head, where the
dispatcher re-enters it (via the direct link on the hot path).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import Op
from .args import try_static_args
from .trace import Ins, TraceObj

#: Maximum back-edge trips per summarized-loop invocation.  Bounds the
#: engine's budget-check latency to ``LOOP_TRIP_CAP * MAX_TRACE_INS``
#: guest instructions while keeping per-exit summary overhead negligible.
LOOP_TRIP_CAP = 4096


@dataclass
class LoopPlan:
    """A legal summarization of one trace's leading loop."""

    #: Trace head == loop head address.
    start: int
    #: The loop body (the trace's first BBL), tail included.
    body: list[Ins]
    #: Instructions per iteration (``len(body)``).
    body_len: int
    #: The back-edge branch (``body[-1]``).
    tail: Ins
    #: Instructions after the loop (the branch-not-taken suffix).
    rest: list[Ins]
    #: ``(summary_fn, static_args)`` per summarized call, program order.
    summaries: list[tuple[object, tuple]]


def plan_suppression(engine, trace_obj: TraceObj) -> LoopPlan | None:
    """Plan a summarized lowering for ``trace_obj``, or None.

    Returns a :class:`LoopPlan` when the trace's first BBL is a loop that
    meets every legality condition above; any doubt returns None and the
    trace lowers normally.
    """
    if not getattr(engine, "suppress_loops", False):
        return None
    bbls = trace_obj.bbls
    if not bbls:
        return None
    body = bbls[0].instructions
    if not body:
        return None
    start = trace_obj.address
    tail = body[-1]
    # A conditional back edge, or ``j head`` (exits only via the cap).
    if (not (tail.info.is_cond_branch or tail.op is Op.J)
            or tail.imm != start):
        return None

    forced = engine.forced_boundaries
    strict_mem = engine.mem.strict
    summaries: list[tuple[object, tuple]] = []
    for ins in body:
        if ins.address in forced:
            return None  # signature pc inside the loop: observe every trip
        if ins.op in (Op.DIV, Op.MOD):
            return None
        if strict_mem and (ins.is_memory_read or ins.is_memory_write):
            return None
        if ins.is_syscall:
            return None
        if ins.if_then or ins.after_calls or ins.taken_calls:
            return None
        for call in ins.before_calls:
            if call.summary is None:
                return None
            args = try_static_args(call.specs, ins)
            if args is None:
                return None
            summaries.append((call.summary, args))
    if not summaries:
        return None

    rest = [ins for bbl in bbls[1:] for ins in bbl.instructions]
    return LoopPlan(start=start, body=body, body_len=len(body), tail=tail,
                    rest=rest, summaries=summaries)
