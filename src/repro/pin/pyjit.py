"""The generated-code lowering.

Threaded code (:mod:`repro.pin.jit`) lowers each instruction to a
closure.  This lowering *generates Python source* for the whole trace
from the same table, compiles it with ``compile``/``exec``, and runs
straight-line generated code with no per-instruction dispatch.  It
is the moral equivalent of Pin's code-cache emission: the trace becomes
one callable, branches become early returns, and instrumentation is
spliced between statements.

:class:`_Emitter` is the lowering; which traces get it is the JIT's
decision (:meth:`repro.pin.jit.Jit.compile`).  :class:`SourceJit` is
that JIT with the decision pinned — ``PinVM(..., jit_backend="source")``
or ``SuperPinConfig(jit_backend="source")``: every trace generated, the
reference the differential tests hold the default against.

Contract (shared with threaded code):

* identical architectural effects — by construction: both lowerings
  format the same row of :data:`repro.pin.jit.SEMANTICS`, this one with
  the operands as literals;
* identical analysis-call ordering (if/then pairs run before plain
  before-calls at the same instruction — the SuperPin detection rule) —
  by construction too: the statements come from one
  :func:`repro.pin.jit.weave`, qualified here by instruction index;
* identical instruction counts, and :class:`~repro.pin.jit.StopRun` and
  faults unwind to the raising instruction's boundary — the generated
  code maintains ``engine._stop_pc`` / ``engine._stop_count`` markers
  before any statement that can raise.  This, the dispatch loop and the
  summarized loop are what this module still states on its own, and what
  the differential tests (``tests/test_pin/test_pyjit.py``,
  ``test_tiering.py``, ``test_semantics_table.py``) guard; the table
  itself is held against the interpreter in
  ``tests/test_machine/test_golden_model.py``.
"""

from __future__ import annotations

from .jit import (BARE, CONSTANTS, Jit, NEVER, OPERANDS, SEMANTICS,
                  call_shape, call_values, operands, statements, weave)
from .suppress import LOOP_TRIP_CAP, LoopPlan
from .trace import Ins


class SourceCompiledTrace:
    """Executable form of one trace: a single generated function.

    ``fn() -> (result, executed)`` where ``result`` follows the step
    protocol (None = fell off the end, >= 0 = branch target,
    EXIT_GUEST = guest exited) and ``executed`` counts retired
    instructions for that invocation.
    """

    __slots__ = ("start", "fn", "num_ins", "fall_address", "source",
                 "bbl_sizes", "links", "exec_count", "unbounded", "heat")

    is_source = True
    #: Compile tier (see repro.pin.superblock): eligible for TC2.
    tier = 1
    #: Already generated code: nothing to promote to.
    hot_at = NEVER

    def __init__(self, start: int, fn, num_ins: int,
                 fall_address: int | None, source: str,
                 bbl_sizes: list[int], unbounded: bool = False):
        self.start = start
        self.fn = fn
        self.num_ins = num_ins
        self.fall_address = fall_address
        self.source = source
        self.bbl_sizes = bbl_sizes
        #: Direct trace links: exit pc -> successor trace (see
        #: repro.pin.jit.CompiledTrace.links).
        self.links: dict[int, object] = {}
        #: The TC2 promotion trigger, and ``Jit.heat``'s cell for this
        #: pc (see repro.pin.jit.CompiledTrace).
        self.exec_count = 0
        self.heat: list[int] | None = None
        #: True when the trace contains a summarized loop: one ``fn()``
        #: call may then retire far more than ``num_ins`` instructions,
        #: so the engine's exact-budget mode single-steps it instead.
        self.unbounded = unbounded


class SourceJit(Jit):
    """The JIT with every trace lowered to generated code."""

    all_generated = True


def _literals(ins: Ins) -> dict[str, int]:
    """``ins``'s operand fields by name, for formatting its row."""
    return dict(zip(OPERANDS, operands(ins)))


class _Emitter:
    """Builds the source text and the exec namespace for one trace."""

    def __init__(self, engine):
        self._engine = engine
        self._lines: list[str] = []
        self._indent = 1
        #: True once a summarized loop has been emitted for this trace.
        self.suppressed = False
        #: Instruction-count base expression: None for an absolute count
        #: (the normal whole-trace lowering), or a variable name (the
        #: post-loop suffix of a summarized trace counts retired
        #: instructions relative to ``_base``).
        self._count_base: str | None = None
        self.namespace: dict[str, object] = {
            **CONSTANTS,
            "E": engine,
            "cpu": engine.cpu,
            "regs": engine.cpu.regs,
            "RD": engine.mem.read,
            "WR": engine.mem.write,
            "ctr": engine.counters,
        }

    # -- low-level text helpers ----------------------------------------------

    def line(self, text: str) -> None:
        self._lines.append("    " * self._indent + text)

    def _bind(self, stem: str, value) -> str:
        name = f"_{stem}"
        self.namespace[name] = value
        return name

    def _count(self, n: int) -> str:
        """Retired-instruction count expression for offset ``n``."""
        if self._count_base is None:
            return str(n)
        return f"{self._count_base} + {n}"

    # -- instrumentation ------------------------------------------------------

    def _emit_calls(self, index: int, ins: Ins
                    ) -> tuple[list[str], list[str]]:
        """Emit the unwind markers and whatever runs ahead of ``ins``;
        return its (taken, after) statements for the caller to splice
        at the right control point (:func:`repro.pin.jit.weave`)."""
        shape = call_shape(ins)
        mem = self._engine.mem
        # Strict memory mode can fault on any access, so every memory
        # instruction needs exact unwind markers there.
        if (shape is not BARE or SEMANTICS[ins.op][2]
                or (mem.strict and (ins.is_memory_read
                                    or ins.is_memory_write))):
            # Progress markers so StopRun/faults unwind exactly.
            self.line(f"E._stop_pc = {ins.address}")
            self.line(f"E._stop_count = {self._count(index)}")
        if shape is BARE:
            return (), ()
        names, before, taken, after = weave(shape, f"{index}_")
        self.namespace.update(
            zip(names, call_values(ins, self._engine.cpu, mem)))
        for stmt in before:
            self.line(stmt)
        return taken, after

    # -- per-instruction lowering ---------------------------------------------

    def lower(self, index: int, ins: Ins,
              texts: list[tuple[str, ...] | None] | None = None) -> None:
        """Lower one instruction: its calls around its semantics.

        ``texts`` is the trace's pool of semantics text (None: keep
        none): ``texts[index]`` holds the lines :meth:`_semantics` emits
        for this instruction when no taken-branch call is spliced into
        them — a function of the decoded instruction and its position
        alone — and is filled in here the first time they are emitted.
        """
        taken, after = self._emit_calls(index, ins)
        lines = self._lines
        if texts is None or taken:
            self._semantics(index, ins, taken)
        elif texts[index] is not None:
            lines.extend(texts[index])
        else:
            mark = len(lines)
            self._semantics(index, ins, taken)
            texts[index] = tuple(lines[mark:])
        for stmt in after:
            self.line(stmt)

    def lower_all(self, instructions: list[Ins],
                  texts: list[tuple[str, ...] | None] | None) -> None:
        """Lower a whole trace, top to bottom (``texts``: see
        :meth:`lower`)."""
        for index, ins in enumerate(instructions):
            self.lower(index, ins, texts)
        self.line(f"return (None, {len(instructions)})")

    # -- redundancy suppression ----------------------------------------------

    def emit_suppressed_loop(self, plan: LoopPlan) -> None:
        """Emit a summarized loop (see repro.pin.suppress) as source.

        Body semantics run per iteration inside a ``while True``; the
        invariant instrumentation fires once per loop exit (or per
        ``LOOP_TRIP_CAP`` trips) via the bound summary functions.  The
        post-loop suffix counts retired instructions relative to
        ``_base``, keeping unwind markers exact.
        """
        self.suppressed = True
        start = plan.start
        m = plan.body_len
        n_calls = len(plan.summaries)
        bound = []
        for j, (summary, args) in enumerate(plan.summaries):
            bound.append((self._bind(f"sf{j}", summary),
                          self._bind(f"sa{j}", args)))

        def fire(iters: str, trips: str) -> None:
            # Through ``E``: ``PinVM.reset`` replaces ``instr_stats``,
            # and this function may outlive the run that emitted it.
            self.line(f"ctr[0] += {n_calls}")
            self.line("_s = E.instr_stats")
            self.line("_s.loop_entries += 1")
            self.line(f"_s.summarized_calls += {n_calls}")
            self.line(f"_s.suppressed_calls += {trips} * {n_calls}")
            for fn_name, args_name in bound:
                self.line(f"{fn_name}({iters}, *{args_name})")

        self.line("_trips = 0")
        self.line("while True:")
        self._indent += 1
        for ins in plan.body[:-1]:
            self._semantics(0, ins, ())

        # The back edge: the tail's row, its one exit kept as the
        # loop's continuation test (None: a ``j``, always taken).
        tail = plan.tail
        fields = _literals(tail)
        body, ((cond, _),), _ = SEMANTICS[tail.op]
        for text in body:
            self.line(text.format_map(fields))
        if cond is not None:
            self.line(f"if {cond.format_map(fields)}:")
            self._indent += 1
        self.line("_trips += 1")
        self.line(f"if _trips >= {LOOP_TRIP_CAP}:")
        self._indent += 1
        self.line(f"E._stop_pc = {start}")
        self.line(f"E._stop_count = _trips * {m}")
        fire("_trips", "(_trips - 1)")
        self.line(f"return ({start}, _trips * {m})")
        self._indent -= 1
        if cond is None:
            # Unconditional back edge: the loop only exits via the cap.
            self._indent -= 1
            return
        self.line("continue")
        self._indent -= 1
        self.line("break")
        self._indent -= 1

        resume = plan.rest[0].address if plan.rest else tail.address + 1
        self.line("_iters = _trips + 1")
        self.line(f"_base = _iters * {m}")
        self.line(f"E._stop_pc = {resume}")
        self.line("E._stop_count = _base")
        fire("_iters", "_trips")
        self._count_base = "_base"
        for offset, ins in enumerate(plan.rest):
            self.lower(offset, ins)
        self.line(f"return (None, {self._count(len(plan.rest))})")

    def _semantics(self, index: int, ins: Ins, taken) -> None:
        """Emit ``ins``'s row with its operands as literals; every exit
        returns the retired count with its target."""
        for stmt in statements(ins.op, ins.rd != 0, _literals(ins),
                               f"return (%s, {self._count(index + 1)})",
                               taken):
            self.line(stmt)

    # -- finalization ---------------------------------------------------------

    def source_text(self, address: int) -> str:
        """The trace's full source.  Deterministic for a given trace
        shape + instrumentation, so two slices lowering the same trace
        produce byte-identical text — the key of a pooled skeleton's
        code objects (``_Skeleton.codes``).
        """
        header = f"def __trace__():  # trace @ {address:#x}\n"
        return header + "\n".join(self._lines) + "\n"

    def finish(self, source: str, address: int):
        """``compile()`` the trace's source; returns its function."""
        code = compile(source, f"<superpin-trace-{address:#x}>", "exec")
        exec(code, self.namespace)  # noqa: S102 - this *is* the JIT
        return self.namespace["__trace__"]
