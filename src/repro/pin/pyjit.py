"""The generated-code lowering.

Threaded code (:mod:`repro.pin.jit`) lowers each instruction to a
closure.  This lowering goes one step further and *generates Python
source* for the whole trace, compiles it with ``compile``/``exec``, and
runs straight-line generated code with no per-instruction dispatch.  It
is the moral equivalent of Pin's code-cache emission: the trace becomes
one callable, branches become early returns, and instrumentation is
spliced between statements.

:class:`_Emitter` is the lowering; which traces get it is the JIT's
decision (:meth:`repro.pin.jit.Jit.compile`).  :class:`SourceJit` is
that JIT with the decision pinned — ``PinVM(..., jit_backend="source")``
or ``SuperPinConfig(jit_backend="source")``: every trace generated, the
reference the differential tests hold the default against.

Contract (shared with threaded code, enforced by differential tests in
``tests/test_pin/test_pyjit.py`` and ``test_tiering.py``):

* identical architectural effects and instruction counts;
* identical analysis-call ordering (if/then pairs run before plain
  before-calls at the same instruction — the SuperPin detection rule);
* :class:`~repro.pin.jit.StopRun` unwinds to the raising instruction's
  boundary — the generated code maintains ``engine._stop_pc`` /
  ``engine._stop_count`` markers before any statement that can raise.
"""

from __future__ import annotations

from ..errors import ArithmeticFault
from ..isa.instructions import MASK64, Op
from .args import build_resolver
from .jit import EXIT_GUEST, Jit, NEVER
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
            "E": engine,
            "cpu": engine.cpu,
            "regs": engine.cpu.regs,
            "RD": engine.mem.read,
            "WR": engine.mem.write,
            "ctr": engine.counters,
            "M": MASK64,
            "SGN": 1 << 63,
            "W": 1 << 64,
            "EXIT": EXIT_GUEST,
            "ArithmeticFault": ArithmeticFault,
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

    def _emit_calls(self, index: int, ins: Ins) -> tuple[str, str]:
        """Emit if/then and before calls; return (taken_code, after_code).

        Taken/after calls are returned as statement strings for the
        semantics emitter to splice at the right control point.
        """
        engine = self._engine
        cpu, mem = engine.cpu, engine.mem
        has_calls = (ins.before_calls or ins.if_then or ins.taken_calls
                     or ins.after_calls)
        # Strict memory mode can fault on any access, so every memory
        # instruction needs exact unwind markers there.
        may_fault = (ins.op in (Op.DIV, Op.MOD)
                     or (mem.strict and (ins.is_memory_read
                                         or ins.is_memory_write)))
        if has_calls or may_fault:
            # Progress markers so StopRun/faults unwind exactly.
            self.line(f"E._stop_pc = {ins.address}")
            self.line(f"E._stop_count = {self._count(index)}")

        for j, (if_call, then_call) in enumerate(ins.if_then):
            if_fn = self._bind(f"if{index}_{j}", if_call.fn)
            if_res = self._bind(f"ir{index}_{j}", build_resolver(
                if_call.specs, ins, cpu, mem))
            then_fn = self._bind(f"th{index}_{j}", then_call.fn)
            then_res = self._bind(f"tr{index}_{j}", build_resolver(
                then_call.specs, ins, cpu, mem))
            self.line("ctr[1] += 1")
            self.line(f"if {if_fn}(*{if_res}()):")
            self.line("    ctr[0] += 1")
            self.line(f"    {then_fn}(*{then_res}())")

        if ins.before_calls:
            self.line(f"ctr[0] += {len(ins.before_calls)}")
            for j, call in enumerate(ins.before_calls):
                fn = self._bind(f"bf{index}_{j}", call.fn)
                res = self._bind(f"br{index}_{j}", build_resolver(
                    call.specs, ins, cpu, mem))
                self.line(f"{fn}(*{res}())")

        taken_stmts = []
        if ins.taken_calls:
            taken_stmts.append(f"ctr[0] += {len(ins.taken_calls)}")
            for j, call in enumerate(ins.taken_calls):
                fn = self._bind(f"tk{index}_{j}", call.fn)
                res = self._bind(f"tkr{index}_{j}", build_resolver(
                    call.specs, ins, cpu, mem, taken_target=0))
                taken_stmts.append(f"{fn}(*{res}())")

        after_stmts = []
        if ins.after_calls:
            after_stmts.append(f"ctr[0] += {len(ins.after_calls)}")
            for j, call in enumerate(ins.after_calls):
                fn = self._bind(f"af{index}_{j}", call.fn)
                res = self._bind(f"ar{index}_{j}", build_resolver(
                    call.specs, ins, cpu, mem))
                after_stmts.append(f"{fn}(*{res}())")
        return taken_stmts, after_stmts

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
            self._semantics(0, ins, [])

        tail = plan.tail
        rs, rt = tail.rs, tail.rt
        conds = {
            Op.BEQ: f"regs[{rs}] == regs[{rt}]",
            Op.BNE: f"regs[{rs}] != regs[{rt}]",
            Op.BLTU: f"regs[{rs}] < regs[{rt}]",
            Op.BGEU: f"regs[{rs}] >= regs[{rt}]",
        }
        if plan.uncond:
            cond = None
        elif tail.op in conds:
            cond = conds[tail.op]
        else:  # BLT / BGE
            self.line(f"_a = regs[{rs}]")
            self.line("if _a & SGN: _a -= W")
            self.line(f"_b = regs[{rt}]")
            self.line("if _b & SGN: _b -= W")
            cond = "_a < _b" if tail.op is Op.BLT else "_a >= _b"

        if cond is not None:
            self.line(f"if {cond}:")
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

    def _semantics(self, index: int, ins: Ins,
                   taken: list[str]) -> None:
        op = ins.op
        rd, rs, rt, imm = ins.rd, ins.rs, ins.rt, ins.imm
        retired = self._count(index + 1)

        def ret(target: str) -> None:
            for stmt in taken:
                self.line(stmt)
            self.line(f"return ({target}, {retired})")

        # --- ALU register forms ---
        simple_rrr = {
            Op.ADD: f"(regs[{rs}] + regs[{rt}]) & M",
            Op.SUB: f"(regs[{rs}] - regs[{rt}]) & M",
            Op.MUL: f"(regs[{rs}] * regs[{rt}]) & M",
            Op.AND: f"regs[{rs}] & regs[{rt}]",
            Op.OR: f"regs[{rs}] | regs[{rt}]",
            Op.XOR: f"regs[{rs}] ^ regs[{rt}]",
            Op.SHL: f"(regs[{rs}] << (regs[{rt}] & 63)) & M",
            Op.SHR: f"regs[{rs}] >> (regs[{rt}] & 63)",
            Op.SLTU: f"1 if regs[{rs}] < regs[{rt}] else 0",
        }
        if op in simple_rrr:
            if rd:
                self.line(f"regs[{rd}] = {simple_rrr[op]}")
            return
        simple_rri = {
            Op.ADDI: f"(regs[{rs}] + {imm}) & M",
            Op.MULI: f"(regs[{rs}] * {imm}) & M",
            Op.ANDI: f"regs[{rs}] & {imm & MASK64}",
            Op.ORI: f"regs[{rs}] | {imm & MASK64}",
            Op.XORI: f"regs[{rs}] ^ {imm & MASK64}",
            Op.SHLI: f"(regs[{rs}] << {imm & 63}) & M",
            Op.SHRI: f"regs[{rs}] >> {imm & 63}",
            Op.LI: f"{imm & MASK64}",
        }
        if op in simple_rri:
            if rd:
                self.line(f"regs[{rd}] = {simple_rri[op]}")
            return
        if op in (Op.SAR, Op.SARI, Op.SLT, Op.SLTI):
            if not rd:
                return
            self.line(f"_a = regs[{rs}]")
            self.line("if _a & SGN: _a -= W")
            if op is Op.SAR:
                self.line(f"regs[{rd}] = (_a >> (regs[{rt}] & 63)) & M")
            elif op is Op.SARI:
                self.line(f"regs[{rd}] = (_a >> {imm & 63}) & M")
            elif op is Op.SLTI:
                self.line(f"regs[{rd}] = 1 if _a < {imm} else 0")
            else:  # SLT
                self.line(f"_b = regs[{rt}]")
                self.line("if _b & SGN: _b -= W")
                self.line(f"regs[{rd}] = 1 if _a < _b else 0")
            return
        if op in (Op.DIV, Op.MOD):
            self.line(f"_a = regs[{rs}]")
            self.line(f"_b = regs[{rt}]")
            self.line("if _b == 0:")
            self.line(f"    raise ArithmeticFault('division by zero', "
                      f"pc={ins.address})")
            self.line("if _a & SGN: _a -= W")
            self.line("if _b & SGN: _b -= W")
            self.line("_q = abs(_a) // abs(_b)")
            self.line("if (_a < 0) != (_b < 0): _q = -_q")
            if rd:
                if op is Op.DIV:
                    self.line(f"regs[{rd}] = _q & M")
                else:
                    self.line(f"regs[{rd}] = (_a - _q * _b) & M")
            return

        # --- memory ---
        if op is Op.LD:
            if rd:
                self.line(f"regs[{rd}] = RD((regs[{rs}] + {imm}) & M)")
            return
        if op is Op.ST:
            self.line(f"WR((regs[{rs}] + {imm}) & M, regs[{rt}])")
            return
        if op is Op.PUSH:
            self.line("_a = (regs[29] - 1) & M")
            self.line("regs[29] = _a")
            self.line(f"WR(_a, regs[{rs}])")
            return
        if op is Op.POP:
            if rd:
                self.line(f"regs[{rd}] = RD(regs[29])")
            self.line("regs[29] = (regs[29] + 1) & M")
            return

        # --- control ---
        if op is Op.J:
            ret(str(imm))
            return
        if op is Op.JR:
            ret(f"regs[{rs}]")
            return
        if op is Op.CALL:
            self.line(f"regs[31] = {ins.address + 1}")
            ret(str(imm))
            return
        if op is Op.CALLR:
            self.line(f"_t = regs[{rs}]")
            self.line(f"regs[31] = {ins.address + 1}")
            ret("_t")
            return
        if op is Op.RET:
            ret("regs[31]")
            return
        conds = {
            Op.BEQ: f"regs[{rs}] == regs[{rt}]",
            Op.BNE: f"regs[{rs}] != regs[{rt}]",
            Op.BLTU: f"regs[{rs}] < regs[{rt}]",
            Op.BGEU: f"regs[{rs}] >= regs[{rt}]",
        }
        if op in conds:
            self.line(f"if {conds[op]}:")
            self._indent += 1
            ret(str(imm))
            self._indent -= 1
            return
        if op in (Op.BLT, Op.BGE):
            self.line(f"_a = regs[{rs}]")
            self.line("if _a & SGN: _a -= W")
            self.line(f"_b = regs[{rt}]")
            self.line("if _b & SGN: _b -= W")
            cmp = "_a < _b" if op is Op.BLT else "_a >= _b"
            self.line(f"if {cmp}:")
            self._indent += 1
            ret(str(imm))
            self._indent -= 1
            return

        # --- system ---
        if op is Op.SYSCALL:
            self.line(f"cpu.pc = {ins.address + 1}")
            self.line("E.dispatch_syscall()")
            self.line("if E.exited:")
            self.line(f"    return (EXIT, {retired})")
            self.line(f"return (cpu.pc, {retired})")
            return
        if op is Op.HALT:
            self.line(f"cpu.pc = {ins.address}")
            self.line("E.exited = True")
            self.line("E.exit_code = regs[1]")
            self.line(f"return (EXIT, {retired})")
            return
        if op is Op.NOP:
            return
        raise AssertionError(f"unhandled opcode {op}")  # pragma: no cover

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
