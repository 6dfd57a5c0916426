"""The generated-code lowering.

Threaded code (:mod:`repro.pin.jit`) lowers each instruction to a
closure.  This lowering *generates Python source* for the whole trace
from the same table, compiles it with ``compile``/``exec``, and runs
straight-line generated code with no per-instruction dispatch.  It
is the moral equivalent of Pin's code-cache emission: the trace becomes
one callable, branches become early returns, and instrumentation is
spliced between statements.

:class:`_Emitter` is the lowering; which traces get it is the JIT's
decision (:meth:`repro.pin.jit.Jit.compile`).  ``Jit.all_generated``
pins the decision — ``PinVM(..., jit_backend="source")`` for serial Pin,
``tests/conftest.all_generated`` for every engine of a run: every trace
generated, the reference the differential tests hold the default
against.

Contract (shared with threaded code):

* identical architectural effects — by construction: both lowerings
  format the same row of :data:`repro.pin.jit.SEMANTICS`, this one with
  the operands as literals;
* identical analysis-call ordering (the signature check, then if/then
  pairs, then plain before-calls at the same instruction — the SuperPin
  detection rule) — by construction too: the statements come from one
  :func:`repro.pin.jit.weave`, qualified here by instruction index;
* identical instruction counts, and :class:`~repro.pin.jit.StopRun` and
  faults unwind to the raising instruction's boundary — the generated
  code maintains ``engine._stop_pc`` / ``engine._stop_count`` markers
  before any statement that can raise.  This, the dispatch loop and the
  loop form are what this module still states on its own, and what the
  differential tests (``tests/test_pin/test_pyjit.py``, ``test_looped.py``,
  ``test_tiering.py``, ``test_semantics_table.py``) guard; the table
  itself is held against the interpreter in
  ``tests/test_machine/test_golden_model.py``.

**The loop form** (:class:`_LoopEmitter`).  One function per trace
execution bounds the cost of a guest instruction from below by a Python
call per trip of a loop.  A trace one of whose direct exits targets its
own head therefore has a second product, built the first time its back
edge is taken (:meth:`repro.pin.jit.Jit.loop_form`): ``loop(n) ->
(result, retired, executions)`` — the same rows and the same calls
around one ``while True:``, the back edge a ``continue`` for as long as
fewer than ``n`` executions have run.  **``loop(1)`` is ``fn()``**,
state for state and count for count, and ``loop(n)`` is ``n`` dispatches
of ``fn`` that each left by the back edge: that is the whole contract,
the reference every test holds it against, and why there is no switch
for it.  How large ``n`` may be is the caller's to say
(:meth:`repro.pin.engine.PinVM.run`): every per-execution decision —
the budget — still happens at the execution it would have.  What
differs inside:

* the retired count runs on a base (``E._stop_count = _base + k``), so
  the unwind markers stay exact across trips, and one ``except
  BaseException`` around the loop leaves ``executions`` on the engine
  (``_stop_trips``) before re-raising — the caller folds the trips a
  stop or a fault interrupted exactly as it folds a return's;
* the registers the rows and the calls' arguments name are locals,
  loaded once at entry — a formatting of the same rows and arguments
  (``regs[n]`` reads ``rn``), not a second table.  A routine sees guest
  registers through its arguments, Pin's contract, so the written ones
  are stored back only in the epilogue every exit breaks to, in the
  unwind handler, and ahead of what reads the register file itself:
  the *then* half of an if/then pair or of the signature check (its
  full check reads ``cpu.regs``; its quick check compares two locals,
  so only a match pays), a call handed ``IARG_CONTEXT``, a
  ``syscall``.  The context call is followed by a
  reload, and while it (or a syscall) has the register file the
  handler stores nothing over what it wrote (``_own``).  A store-back
  writes only the registers that may differ from the register file
  where it stands (:meth:`_LoopEmitter._trip`).

**Summarized loops** ("Redundancy Suppression In Time-Aware Dynamic
Binary Instrumentation", PAPERS.md) are a property of the loop form.
Where every call attached to the trace is a before-call with a summary
and constant arguments (:func:`repro.pin.jit.summarizable`) and the
trace holds no signature check, an instruction's calls become a bump of
a local trip counter, and ``summary(count, *args)`` fires once per
instruction reached, in program order, in a ``finally`` — so on every
way the loop form leaves: the epilogue, a ``syscall``'s direct return,
and the unwind of a stop, a fault or a store into the trace's own code.
``fn`` still calls per trip.  A summary counts as the ``count`` calls
it stands for, so the analysis calls a run reports are the calls the
tool asked for, whichever lowering ran them.

The plain function stays because a loop form entered one execution at a
time is slower than it; the capture rules of :mod:`repro.pin.jit` hold
for both (a loop form is interned by its text and kept beside ``fn``).

**Compiled once per process.**  :meth:`_Emitter.finish` is the only
``compile()`` of generated text; :meth:`repro.pin.jit.Jit._function`
calls it only for text the process's pool (``jit._INTERN``) lacks, and
otherwise rebinds the pooled code object over this emitter's namespace.
"""

from __future__ import annotations

import re

from .args import IARG_CONTEXT, try_static_args
from .jit import (BARE, CONSTANTS, FULL_CHECK, NEVER, OPERANDS,
                  SEMANTICS, call_values, operands, statements, weave)
from .trace import Ins


class SourceCompiledTrace:
    """Executable form of one trace: a single generated function.

    ``fn() -> (result, executed)`` where ``result`` follows the step
    protocol (None = fell off the end, >= 0 = branch target,
    EXIT_GUEST = guest exited) and ``executed`` counts retired
    instructions for that invocation.  ``loop`` is the trace's loop
    form (module docstring), ``loop(n) -> (result, executed,
    executions)``, once :meth:`repro.pin.jit.Jit.loop_form` has built
    it.
    """

    __slots__ = ("start", "fn", "num_ins", "num_words", "fall_address",
                 "source", "instructions", "links", "heat", "loop",
                 "origin")

    is_source = True
    #: Already generated code: nothing to promote to.
    hot_at = NEVER

    def __init__(self, start: int, fn, num_ins: int, num_words: int,
                 fall_address: int | None, source: str,
                 instructions: list[Ins], origin=None):
        self.start = start
        self.fn = fn
        #: The loop form, None until the dispatch loop first follows
        #: this trace's link to itself — and for ever unless ``origin``,
        #: the pooled skeleton it is then lowered from, is set: only a
        #: trace with a direct exit to its own head has one.
        self.loop = None
        self.origin = origin
        self.num_ins = num_ins
        #: See repro.pin.jit.CompiledTrace.num_words.
        self.num_words = num_words
        self.fall_address = fall_address
        self.source = source
        #: The instrumented instructions ``fn`` was lowered from.
        self.instructions = instructions
        #: Direct trace links: exit pc -> successor trace (see
        #: repro.pin.jit.CompiledTrace.links).
        self.links: dict[int, object] = {}
        #: ``Jit.heat``'s cell for this pc (see
        #: repro.pin.jit.CompiledTrace).
        self.heat: list[int] | None = None


def _literals(ins: Ins) -> dict[str, int]:
    """``ins``'s operand fields by name, for formatting its row."""
    return dict(zip(OPERANDS, operands(ins)))


class _Emitter:
    """Builds the source text and the exec namespace for one trace."""

    #: The spelling of the semantics table this emitter formats.
    _rows = SEMANTICS

    def __init__(self, engine, check=None):
        self._engine = engine
        #: The signature check to lower, ``(offset, r0, r1)``, or None
        #: (:meth:`repro.pin.jit.Jit._cut`).
        self._check = check
        self._lines: list[str] = []
        self._indent = 1
        #: Where in ``_lines`` each :meth:`lower` began: the function's
        #: ``__lines__`` maps a source line back to its instruction (how
        #: the engine stops a trace right after a store into its code).
        self._starts: list[int] = []
        #: Instruction-count base expression: None for an absolute count
        #: (the whole-trace lowering), or a variable name (the loop form
        #: counts retired instructions relative to ``_base``).
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
        return f"{self._count_base} + {n}" if n else self._count_base

    # -- instrumentation ------------------------------------------------------

    def _marks(self, index: int, ins: Ins, calls: bool) -> None:
        """Progress markers so StopRun/faults unwind exactly, ahead of
        whatever can raise: ``calls``, or a row that raises (a load or
        store never does)."""
        if calls or SEMANTICS[ins.op][2]:
            self.line(f"E._stop_pc = {ins.address}")
            self.line(f"E._stop_count = {self._count(index)}")

    def _emit_calls(self, index: int, ins: Ins
                    ) -> tuple[list[str], list[str]]:
        """Emit the unwind markers and whatever runs ahead of ``ins``;
        return its (taken, after) statements for the caller to splice
        at the right control point (:func:`repro.pin.jit.weave`)."""
        shape = ins.shape
        check = self._check
        checked = check is not None and check[0] == index
        self._marks(index, ins, checked or shape is not BARE)
        if shape is BARE and not checked:
            return (), ()
        names, fields, *calls = weave(ins.op, shape, f"{index}_", checked)
        objects, numbers = call_values(ins)
        if checked:
            numbers = [*check[1:], *numbers]
        self.namespace.update(zip(names, objects))
        spelled = dict(_literals(ins), **dict(zip(fields, map(str, numbers))))
        before, taken, after = (self._format(part, spelled) for part in calls)
        for stmt in self._exposed(before, ins, ins.before_calls,
                                  ins.if_then, checked):
            self.line(stmt)
        return (self._exposed(taken, ins, ins.taken_calls),
                self._exposed(after, ins, ins.after_calls))

    def _format(self, stmts, fields: dict) -> list[str]:
        """Woven call statements, their arguments spelled from
        ``fields``: the operands and numbers as literals."""
        return [stmt.format_map(fields) for stmt in stmts]

    def _exposed(self, stmts, ins: Ins, calls, pairs=(), checked=False):
        """``stmts`` — the ``calls`` and if/then ``pairs`` of one ipoint
        of ``ins``, behind the signature check if ``checked`` — with
        whatever must surround them for the calls to see the guest's
        registers: nothing, where the registers live in ``regs``."""
        return stmts

    def _leave(self, target, retired: int) -> tuple[str, ...]:
        """The statements that leave the trace for ``target`` with
        ``retired`` instructions retired."""
        return (f"return ({target}, {self._count(retired)})",)

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
        self._starts.append(len(self._lines))
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
        for stmt in self._leave(None, len(instructions)):
            self.line(stmt)

    def _semantics(self, index: int, ins: Ins, taken) -> None:
        """Emit ``ins``'s row with its operands as literals; every exit
        returns the retired count with its target."""
        for stmt in statements(ins.op, ins.rd != 0, _literals(ins),
                               lambda target: self._leave(target, index + 1),
                               taken, self._rows):
            self.line(stmt)

    # -- finalization ---------------------------------------------------------

    def source_text(self, address: int) -> str:
        """The trace's full source.  Deterministic for a given trace
        shape + instrumentation + memory mode, so two slices (two
        engines, two processes) lowering the same trace produce
        byte-identical text — the key of the process's code objects
        (``jit._INTERN``).
        """
        header = f"def __trace__():  # trace @ {address:#x}\n"
        self.namespace["__lines__"] = tuple(2 + n for n in self._starts)
        return header + "\n".join(self._lines) + "\n"

    def finish(self, source: str, address: int):
        """``compile()`` the trace's source; returns its function.
        Called for a text the process has not compiled (or has
        evicted) only: ``Jit._function`` rebinds the rest."""
        code = compile(source, f"<superpin-trace-{address:#x}>", "exec")
        exec(code, self.namespace)  # noqa: S102 - this *is* the JIT
        return self.namespace["__trace__"]


# -- the loop form -------------------------------------------------------------

_REG = re.compile(r"regs\[(\{\w+\}|\d+)\]")
_REG_WRITE = re.compile(r"@?regs\[(\{\w+\}|\d+)\] = ")


def _localized(row):
    """``row`` of :data:`SEMANTICS` with every ``regs[n]`` spelled as
    the local ``rn``: a formatting of the row, not a second table."""
    body, exits, raises = row
    return (tuple(_REG.sub(r"r\1", text) for text in body),
            tuple((cond and _REG.sub(r"r\1", cond), _REG.sub(r"r\1", target))
                  for cond, target in exits), raises)


def _registers(row, writes: bool) -> tuple[tuple, tuple]:
    """The registers ``row`` names and those it writes — operand fields
    (``"rd"``) or numbers (29) — with its ``rd`` lines (``writes``) or
    without."""
    body, exits, _ = row
    lines = [text for text in body if writes or text[0] != "@"]
    texts = lines + [text for exit in exits for text in exit if text]

    def key(name: str):
        return int(name) if name.isdigit() else name.strip("{}")
    return (tuple({key(name) for text in texts
                   for name in _REG.findall(text)}),
            tuple({key(match[1]) for match in map(_REG_WRITE.match, lines)
                   if match}))


#: The table as the loop form formats it, and what each row touches.
_LOCAL_ROWS = {op: _localized(row) for op, row in SEMANTICS.items()}
_TOUCHES = {op: (_registers(row, False), _registers(row, True))
            for op, row in SEMANTICS.items()}

#: Stand-ins for "store back the registers that may differ" and "load
#: the named registers", known once every row has been emitted.
_SPILL, _RELOAD = "<spill>", "<reload>"


class _LoopEmitter(_Emitter):
    """Builds the loop form of a trace with a direct exit to its own
    head (module docstring): the same rows and the same calls, with the
    counts relative to ``_base``, the back edge a ``continue``, every
    other exit a ``break`` to one epilogue, and the registers the rows
    name in locals."""

    _rows = _LOCAL_ROWS

    def __init__(self, engine, head: int, summarize: bool = False,
                 check=None):
        super().__init__(engine, check)
        self._head = str(head)
        #: ``(trip counter, instruction)`` for each instruction whose
        #: calls the loop form summarizes (module docstring), or None:
        #: every call runs on every trip.
        self._summaries: list[tuple[str, Ins]] | None = (
            [] if summarize else None)
        self._count_base = "_base"
        self._indent = 3
        self._named: set[int] = set()
        self._written: set[int] = set()
        #: What happens to the registers, in emission order, as ``(line
        #: number, what, nested)``: a stand-in and whether it sits
        #: inside an exit's ``if``; ``(None, written registers, _)``
        #: for a row; ``(None, None, _)`` at a back edge.
        self._events: list[tuple] = []
        #: True once something is handed the register file to change —
        #: the locals are then not the registers for a while (``_own``).
        self._lends = False
        self._lent = False

    def line(self, text: str) -> None:
        stmt = text.lstrip()
        if stmt == _SPILL or stmt == _RELOAD:
            # (Indented past the trip's own level: inside an exit.)
            self._events.append((len(self._lines), stmt,
                                 len(text) != len(stmt)))
        elif stmt == "continue":
            self._events.append((None, None, True))
        super().line(text)

    def _emit_calls(self, index: int, ins: Ins
                    ) -> tuple[list[str], list[str]]:
        """... or, in a loop form that summarizes, a bump of ``ins``'s
        trip counter where its calls would run."""
        if self._summaries is None or ins.shape is BARE:
            return super()._emit_calls(index, ins)
        self._marks(index, ins, False)
        counter = f"_c{index}"
        self._summaries.append((counter, ins))
        self.line(f"{counter} += 1")
        return (), ()

    def _summarize(self) -> tuple[str, list[str]]:
        """The trip counters' initialization, and the ``finally`` body
        that fires each instruction's summaries once and accounts them:
        a summary counts as the per-trip calls it stands for."""
        counters = [counter for counter, _ in self._summaries]
        trips = " + ".join(
            counter if len(ins.before_calls) == 1
            else f"{len(ins.before_calls)} * {counter}"
            for counter, ins in self._summaries)
        # Through ``E``: ``PinVM.reset`` replaces ``jit_stats``, and
        # this function may outlive the run that emitted it.
        fire = ["_s = E.jit_stats", "_s.loop_entries += 1",
                f"_s.suppressed_calls += {trips}",
                f"ctr[0] += {trips}"]
        for counter, ins in self._summaries:
            calls = ins.before_calls
            fire += [f"if {counter}:",
                     f"    _s.summarized_calls += {len(calls)}",
                     f"    _s.suppressed_calls -= {len(calls)}"]
            for j, call in enumerate(calls):
                summary = self._bind(f"sf{counter}_{j}", call.summary)
                args = self._bind(f"sa{counter}_{j}",
                                  try_static_args(call.specs, ins))
                fire.append(f"    {summary}({counter}, *{args})")
        return " = ".join(counters) + " = 0", fire

    def _format(self, stmts, fields: dict) -> list[str]:
        """... and every register an argument names read from its local,
        loaded with the others at entry."""
        stmts = super()._format(stmts, fields)
        self._named.update(int(n) for stmt in stmts
                           for n in _REG.findall(stmt))
        return [_REG.sub(r"r\1", stmt) for stmt in stmts]

    def _exposed(self, stmts, ins: Ins, calls, pairs=(), checked=False):
        """Store the registers back where a routine reads the register
        file itself: behind a check, ahead of its then half — the
        signature check's full check reads ``cpu.regs``, and its quick
        check compares two locals, so only a match pays — and ahead of a
        call handed ``IARG_CONTEXT``, which may write them too: they are
        loaded again after it.  Every other argument is an expression
        over the locals and costs nothing."""
        if pairs or checked:
            # (weave's then halves: the one call indented under a check.)
            stmts = [line for stmt in stmts
                     for line in ((f"    {_SPILL}", stmt)
                                  if stmt.startswith("    _th")
                                  or stmt == "    " + FULL_CHECK
                                  else (stmt,))]
        calls = (*calls, *(call for pair in pairs for call in pair))
        if not any(kind is IARG_CONTEXT
                   for call in calls for kind, _ in call.specs):
            return stmts
        self._lends = True
        return [_SPILL, "_own = False", *stmts, _RELOAD, "_own = True"]

    def _leave(self, target, retired: int) -> tuple[str, ...]:
        if self._lent:
            return (f"return ({target}, {self._count(retired)}, _x)",)
        out = (f"_base += {retired}", f"_to = {target}", "break")
        if target != self._head:
            return out
        # The back edge: stay while the caller's allowance lasts.
        return ("if _x < _n:", "    _x += 1", f"    _base += {retired}",
                "    continue", *out)

    def _semantics(self, index: int, ins: Ins, taken) -> None:
        fields = _literals(ins)
        named, written = _TOUCHES[ins.op][ins.rd != 0]
        written = [fields.get(key, key) for key in written]
        self._named.update(fields.get(key, key) for key in named)
        self._written.update(written)
        # A syscall reads and writes the register file where it lives,
        # and both its exits leave: the registers are handed over for
        # good, and nothing stores the locals over what it wrote.
        if ins.is_syscall:
            self._lends = self._lent = True
            self.line(_SPILL)
            self.line("_own = False")
        self._events.append((None, written, False))
        super()._semantics(index, ins, taken)
        self._lent = False

    @staticmethod
    def _store(registers) -> str:
        return "; ".join(f"regs[{n}] = r{n}"
                         for n in sorted(registers)) or "pass"

    def _trip(self, dirty: set, load: str | None = None) -> set:
        """Walk a trip's events top to bottom, given the registers that
        may differ from the register file at its top; returns those
        that may at its back edges, and with ``load`` spells out every
        stand-in on the way.  A store-back on the trip's own level (not
        inside an exit's ``if``) leaves the register file current, so
        the next one stores only what was written since."""
        dirty = set(dirty)
        at_back_edges: set = set()
        lines = self._lines
        for number, what, nested in self._events:
            if number is None:
                if what is None:
                    at_back_edges |= dirty
                else:
                    dirty.update(what)
                continue
            if load is not None:
                lines[number] = lines[number].replace(
                    what, load if what == _RELOAD else self._store(dirty))
            if not nested:
                dirty = set()
        return at_back_edges

    def source_text(self, address: int) -> str:
        load = "; ".join(f"r{n} = regs[{n}]"
                         for n in sorted(self._named)) or "pass"
        spill = self._store(self._written)
        # A trip starts with the registers just loaded, or from a back
        # edge: what may differ there is what may at the back edges of
        # a trip that started clean (starting with that adds nothing).
        self._trip(self._trip(set()), load)
        body = "\n".join(self._lines)
        own = "    _own = True\n" if self._lends else ""
        unwind = f"if _own: {spill}" if self._lends else spill
        counters, fire = "", ""
        if self._summaries:
            init, lines = self._summarize()
            counters = f"    {init}\n"
            fire = "    finally:\n" + "".join(f"        {line}\n"
                                            for line in lines)
        head = (f"def __trace__(_n):  # loop @ {address:#x}\n"
                f"    {load}\n"
                f"    _base = 0\n"
                f"    _x = 1\n{own}{counters}"
                f"    try:\n"
                f"        while True:\n")
        first = head.count("\n") + 1
        self.namespace["__lines__"] = tuple(first + n for n in self._starts)
        return (f"{head}{body}\n"
                f"    except BaseException:\n"
                f"        {unwind}\n"
                f"        E._stop_trips = _x\n"
                f"        raise\n"
                f"{fire}"
                f"    {spill}\n"
                f"    return (_to, _base, _x)\n")
