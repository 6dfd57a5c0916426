"""Time-travel debugging over recording artifacts.

A recording (``-sprecord``) already contains everything needed to
materialize the master's architectural state at *any* retired
instruction count: per-slice boundary snapshots (COW memory fork +
register file + layout/scheduler forks), the recorded syscall streams,
and the verified checkpoint table mapping boundary indices to global
instruction counts.  :class:`TimeTravelEngine` turns that into a
debugger: ``goto``, ``step``/``step-back``, ``continue`` /
``reverse-continue``, PC breakpoints and memory watchpoints — including
watchpoints *in the past* (find the last write to an address before
instruction N) — all replay-side, never re-running the master.

How ``goto N`` works:

1. map N to the covering slice ``k`` via the checkpoint table
   (:meth:`Recording.slice_for_icount`);
2. pick the best base state at or before N: a cached micro-checkpoint
   inside slice ``k``, else the slice boundary itself — unpickled
   **fresh** (:meth:`Recording.slice_spec`), so the COW fork, the
   playback cursor and the record list all start pristine;
3. context-switch the engine's one resident
   :class:`~repro.superpin.slices.SliceMachine` onto that state — the
   switch every other executor of slices makes — and drive it forward
   with an exact instruction budget (``PinVM.run(...,
   exact_budget=True)``), which lands on the same architectural boundary
   under both JIT backends.  Every landing runs on one session code
   cache (:class:`~repro.pin.engine.WarmCache`: compiled traces, step
   traces and their code watch), checked page by page against the
   state it lands on and flushed where the state's code differs — a
   landing has no virtual account that would want it cold, as a
   slice's does; and what the machine's JIT learnt (decoded traces,
   verified lowerings, heat) serves what the cache does not hold;
4. cache the landing state as an ephemeral micro-checkpoint.  Long
   advances also drop an anchor checkpoint :data:`CKPT_STRIDE`
   instructions short of the target, so a run of ``step-back`` commands
   re-executes O(stride) instructions each, not O(N).

Breakpoint/watchpoint scans re-execute one slice at a time from its
boundary under counting instrumentation (a per-BBL retired-instruction
base plus the static in-BBL offset gives every hit an exact global
icount), collect all hits, then ``goto`` the chosen one.  A scan *takes*
the machine — on a cold cache of its own, since it attaches
instrumentation — so nothing is live afterwards, and the next read of
the current position re-materializes it from its own micro-checkpoint.

The machine has one state at a time and :attr:`TimeTravelEngine._state`
is that state or None: whatever moves the machine takes the state first
and puts back what it landed on, so a command that raises leaves nothing
live and the next one starts from a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DivergenceError, TimeTravelError
from ..obs.metrics import metrics_for
from ..pin.args import (IARG_END, IARG_MEMORYWRITE_EA, IARG_PTR,
                        IPOINT_BEFORE)
from ..pin.engine import PinVM, WarmCache
from ..pin.jit import JitStats
from .recording import Recording
from .slices import PLACEMENT_COUNTERS, placement_counts, SliceMachine
from .switches import (DEBUG_FIELDS, refuse_serial, refuse_unhonoured,
                       SuperPinConfig)
from .sysrecord import PlaybackHandler

#: Anchor-checkpoint distance: a long advance leaves a micro-checkpoint
#: this many instructions before its target, bounding the re-execution
#: cost of a subsequent ``step-back`` run.
CKPT_STRIDE = 512

#: Micro-checkpoint cache bound (boundaries are not cached — the
#: recording itself is their store).
CKPT_CACHE_SIZE = 16

#: What an engine counts of its own work (``superpin.timetravel.<name>``):
#: every ``goto`` is one of ``in_place`` (advanced from — or already at —
#: the live state), ``from_checkpoint`` or ``from_boundary``;
#: ``reexecuted_instructions`` is every guest instruction the machine
#: retired for the session, landings and scans; ``scans`` are the
#: ``continue`` / ``reverse-continue`` / ``lastwrite`` commands and
#: ``scanned_slices`` the slices they re-executed.  (:meth:`stats` adds
#: what the session code cache counts: ``warm_landings``, the switches
#: that reused it, and ``cache_flushes``, those onto a state whose code
#: differed.)
COUNTERS = ("gotos", "in_place", "from_checkpoint", "from_boundary",
            "reexecuted_instructions", "scans", "scanned_slices")


@dataclass(frozen=True)
class StopEvent:
    """Where (and why) the debugger came to rest."""

    kind: str          # goto | step | breakpoint | watchpoint | end | start
    icount: int        # global retired-instruction position
    pc: int            # next instruction to execute
    #: Watchpoint hits: the effective address about to be written.
    addr: int | None = None

    def describe(self) -> str:
        extra = f" addr={self.addr:#x}" if self.addr is not None else ""
        return (f"stopped at icount={self.icount} pc={self.pc:#x} "
                f"({self.kind}{extra})")


@dataclass(frozen=True)
class _Hit:
    """One breakpoint/watchpoint trigger found by a slice scan."""

    icount: int
    pc: int
    kind: str
    addr: int | None = None


@dataclass
class _Ckpt:
    """Frozen mid-slice state (micro-checkpoint)."""

    k: int
    local: int                      # instructions into slice k
    cpu: tuple[int, tuple[int, ...]]
    mem: object                     # frozen Memory (fork before use)
    layout: object
    manager: object | None
    consumed: int                   # playback records already consumed
    records: list                   # the interval's record list


@dataclass
class _LiveState:
    """The state the engine's machine is on: ``vm`` is the machine's
    engine, and its ``cpu``, ``mem`` and playback handler are this
    state's for as long as nothing else is switched onto."""

    k: int
    local: int
    vm: PinVM
    records: list


class TimeTravelEngine:
    """Random-access execution over one loaded :class:`Recording`."""

    def __init__(self, recording: Recording,
                 config: SuperPinConfig | None = None):
        self.recording = recording
        self.config = config if config is not None else SuperPinConfig()
        refuse_serial(self.config, "the time-travel debugger")
        refuse_unhonoured(self.config, DEBUG_FIELDS,
                          "the time-travel debugger")
        self.breakpoints: set[int] = set()
        self.watchpoints: set[int] = set()
        self.position = 0
        #: What the session re-executed, by :data:`COUNTERS` name, and
        #: what the machine's JIT spared it and how it lowered the rest:
        #: every run of the machine counts into this one ``JitStats``.
        #: :meth:`stats` is both under their metric names, and
        #: ``metrics`` (``-spmetrics``) is brought level with it by
        #: every command that moved the machine.
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.jit_stats = JitStats()
        self.metrics = metrics_for(self.config.spmetrics)
        #: The one machine every state of this session is switched onto
        #: — its engine is built by the first — and the code cache every
        #: landing runs on.
        self._machine = SliceMachine()
        self._warm = WarmCache()
        #: The state the machine is on, or None: nothing is live (before
        #: the first landing, after a scan, after a command that raised).
        self._state: _LiveState | None = None
        #: (k, local) -> _Ckpt, insertion-ordered for LRU eviction.
        self._ckpts: dict[tuple[int, int], _Ckpt] = {}
        # Scan bookkeeping (valid only inside _scan_slice).
        self._scan_hits: list[_Hit] = []
        self._scan_retired = 0
        self._scan_bbl_base = 0
        self._scan_start = 0
        self._scan_addrs: set[int] | None = None

    # -- public API ---------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        return self.recording.total_instructions

    def goto(self, icount: int, kind: str = "goto") -> StopEvent:
        """Materialize the state exactly ``icount`` retired instructions in."""
        total = self.total_instructions
        if not 0 <= icount <= total:
            raise TimeTravelError(
                f"icount {icount} outside the recorded run [0, {total}]")
        k = self.recording.slice_for_icount(icount)
        self._check_hole(k)
        start, _ = self.recording.slice_span(k)
        self.counters["gotos"] += 1
        # Taken while the machine moves: if it raises, nothing is live.
        state, self._state = self._state, None
        ahead = (icount - start - state.local
                 if state is not None and state.k == k else -1)
        if ahead == 0 or (ahead > 0 and not state.vm.exited):
            # At or forward of the live state: advance in place.
            self.counters["in_place"] += 1
            if ahead:
                self._advance(state, ahead)
        else:
            state = self._materialize(k, icount - start)
        self._state = state
        self.position = icount
        self._cache_ckpt(state)
        self._publish()
        return StopEvent(kind=kind, icount=icount, pc=state.vm.cpu.pc)

    def step(self, n: int = 1) -> StopEvent:
        if n < 1:
            raise TimeTravelError(f"step count must be >= 1, got {n}")
        if self.position + n > self.total_instructions:
            raise TimeTravelError(
                f"step past the end of the recording "
                f"(icount {self.position + n} > {self.total_instructions})")
        return self.goto(self.position + n, kind="step")

    def step_back(self, n: int = 1) -> StopEvent:
        if n < 1:
            raise TimeTravelError(f"step count must be >= 1, got {n}")
        if self.position - n < 0:
            raise TimeTravelError(
                f"step-back past the start of the recording "
                f"(icount {self.position - n} < 0)")
        return self.goto(self.position - n, kind="step")

    def continue_(self) -> StopEvent:
        """Run forward to the next breakpoint/watchpoint hit, or the end."""
        pos = self.position
        k0 = self.recording.slice_for_icount(pos)
        self.counters["scans"] += 1
        for k in range(k0, self.recording.num_slices):
            hits = [h for h in self._scan_slice(k) if h.icount > pos]
            if hits:
                first = min(hits, key=lambda h: h.icount)
                event = self.goto(first.icount, kind=first.kind)
                return StopEvent(kind=first.kind, icount=event.icount,
                                 pc=event.pc, addr=first.addr)
        event = self.goto(self.total_instructions, kind="end")
        return event

    def reverse_continue(self) -> StopEvent:
        """Run backward to the previous hit, or the start of the run."""
        pos = self.position
        k0 = self.recording.slice_for_icount(max(pos - 1, 0))
        self.counters["scans"] += 1
        for k in range(k0, -1, -1):
            hits = [h for h in self._scan_slice(k) if h.icount < pos]
            if hits:
                last = max(hits, key=lambda h: h.icount)
                event = self.goto(last.icount, kind=last.kind)
                return StopEvent(kind=last.kind, icount=event.icount,
                                 pc=event.pc, addr=last.addr)
        event = self.goto(0, kind="start")
        return event

    def last_write_before(self, addr: int,
                          icount: int | None = None) -> _Hit | None:
        """Watchpoint in the past: the last write to ``addr`` before
        ``icount`` (default: the current position).  Returns the hit
        (whose ``icount`` is where the writing instruction is *about to*
        execute — ``goto`` there to inspect the pre-write state) or
        None when nothing wrote the address earlier in the run.
        """
        limit = self.position if icount is None else icount
        if limit <= 0:
            return None
        k0 = self.recording.slice_for_icount(min(limit - 1,
                                                 self.total_instructions))
        self.counters["scans"] += 1
        for k in range(k0, -1, -1):
            hits = [h for h in self._scan_slice(k, watch_only={addr})
                    if h.icount < limit]
            if hits:
                return max(hits, key=lambda h: h.icount)
        return None

    def registers(self) -> tuple[int, tuple[int, ...]]:
        """``(pc, regs)`` at the current position."""
        return self._require_state().vm.cpu.snapshot()

    def state_fingerprint(self) -> str:
        """Architectural-state hash at the current position."""
        return self._require_state().vm.cpu.fingerprint()

    def read_memory(self, addr: int, count: int = 1) -> list[int]:
        """Guest memory words at the current position."""
        return self._require_state().vm.mem.read_block(addr, count)

    def stats(self) -> dict[str, int]:
        """What the session re-executed and what it was spared, by
        metric name: ``superpin.timetravel.*`` and the machine's
        ``pin.jit.*`` placement counters.  Like those anywhere, the
        figures depend on the session's history, not only on where it
        stands."""
        out = {f"superpin.timetravel.{name}": value
               for name, value in self.counters.items()}
        out["superpin.timetravel.warm_landings"] = self._warm.reuses
        out["superpin.timetravel.cache_flushes"] = self._warm.flushes
        out.update(zip(PLACEMENT_COUNTERS,
                       placement_counts(self.jit_stats)))
        return out

    def _publish(self) -> None:
        """Bring ``metrics`` level with :meth:`stats`."""
        metrics = self.metrics
        if metrics.enabled:
            for name, value in self.stats().items():
                metrics.inc(name, value - metrics.counter(name))

    # -- state materialization ----------------------------------------------

    def _require_state(self) -> _LiveState:
        if self._state is None:
            self.goto(self.position)
        return self._state

    def _check_hole(self, k: int) -> None:
        if k in self.recording.damaged:
            raise TimeTravelError(
                f"slice {k} is damaged in this recording "
                f"({self.recording.damaged[k]}) — its span cannot be "
                f"travelled", kind="hole")

    def _materialize(self, k: int, local: int) -> _LiveState:
        base = self._best_ckpt(k, local)
        if base is not None:
            self.counters["from_checkpoint"] += 1
            state = self._fork_ckpt(base)
        else:
            self.counters["from_boundary"] += 1
            state = self._fork_boundary(k, self._warm)
        delta = local - state.local
        if delta > CKPT_STRIDE:
            # Drop an anchor just short of the target so a subsequent
            # step-back run re-executes O(stride), not O(target).
            self._advance(state, delta - CKPT_STRIDE)
            self._cache_ckpt(state)
            delta = CKPT_STRIDE
        if delta:
            self._advance(state, delta)
        return state

    # Two ways of naming a state to ``SliceMachine.switch``.  Either way
    # the playback handler and the record list it reads are fresh, the
    # engine is reset, and ``self`` is whom the JIT keeps instrumented
    # code for: a landing attaches nothing, which is template None, and
    # runs on the session code cache; a scan names what it attaches
    # (``_scan_slice``) and runs on a cold one (``warm`` None).

    def _fork_boundary(self, k: int,
                       warm: WarmCache | None = None) -> _LiveState:
        boundary, interval = self.recording.slice_spec(k)
        vm = self._machine.switch(boundary, interval, warm=warm)
        return self._switched(vm, k, 0, interval.records)

    def _fork_ckpt(self, ckpt: _Ckpt) -> _LiveState:
        layout = ckpt.layout.fork()
        manager = ckpt.manager.fork() if ckpt.manager is not None else None
        records = list(ckpt.records)
        handler = PlaybackHandler(records, layout, ckpt.k,
                                  thread_manager=manager,
                                  start_pos=ckpt.consumed)
        # The memory is re-forked: the cached copy stays pristine.
        vm = self._machine.switch(
            None, None, state=(ckpt.cpu, ckpt.mem.fork(), handler),
            warm=self._warm)
        return self._switched(vm, ckpt.k, ckpt.local, records)

    def _switched(self, vm: PinVM, k: int, local: int,
                  records: list) -> _LiveState:
        # (The reset gave the engine a ``JitStats`` of its own: the
        # session's takes its place, so every run counts into one.)
        vm.jit_stats = self.jit_stats
        vm.jit.retain_for = self
        vm.jit.template = None
        return _LiveState(k=k, local=local, vm=vm, records=records)

    def _advance(self, state: _LiveState, delta: int) -> None:
        """Drive ``state`` forward exactly ``delta`` instructions."""
        vm = state.vm
        if vm.exited:
            raise TimeTravelError(
                "cannot advance past program exit", kind="state")
        result = vm.run(max_instructions=delta, exact_budget=True)
        self.counters["reexecuted_instructions"] += result.instructions
        if result.instructions != delta:
            raise DivergenceError(
                f"slice {state.k}: exact-budget advance retired "
                f"{result.instructions} of {delta} instructions "
                f"(state {result.state.value})")
        state.local += delta

    # -- micro-checkpoints ---------------------------------------------------

    def _best_ckpt(self, k: int, local: int) -> _Ckpt | None:
        best: _Ckpt | None = None
        for (ck, clocal), ckpt in self._ckpts.items():
            if ck == k and clocal <= local:
                if best is None or clocal > best.local:
                    best = ckpt
        if best is not None:
            # Refresh LRU position: a reusable anchor must outlive the
            # landing checkpoints a step-back run keeps inserting.
            self._ckpts[(best.k, best.local)] = self._ckpts.pop(
                (best.k, best.local))
        return best

    def _cache_ckpt(self, state: _LiveState) -> None:
        key = (state.k, state.local)
        cached = self._ckpts.pop(key, None)
        if cached is None:
            # (A state already cached equals ``state`` by determinism:
            # re-forking it would only freeze the live pages again.)
            while len(self._ckpts) >= CKPT_CACHE_SIZE:
                self._ckpts.pop(next(iter(self._ckpts)))
            handler = state.vm.process.syscall_handler
            manager = handler.thread_manager
            cached = _Ckpt(
                k=state.k, local=state.local,
                cpu=state.vm.cpu.snapshot(),
                mem=state.vm.mem.fork(),
                layout=handler.layout.fork(),
                manager=manager.fork() if manager is not None else None,
                consumed=handler.consumed,
                records=state.records)
        self._ckpts[key] = cached  # at the LRU's end either way

    # -- breakpoint / watchpoint scans ---------------------------------------

    def _scan_slice(self, k: int,
                    watch_only: set[int] | None = None) -> list[_Hit]:
        """Re-execute slice ``k`` from its boundary, collecting every
        breakpoint/watchpoint trigger with its exact global icount.

        Damaged slices cannot be scanned; their span is skipped (a hit
        inside a hole is unknowable without the snapshot).
        """
        if k in self.recording.damaged:
            return []
        start, end = self.recording.slice_span(k)
        span = end - start
        if span == 0:
            return []
        if watch_only is None and not self.breakpoints \
                and not self.watchpoints:
            return []
        self._scan_hits = []
        self._scan_retired = 0
        self._scan_bbl_base = 0
        self._scan_start = start
        self._scan_addrs = (watch_only if watch_only is not None
                            else set(self.watchpoints))
        scan_bps = frozenset() if watch_only is not None \
            else frozenset(self.breakpoints)
        # A scan takes the machine.  The template is everything
        # ``_scan_instrument`` reads: code kept under another breakpoint
        # set, or for watching where this scan does not, is compared
        # before it is served (repro.pin.jit) — never served stale.
        self._state = None
        vm = self._fork_boundary(k).vm
        vm.jit.template = ("scan", scan_bps, bool(self._scan_addrs))
        vm.add_trace_callback(self._scan_instrument, vm.jit.template)
        result = vm.run(max_instructions=span, exact_budget=True)
        self.counters["scanned_slices"] += 1
        self.counters["reexecuted_instructions"] += result.instructions
        self._publish()
        if result.instructions != span:
            raise DivergenceError(
                f"slice {k}: scan retired {result.instructions} of "
                f"{span} instructions (state {result.state.value})")
        hits, self._scan_hits = self._scan_hits, []
        return hits

    def _scan_instrument(self, trace, template) -> None:
        _, scan_bps, watching = template
        for bbl in trace.bbls:
            bbl.head.insert_call(IPOINT_BEFORE, self._scan_enter_bbl,
                                 IARG_PTR, bbl.num_ins, IARG_END)
            for j, ins in enumerate(bbl.instructions):
                if ins.address in scan_bps:
                    ins.insert_call(IPOINT_BEFORE, self._scan_bp,
                                    IARG_PTR, j,
                                    IARG_PTR, ins.address, IARG_END)
                if watching and ins.is_memory_write:
                    ins.insert_call(IPOINT_BEFORE, self._scan_wp,
                                    IARG_PTR, j,
                                    IARG_PTR, ins.address,
                                    IARG_MEMORYWRITE_EA, IARG_END)

    # Analysis routines: the per-BBL base plus the static in-BBL offset
    # gives each hit an exact retired-before count without per-
    # instruction callbacks.  BBL head calls are inserted before any
    # same-instruction hit probe, so the base is current when probes run.

    def _scan_enter_bbl(self, num_ins: int) -> None:
        self._scan_bbl_base = self._scan_retired
        self._scan_retired += num_ins

    def _scan_bp(self, j: int, pc: int) -> None:
        self._scan_hits.append(_Hit(
            icount=self._scan_start + self._scan_bbl_base + j,
            pc=pc, kind="breakpoint"))

    def _scan_wp(self, j: int, pc: int, ea: int) -> None:
        if ea in self._scan_addrs:
            self._scan_hits.append(_Hit(
                icount=self._scan_start + self._scan_bbl_base + j,
                pc=pc, kind="watchpoint", addr=ea))


def _number(token: str) -> int:
    """Parse a debugger numeric argument (decimal or 0x hex)."""
    try:
        return int(token, 0)
    except ValueError:
        raise TimeTravelError(f"not a number: {token!r}") from None


class DebugSession:
    """Line-oriented command interpreter over a :class:`TimeTravelEngine`.

    Shared by the interactive REPL and ``--script`` batch mode; every
    command produces a deterministic list of output lines, so a scripted
    session can be diffed against a golden transcript in CI.
    """

    def __init__(self, recording: Recording,
                 config: SuperPinConfig | None = None):
        self.engine = TimeTravelEngine(recording, config)

    def execute(self, line: str) -> list[str] | None:
        """Run one command; returns output lines, or None for ``quit``."""
        parts = line.split()
        if not parts:
            return []
        cmd, args = parts[0].lower(), parts[1:]
        handler = self._COMMANDS.get(cmd)
        if handler is None:
            raise TimeTravelError(
                f"unknown command {cmd!r} (try 'help')")
        return handler(self, args)

    # -- commands ------------------------------------------------------------

    def _cmd_help(self, args: list[str]) -> list[str]:
        return [
            "goto N              jump to retired-instruction count N",
            "step [N]            execute N instructions (default 1)",
            "step-back [N]       rewind N instructions (default 1)",
            "continue            run to the next breakpoint/watchpoint",
            "reverse-continue    run backward to the previous hit",
            "break [PC]          set a PC breakpoint (no arg: list)",
            "delete PC           remove a PC breakpoint",
            "watch [ADDR]        set a memory write watchpoint",
            "unwatch ADDR        remove a watchpoint",
            "lastwrite ADDR [N]  last write to ADDR before icount N",
            "regs                dump the register file",
            "mem ADDR [COUNT]    dump guest memory words",
            "info                recording summary",
            "stats               what the session re-executed, and was spared",
            "quit                leave the debugger",
        ]

    def _cmd_goto(self, args: list[str]) -> list[str]:
        if len(args) != 1:
            raise TimeTravelError("usage: goto N")
        return [self.engine.goto(_number(args[0])).describe()]

    def _cmd_step(self, args: list[str]) -> list[str]:
        n = _number(args[0]) if args else 1
        return [self.engine.step(n).describe()]

    def _cmd_step_back(self, args: list[str]) -> list[str]:
        n = _number(args[0]) if args else 1
        return [self.engine.step_back(n).describe()]

    def _cmd_continue(self, args: list[str]) -> list[str]:
        return [self.engine.continue_().describe()]

    def _cmd_reverse_continue(self, args: list[str]) -> list[str]:
        return [self.engine.reverse_continue().describe()]

    def _cmd_break(self, args: list[str]) -> list[str]:
        if not args:
            pcs = sorted(self.engine.breakpoints)
            return ["breakpoints: "
                    + (" ".join(f"{pc:#x}" for pc in pcs) or "<none>")]
        pc = _number(args[0])
        self.engine.breakpoints.add(pc)
        return [f"breakpoint at pc={pc:#x}"]

    def _cmd_delete(self, args: list[str]) -> list[str]:
        if len(args) != 1:
            raise TimeTravelError("usage: delete PC")
        self.engine.breakpoints.discard(_number(args[0]))
        return []

    def _cmd_watch(self, args: list[str]) -> list[str]:
        if not args:
            addrs = sorted(self.engine.watchpoints)
            return ["watchpoints: "
                    + (" ".join(f"{a:#x}" for a in addrs) or "<none>")]
        addr = _number(args[0])
        self.engine.watchpoints.add(addr)
        return [f"watchpoint at addr={addr:#x}"]

    def _cmd_unwatch(self, args: list[str]) -> list[str]:
        if len(args) != 1:
            raise TimeTravelError("usage: unwatch ADDR")
        self.engine.watchpoints.discard(_number(args[0]))
        return []

    def _cmd_lastwrite(self, args: list[str]) -> list[str]:
        if not 1 <= len(args) <= 2:
            raise TimeTravelError("usage: lastwrite ADDR [N]")
        addr = _number(args[0])
        limit = _number(args[1]) if len(args) == 2 else None
        hit = self.engine.last_write_before(addr, limit)
        if hit is None:
            return [f"no write to {addr:#x} before the limit"]
        return [f"last write to {hit.addr:#x}: icount={hit.icount} "
                f"pc={hit.pc:#x}"]

    def _cmd_regs(self, args: list[str]) -> list[str]:
        from ..isa.registers import register_name
        pc, regs = self.engine.registers()
        lines = [f"icount={self.engine.position} pc={pc:#x} "
                 f"fingerprint={self.engine.state_fingerprint()[:16]}"]
        for base in range(0, len(regs), 4):
            lines.append("  " + "  ".join(
                f"{register_name(i):>4}={regs[i]:#x}"
                for i in range(base, min(base + 4, len(regs)))))
        return lines

    def _cmd_mem(self, args: list[str]) -> list[str]:
        if not 1 <= len(args) <= 2:
            raise TimeTravelError("usage: mem ADDR [COUNT]")
        addr = _number(args[0])
        count = _number(args[1]) if len(args) == 2 else 1
        if not 1 <= count <= 256:
            raise TimeTravelError("mem count must be in [1, 256]")
        words = self.engine.read_memory(addr, count)
        lines = []
        for base in range(0, count, 4):
            chunk = words[base:base + 4]
            lines.append(f"  {addr + base:#x}: "
                         + " ".join(f"{w:#x}" for w in chunk))
        return lines

    def _cmd_info(self, args: list[str]) -> list[str]:
        rec = self.engine.recording
        lines = [f"{rec.num_slices} slices, "
                 f"{rec.total_instructions} instructions"]
        for k in range(rec.num_slices):
            start, end = rec.slice_span(k)
            state = " [damaged]" if k in rec.damaged else ""
            lines.append(f"  slice {k}: [{start}, {end}){state}")
        return lines

    def _cmd_stats(self, args: list[str]) -> list[str]:
        return [f"{name} = {value}"
                for name, value in self.engine.stats().items()]

    def _cmd_quit(self, args: list[str]) -> None:
        return None

    _COMMANDS = {
        "help": _cmd_help,
        "goto": _cmd_goto,
        "step": _cmd_step, "s": _cmd_step,
        "step-back": _cmd_step_back, "sb": _cmd_step_back,
        "continue": _cmd_continue, "c": _cmd_continue,
        "reverse-continue": _cmd_reverse_continue, "rc": _cmd_reverse_continue,
        "break": _cmd_break, "b": _cmd_break,
        "delete": _cmd_delete,
        "watch": _cmd_watch,
        "unwatch": _cmd_unwatch,
        "lastwrite": _cmd_lastwrite,
        "regs": _cmd_regs,
        "mem": _cmd_mem,
        "info": _cmd_info,
        "stats": _cmd_stats,
        "quit": _cmd_quit, "q": _cmd_quit,
    }
