"""Signature recording, quick-register selection, detection (§4.4)."""


import dataclasses

import pytest

from repro.isa import assemble
from repro.isa.registers import RA, SP
from repro.machine import Kernel, load_program
from repro.machine.cpu import CpuState
from repro.machine.interpreter import Interpreter
from repro.pin import (IARG_END, IARG_REG_VALUE, IPOINT_BEFORE, jit,
                       run_with_pin)
from repro.pin.trace import build_trace
from repro.superpin import (ControlProcess, DEFAULT_QUICK_REGS, Lookahead,
                            record_boundary_signature, record_signature,
                            record_signatures, run_superpin,
                            SignatureDetector, SuperPinConfig)
from repro.superpin import slices as slices_mod
from repro.superpin.signature import STACK_WORDS
from repro.tools import ICount2, TOOLS
from repro.workloads import build
from tests.conftest import all_generated, MULTISLICE, without_loop_forms
from tests.test_superpin.test_audit_fuzz import (random_syscall_program,
                                                 SEEDS)
from tests.test_superpin.test_threads_superpin import THREADED


class TestRecording:
    def test_captures_registers_and_stack(self):
        program = assemble(
            ".entry main\nmain:\n    li t0, 7\n    push t0\n    push t0\n"
            "    li a0, SYS_EXIT\n    li a1, 0\n    syscall\n")
        process = load_program(program, Kernel())
        interp = Interpreter(process)
        interp.run(max_instructions=3)  # after the two pushes
        sig = record_signature(process.cpu, process.mem)
        assert sig.pc == process.cpu.pc
        assert sig.regs == tuple(process.cpu.regs)
        assert sig.stack_base == process.cpu.regs[SP]
        assert sig.stack[:2] == (7, 7)
        assert len(sig.stack) <= STACK_WORDS

    def test_stack_clamped_at_stack_top(self):
        program = assemble(".entry main\nmain:\n    halt\n")
        process = load_program(program, Kernel())
        sig = record_signature(process.cpu, process.mem)
        assert sig.stack == ()  # empty stack: sp == STACK_TOP

    def test_partial_stack_near_top(self):
        program = assemble(
            ".entry main\nmain:\n    push t0\n    push t1\n    halt\n")
        process = load_program(program, Kernel())
        Interpreter(process).run(max_instructions=2)
        sig = record_signature(process.cpu, process.mem)
        assert len(sig.stack) == 2

    def test_quick_values_derived_from_regs(self):
        cpu = CpuState()
        cpu.regs[5] = 111
        cpu.regs[6] = 222
        program = assemble(".entry main\nmain:\n    halt\n")
        process = load_program(program, Kernel())
        process.cpu.regs[5] = 111
        process.cpu.regs[6] = 222
        sig = record_signature(process.cpu, process.mem, quick_regs=(5, 6))
        assert sig.quick_values == (111, 222)


def select_quick_registers(process):
    """The quick registers a lookahead made on the spot picks for
    ``process``'s state, run on a scratch fork of its memory."""
    return Lookahead().select(process.cpu.snapshot(),
                              process.mem.scratch_fork())


class TestQuickRegisterSelection:
    def test_loop_counter_selected(self):
        """In a counted loop, the counter register is the top candidate."""
        program = assemble("""
.entry main
main:
    li   t3, 0
    li   t4, 1000
lp: addi t3, t3, 1
    bne  t3, t4, lp
    halt
""")
        process = load_program(program, Kernel())
        # Start the lookahead *inside* the loop.
        Interpreter(process).run(max_instructions=5)
        quick = select_quick_registers(process)
        assert quick is not None
        assert 11 in quick  # t3 is r11

    def test_no_writes_falls_back_to_none(self):
        program = assemble("""
.entry main
main:
lp: nop
    nop
    j lp
""")
        process = load_program(program, Kernel())
        quick = select_quick_registers(process)
        assert quick is None  # caller then uses DEFAULT_QUICK_REGS

    def test_lookahead_does_not_mutate_snapshot(self):
        program = assemble("""
.entry main
main:
    li   t3, 0
lp: addi t3, t3, 1
    st   t3, 0x8000(t3)
    li   t4, 100
    blt  t3, t4, lp
    halt
""")
        process = load_program(program, Kernel())
        before_regs = list(process.cpu.regs)
        select_quick_registers(process)
        assert process.cpu.regs == before_regs
        assert process.mem.read(0x8001) == 0  # scratch fork absorbed writes

    def test_lookahead_stops_at_syscall(self):
        program = assemble("""
.entry main
main:
    addi t3, t3, 1
    li   a0, SYS_TIME
    syscall
    j    main
""")
        process = load_program(program, Kernel())
        quick = select_quick_registers(process)
        # Bounded observation before the syscall still yields candidates.
        assert quick is not None

    def test_defaults_are_sp_ra(self):
        assert DEFAULT_QUICK_REGS == (SP, RA)

    def test_store_heavy_loop_still_finds_the_counter(self):
        """Stores write memory, not registers: a store-dense loop must
        rank its counter first, with no phantom writes charged to the
        stored register (the old name-based classifier special-cased
        ``st`` by hand; the write-set metadata gets it for free)."""
        program = assemble("""
.entry main
main:
    li   t3, 0
lp: st   t3, 0x8000(zero)
    st   t3, 0x8001(zero)
    st   t3, 0x8002(zero)
    st   t3, 0x8003(zero)
    addi t3, t3, 1
    li   t4, 500
    blt  t3, t4, lp
    halt
""")
        process = load_program(program, Kernel())
        Interpreter(process).run(max_instructions=8)  # inside the loop
        quick = select_quick_registers(process)
        assert quick is not None
        assert quick[0] in (11, 12)  # t3/t4: the only written registers
        assert SP not in quick  # nothing pushed: sp never moves

    def test_push_pop_loop_counts_implicit_sp_writes(self):
        """push/pop encode no explicit destination, but each moves the
        stack pointer — the write-set the old classifier missed.  In a
        stack-dominated loop sp is the most-written register and must
        top the quick-check pair."""
        program = assemble("""
.entry main
main:
    li   t3, 0
lp: push t3
    push t3
    push t3
    pop  t4
    pop  t4
    pop  t4
    addi t3, t3, 1
    li   t5, 500
    blt  t3, t5, lp
    halt
""")
        process = load_program(program, Kernel())
        Interpreter(process).run(max_instructions=10)
        quick = select_quick_registers(process)
        assert quick is not None
        # sp: 6 writes/iteration vs 3 for t4 and 2 for t3/t5.
        assert quick[0] == SP

    def test_call_loop_counts_implicit_ra_writes(self):
        program = assemble("""
.entry main
main:
    li   t3, 0
lp: call leaf
    call leaf
    call leaf
    addi t3, t3, 1
    li   t4, 500
    blt  t3, t4, lp
    halt
leaf:
    ret
""")
        process = load_program(program, Kernel())
        Interpreter(process).run(max_instructions=6)
        quick = select_quick_registers(process)
        assert quick is not None
        assert RA in quick  # call's implicit link-register write


class TestDetectionStatistics:
    def test_full_check_rate_near_paper_value(self, multislice_program):
        """~2% of quick checks escalate (paper §4.4)."""
        config = SuperPinConfig(spmsec=500, clock_hz=10_000)
        report = run_superpin(multislice_program, ICount2(), config,
                              kernel=Kernel(seed=42))
        stats = report.detection_summary()
        assert stats["quick_checks"] > 1000
        assert 0.0 <= stats["full_check_rate"] <= 0.10

    def test_every_matched_slice_checked_stack_at_most_once_extra(
            self, multislice_program):
        """Stack check usually runs once and succeeds (paper §4.4)."""
        config = SuperPinConfig(spmsec=500, clock_hz=10_000)
        report = run_superpin(multislice_program, ICount2(), config,
                              kernel=Kernel(seed=42))
        for result in report.slices:
            if result.detection is None:
                continue
            det = result.detection
            assert det.matched
            # The stack check ran at most a couple of times per slice.
            assert det.stack_checks <= 3
            assert det.stack_mismatches <= det.stack_checks


class TestAMidBlockSignaturePc:
    """A slice decodes the traces serial Pin decodes, so its signature pc
    may sit strictly inside a block of a trace it entered from above.
    The slice must still stop between two whole blocks — a per-block
    tool would otherwise count the rest of the block the pc splits in
    both slices — and every tool's merged result must be serial Pin's.
    """

    CONFIG = dict(spmsec=500, clock_hz=10_000)

    def test_the_guest_puts_the_pc_inside_a_block(self):
        """What the class needs of MULTISLICE: a slice that retires
        part of a trace, and stops strictly inside one of its natural
        blocks."""
        program = assemble(MULTISLICE)
        report = run_superpin(program, ICount2(),
                              SuperPinConfig(**self.CONFIG),
                              kernel=Kernel(seed=42))
        mem = load_program(program, Kernel(seed=42)).mem
        inside = 0
        for result in report.slices[:-1]:
            for address, _ in set(result.compile_log):
                trace = build_trace(mem, address)
                for bbl in trace.bbls:
                    if bbl.address < result.end_pc <= bbl.tail.address:
                        inside += 1
        assert inside > 0

    @pytest.mark.parametrize("spworkers", [0, 2])
    @pytest.mark.parametrize("tool", ["icount2", "opcodemix", "memtrace"])
    def test_slices_equal_serial_pin(self, tool, spworkers):
        program = assemble(MULTISLICE)
        serial = TOOLS[tool]()
        run_with_pin(program, serial, Kernel(seed=42))
        sliced = TOOLS[tool]()
        report = run_superpin(program, sliced,
                              SuperPinConfig(spworkers=spworkers,
                                             **self.CONFIG),
                              kernel=Kernel(seed=42))
        assert report.all_exact
        assert sliced.report() == serial.report()


class CallbackDetector(SignatureDetector):
    """The detector as a trace callback registered after the tool's, its
    quick check an if-call and its full check a then-call: the check
    attached as a tool would attach it (the reference for the lowered
    one).  The engine has no check of its own to split the pc's block
    at, so :func:`split_at_callback_pcs` has the JIT split it there."""

    def attach(self):
        self.vm.add_trace_callback(self.instrument)

    def instrument(self, trace, value):
        offset = self.signature.pc - trace.address
        if 0 <= offset < trace.num_ins:
            ins = trace.instructions[offset]
            r0, r1 = self.signature.quick_regs
            ins.insert_if_call(IPOINT_BEFORE, self.quick_check,
                               IARG_REG_VALUE, r0, IARG_REG_VALUE, r1,
                               IARG_END)
            ins.insert_then_call(IPOINT_BEFORE, self.full_check, IARG_END)

    def quick_check(self, v0, v1):
        self.stats.quick_checks += 1
        return int((v0, v1) == self.signature.quick_values)

    def finish(self):
        return self.stats


def split_at_callback_pcs(patch):
    """Have ``Jit._blocks`` split the block a :class:`CallbackDetector`'s
    pc falls in, as it splits the one the engine's own check is at."""
    blocks = jit.Jit._blocks

    def split(self, skeleton, offset):
        for callback, _, _ in self._engine.trace_callbacks:
            detector = getattr(callback, "__self__", None)
            if isinstance(detector, CallbackDetector):
                offset = detector.signature.pc - skeleton.trace_obj.address
        blocks(self, skeleton,
               offset if 0 < offset < len(skeleton.instructions) else 0)
    patch.setattr(jit.Jit, "_blocks", split)


class TestTheCheckIsLowered:
    """The signature check is code the JIT lowers at the pc, not a trace
    callback — yet what it counts is what a callback's if/then pair
    counts: under a filter that leaves the pc's trace out (it is still
    no fast-path trace), sampling (a slice without the tool still
    checks) and loop summaries (a loop form holding the check does not
    summarize; the ``suppress`` row also holds the run against one with
    no loop form, which summarizes nothing), every slice and the merged
    result are the reference's, slice by slice and field by field."""

    CONFIG = dict(spmsec=500, clock_hz=10_000)

    def run(self, **overrides):
        tool = ICount2()
        report = run_superpin(assemble(MULTISLICE), tool,
                              SuperPinConfig(**self.CONFIG, **overrides),
                              kernel=Kernel(seed=42))
        assert report.all_exact
        self.metrics = report.metrics
        slices = [{field.name: getattr(result, field.name)
                   for field in dataclasses.fields(result)
                   if field.name != "tool_ctx"}
                  for result in report.slices]
        return slices, tool.report(), report.detection_summary()

    @pytest.mark.parametrize("backend", ["closure", "source"])
    @pytest.mark.parametrize("overrides", [
        dict(spfilter="opcode:syscall"), dict(spfilter="opcode:mem"),
        dict(spsample=2), dict(spmetrics=True)],
        ids=["filter-out", "filter-in", "sample", "suppress"])
    def test_every_slice_counts_what_a_callback_counted(
            self, overrides, backend, monkeypatch):
        if backend == "source":
            all_generated(monkeypatch)
        lowered = self.run(**overrides)
        with monkeypatch.context() as patch:
            patch.setattr(slices_mod, "SignatureDetector", CallbackDetector)
            split_at_callback_pcs(patch)
            assert self.run(**overrides) == lowered
        slices = lowered[0]
        assert sum(s["detection"].quick_checks for s in slices[:-1]) > 0
        # (What each variant is there for happened.)
        if overrides.get("spfilter") == "opcode:syscall":
            assert sum(s["fastpath_traces"] for s in slices) > 0
        if "spsample" in overrides:
            assert not all(s["instrumented"] for s in slices)
        if "spmetrics" in overrides:
            if backend == "source":
                assert self.metrics.counter(
                    "pin.suppress.summarized_loops") > 0
            with monkeypatch.context() as patch:
                without_loop_forms(patch)
                assert self.run(**overrides) == lowered

    def test_no_trace_callback_is_registered(self, monkeypatch):
        """The slice's engine is handed the check, not a callback: a
        slice the sampler leaves without its tool registers none.  (In
        process: what the patched ``attach`` sees stays in this one.)"""
        seen = []
        attach = SignatureDetector.attach
        monkeypatch.setattr(SignatureDetector, "attach", lambda detector: (
            attach(detector),
            seen.append((detector.vm.trace_callbacks,
                         detector.vm.signature_check)))[0])
        self.run(spsample=2, spworkers=0)
        assert seen and all(check is not None for _, check in seen)
        assert any(callbacks == [] for callbacks, _ in seen)


class TestFalsePositive:
    def test_memory_only_loop_counter_false_positive(self):
        """The paper's admitted failure mode, reproduced on purpose.

        A loop whose only changing state is a memory word (registers and
        stack identical across iterations) triggers a false-positive
        match on the first iteration after the slice boundary, so the
        merged instruction count underestimates the true count.
        """
        source = """
.entry main
main:
    ; memory cell 0x8000 counts iterations; every register is zeroed
    ; before each backedge, so the architectural state at every loop pc
    ; is identical across iterations -- only memory distinguishes them.
    li   t0, 0
    st   t0, 0x8000(zero)
loop:
    ld   t2, 0x8000(zero)
    addi t2, t2, 1
    st   t2, 0x8000(zero)
    li   t1, 60000
    slt  t3, t2, t1
    li   t2, 0
    li   t1, 0
    beqz t3, done
    li   t3, 0
    j    loop
done:
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""
        program = assemble(source)
        kernel = Kernel(seed=1)
        process = load_program(program, kernel)
        interp = Interpreter(process)
        interp.run(max_instructions=50_000_000)
        native = interp.total_instructions

        tool = ICount2()
        config = SuperPinConfig(spmsec=1000, clock_hz=10_000)
        report = run_superpin(program, tool, config, kernel=Kernel(seed=1))
        assert report.num_slices > 1
        # The false positive fires: slices end early, undercounting.
        assert not report.all_exact
        assert tool.total < native


#: As imported, before any ``--jit-hot-threshold`` patch.
SHIPPED = jit.HOT_EXECUTIONS_PER_COMPILE


def _bench_guest(name, scale):
    return lambda: build(name, scale=scale).program


class TestResidentLookahead:
    """One lookahead machine serves every boundary of a run; what it
    chooses — and so every ``Signature`` — must be what a freshly built
    engine chooses at that boundary."""

    GUESTS = {
        # The four bench guests (artifact-service's is gzip again).
        "gzip": _bench_guest("gzip", 0.1),
        "gcc": _bench_guest("gcc", 0.03),
        "mcf": _bench_guest("mcf", 0.05),
        "multislice": lambda: assemble(MULTISLICE),
        "threads": lambda: assemble(THREADED),
        **{f"fuzz{seed}": (lambda seed=seed: assemble(
            random_syscall_program(seed))) for seed in SEEDS},
    }

    @pytest.mark.parametrize("guest", list(GUESTS))
    def test_same_signatures_as_a_fresh_engine_per_boundary(self, guest):
        config = SuperPinConfig(
            spmsec=50 if guest.startswith("fuzz") else 300,
            clock_hz=10_000)
        timeline = ControlProcess(self.GUESTS[guest](), config,
                                  kernel=Kernel(seed=42)).run()
        fresh = [record_boundary_signature(boundary)
                 for boundary in timeline.boundaries[1:]]
        assert len(fresh) >= 2
        assert any(s.adaptive and s.quick_regs != DEFAULT_QUICK_REGS
                   for s in fresh)
        assert record_signatures(timeline, config) == fresh
        # ... in any order, and on a machine other programs have used.
        lookahead = Lookahead()
        for boundary, expected in reversed(
                list(zip(timeline.boundaries[1:], fresh))):
            assert record_boundary_signature(
                boundary, lookahead) == expected
        other = ControlProcess(assemble(MULTISLICE), config,
                               kernel=Kernel(seed=42)).run()
        record_boundary_signature(other.boundaries[1], lookahead)
        assert record_boundary_signature(
            timeline.boundaries[1], lookahead) == fresh[0]

    def test_the_machine_does_reuse_what_it_decoded(self, monkeypatch):
        monkeypatch.setattr(jit, "HOT_EXECUTIONS_PER_COMPILE", SHIPPED)
        config = SuperPinConfig(spmsec=300, clock_hz=10_000)
        timeline = ControlProcess(assemble(MULTISLICE), config,
                                  kernel=Kernel(seed=42)).run()
        lookahead = Lookahead()
        reuses, served = [], []
        for boundary in timeline.boundaries[1:]:
            record_boundary_signature(boundary, lookahead)
            stats = lookahead._vm.jit_stats
            reuses.append(stats.skeleton_reuses)
            served.append(stats.instrumentation_reuses)
            assert stats.instrumentation_declined == 0
        assert reuses[0] == 0 and sum(reuses) > 0
        # ... nor instrument a block a third time: its counters are
        # bound methods of one resident object.
        assert served[:2] == [0, 0] and sum(served) > 0
        # Twenty blocks a boundary never make a trace hot.
        assert lookahead._vm.jit_stats.hot_compiles == 0
