"""Control process: timeslice policy, boundaries, recording."""


from repro.isa import abi, assemble
from repro.machine import EMULATE, Kernel, REPLAY
from repro.superpin import BoundaryReason, ControlProcess, SuperPinConfig


def run_control(source_or_program, config=None, seed=42):
    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    control = ControlProcess(program, config or SuperPinConfig(),
                             kernel=Kernel(seed=seed))
    return control.run()


class TestTimeoutSlicing:
    def test_timeout_boundaries(self, loop_program):
        config = SuperPinConfig(spmsec=1000, clock_hz=100)  # 100-instr slices
        timeline = run_control(loop_program, config)
        assert timeline.num_slices > 1
        reasons = [b.reason for b in timeline.boundaries]
        assert reasons[0] is BoundaryReason.START
        assert all(r is BoundaryReason.TIMEOUT for r in reasons[1:])

    def test_intervals_partition_execution(self, multislice_program):
        config = SuperPinConfig(spmsec=500, clock_hz=10_000)
        timeline = run_control(multislice_program, config)
        assert sum(i.instructions for i in timeline.intervals) \
            == timeline.total_instructions
        assert all(i.instructions > 0 for i in timeline.intervals)
        assert timeline.intervals[-1].is_last

    def test_timeout_interval_respects_budget(self, multislice_program):
        config = SuperPinConfig(spmsec=500, clock_hz=10_000)
        timeline = run_control(multislice_program, config)
        budget = config.timeslice_cycles
        for interval in timeline.intervals:
            if interval.end_reason is BoundaryReason.TIMEOUT:
                # Timer fires within one syscall-return of the budget.
                assert interval.instructions <= budget + 1

    def test_single_slice_for_short_program(self, hello_program):
        timeline = run_control(hello_program)
        assert timeline.num_slices == 1
        assert timeline.intervals[0].is_last


class TestSyscallPolicy:
    def test_replay_syscalls_recorded_not_forced(self, multislice_program):
        config = SuperPinConfig(spmsec=10_000, clock_hz=10_000)
        timeline = run_control(multislice_program, config)
        interval = timeline.intervals[0]
        assert interval.replay_records > 0
        kinds = {r.record.klass for i in timeline.intervals
                 for r in i.records}
        assert REPLAY in kinds

    def test_force_class_cuts_boundary(self):
        source = """
.entry main
main:
    li   t0, 0
lp: addi t0, t0, 1
    li   t1, 50
    blt  t0, t1, lp
    li   a0, SYS_OPEN
    la   a1, path
    li   a2, 1
    li   a3, 1
    syscall
    li   t0, 0
lp2: addi t0, t0, 1
    li   t1, 50
    blt  t0, t1, lp2
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
.data
path: .ascii "f"
"""
        timeline = run_control(source)
        assert timeline.num_slices == 2
        assert timeline.boundaries[1].reason \
            is BoundaryReason.SYSCALL_FORCE
        # The forcing syscall is the last record of the first interval,
        # so the covering slice can replay through it.
        last = timeline.intervals[0].records[-1]
        assert last.record.number == abi.SYS_OPEN

    def test_emulate_class_does_not_force(self):
        source = """
.entry main
main:
    li   a0, SYS_BRK
    li   a1, 0
    syscall
    mov  a1, rv
    addi a1, a1, 64
    li   a0, SYS_BRK
    syscall
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""
        timeline = run_control(source)
        assert timeline.num_slices == 1
        klasses = [r.record.klass for r in timeline.intervals[0].records]
        assert klasses.count(EMULATE) == 2

    def test_sysrec_budget_forces_boundary(self, multislice_program):
        config = SuperPinConfig(spmsec=60_000, clock_hz=10_000,
                                spsysrecs=5)
        timeline = run_control(multislice_program, config)
        reasons = {b.reason for b in timeline.boundaries[1:]}
        assert BoundaryReason.SYSREC_FULL in reasons
        for interval in timeline.intervals:
            assert interval.replay_records <= 5

    def test_sysrecs_zero_forces_every_replay_syscall(self,
                                                      multislice_program):
        config = SuperPinConfig(spmsec=60_000, clock_hz=10_000,
                                spsysrecs=0)
        timeline = run_control(multislice_program, config)
        # 40 time + 40 getrandom + final write -> one boundary after each
        # (the exit call ends the run instead of forcing).
        forced = [b for b in timeline.boundaries[1:]
                  if b.reason is BoundaryReason.SYSCALL_FORCE]
        assert len(forced) == 81

    def test_exit_record_kept_for_final_slice(self, multislice_program):
        timeline = run_control(multislice_program)
        last_records = timeline.intervals[-1].records
        assert last_records[-1].record.number == abi.SYS_EXIT


class TestBudgetClamp:
    """A recorded syscall retiring the last budgeted instruction must cut
    a boundary, not re-enter the master's engine with a zero budget."""

    # The SYS_TIME syscall retires as instruction 2 — exactly the
    # 2-instruction timeslice budget below.
    EXACT_BUDGET = """
.entry main
main:
    li   a0, SYS_TIME
    syscall
    li   t0, 0
    li   t1, 100
lp: addi t0, t0, 1
    blt  t0, t1, lp
    li   a0, SYS_EXIT
    li   a1, 0
    syscall
"""

    def test_master_never_gets_nonpositive_budget(self, monkeypatch):
        from repro.pin import PinVM
        from repro.superpin import control as control_mod

        budgets = []

        class SpyVM(PinVM):
            def run(self, max_instructions=None, **kwargs):
                budgets.append(max_instructions)
                return super().run(max_instructions, **kwargs)

        monkeypatch.setattr(control_mod, "PinVM", SpyVM)
        config = SuperPinConfig(spmsec=2, clock_hz=1000)  # 2-instr slices
        assert config.timeslice_cycles == 2
        timeline = run_control(self.EXACT_BUDGET, config)

        assert budgets, "spy engine never ran"
        assert all(b > 0 for b in budgets)
        # The exhausted budget cut a timer boundary right at the syscall.
        assert timeline.boundaries[1].reason is BoundaryReason.TIMEOUT
        assert timeline.intervals[0].instructions == 2
        # And the run still completed, partitioning execution exactly.
        assert sum(i.instructions for i in timeline.intervals) \
            == timeline.total_instructions


class TestSnapshots:
    def test_boundary_snapshots_are_isolated(self, multislice_program):
        config = SuperPinConfig(spmsec=500, clock_hz=10_000)
        timeline = run_control(multislice_program, config)
        assert len(timeline.boundaries) >= 3
        b1, b2 = timeline.boundaries[1], timeline.boundaries[2]
        # Master progressed between boundaries.
        assert b2.master_instructions > b1.master_instructions
        # Snapshots differ (registers or pc moved on).
        assert b1.cpu_snapshot != b2.cpu_snapshot

    def test_bubble_reserved_before_app_runs(self, hello_program):
        control = ControlProcess(hello_program, SuperPinConfig(),
                                 kernel=Kernel())
        assert abi.BUBBLE_BASE in control.kernel.layout.mappings

    def test_app_mmap_avoids_bubble(self):
        source = """
.entry main
main:
    li   a0, SYS_MMAP
    li   a1, 0
    li   a2, 4096
    syscall
    mov  t0, rv
    li   a0, SYS_EXIT
    mov  a1, t0
    syscall
"""
        timeline = run_control(source)
        base = timeline.exit_code
        assert not (abi.BUBBLE_BASE <= base
                    < abi.BUBBLE_BASE + abi.BUBBLE_WORDS)

    def test_master_cow_faults_tracked(self, multislice_program):
        config = SuperPinConfig(spmsec=500, clock_hz=10_000)
        timeline = run_control(multislice_program, config)
        # After the first fork the master's stores hit frozen pages.
        assert any(i.master_cow_faults > 0
                   for i in timeline.intervals[1:])
