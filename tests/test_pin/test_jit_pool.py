"""A resident engine: ``PinVM.reset`` and the JIT's in-process pool.

The oracle throughout is the freshly built engine: a reset engine must
*be* one (attribute by attribute), and a compile served from the pool
must produce the trace a fresh compile produces — so every validity
check in ``Jit._refusal`` has a test here that fails if it is dropped.
"""

import dataclasses
import sys
import threading
from collections import OrderedDict

import pytest

from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.pin import CodeCache, jit, PinVM, RunState
from repro.pin.jit import VARIANTS_PER_HEAD
from repro.tools import ICount1, ICount2
from tests.conftest import MULTISLICE

BACKENDS = ["closure", "source"]

#: What outlives a reset, by identity ...
RESIDENT = {"process", "cpu", "mem", "counters", "jit"}
#: ... and what is fixed at construction.
CONSTRUCTION = RESIDENT | {"max_trace_ins", "jit_backend"}

_ATOMS = (int, float, str, bytes, bool, type(None), frozenset)


def _image(value, engine, seen=None):
    """A comparable picture of ``value``: plain data all the way down,
    with the owning engine and reference cycles replaced by tokens."""
    seen = set() if seen is None else seen
    if value is engine:
        return "<engine>"
    if isinstance(value, _ATOMS) or callable(value):
        return value
    if id(value) in seen:
        return "<cycle>"
    seen = seen | {id(value)}
    if isinstance(value, dict):
        return {key: _image(item, engine, seen)
                for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_image(item, engine, seen) for item in value]
    names = (list(vars(value)) if hasattr(value, "__dict__")
             else [name for klass in type(value).__mro__
                   for name in getattr(klass, "__slots__", ())])
    return (type(value).__name__,
            {name: _image(getattr(value, name), engine, seen)
             for name in names})


def _dirty_engine(backend):
    """An engine every per-run field of which a run has touched."""
    process = load_program(assemble(MULTISLICE), Kernel(seed=42))
    vm = PinVM(process, jit_backend=backend, suppress_loops=True,
               forced_boundaries=frozenset({3}))
    ICount2().activate(vm)
    vm.add_syscall_observer(lambda outcome: None)
    assert vm.run(max_instructions=5000,
                  exact_budget=True).state is RunState.BUDGET
    assert vm._step_cache
    return vm


class TestReset:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reset_engine_equals_fresh_engine(self, backend):
        settings = dict(forced_boundaries=frozenset({7}),
                        link_traces=True, suppress_loops=False)
        used = _dirty_engine(backend)
        kept = {name: getattr(used, name) for name in RESIDENT}
        used.reset(code_cache=CodeCache(), **settings)
        fresh = PinVM(load_program(assemble(MULTISLICE), Kernel(seed=42)),
                      jit_backend=backend, code_cache=CodeCache(),
                      **settings)
        assert set(vars(used)) == set(vars(fresh))
        for name in set(vars(fresh)) - RESIDENT:
            assert (_image(getattr(used, name), used)
                    == _image(getattr(fresh, name), fresh)), name
        for name, value in kept.items():
            assert getattr(used, name) is value, name
        assert used.counters == [0, 0]

    def test_reset_builds_every_per_run_field(self):
        """The constructor sets the resident identities and calls
        ``reset`` for the rest: a per-run field added later cannot be
        initialised in one place and forgotten in the other."""
        vm = PinVM(load_program(assemble(MULTISLICE), Kernel(seed=42)))
        names = set(vars(vm))
        for name in names - CONSTRUCTION:
            delattr(vm, name)
        vm.reset()
        assert set(vars(vm)) == names

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_second_run_on_a_reset_engine_is_a_first_run(self, backend):
        def measure(vm):
            tool = ICount2()
            tool.activate(vm)
            result = vm.run(max_instructions=4000)
            return (dataclasses.astuple(result), tool.icount,
                    dataclasses.astuple(vm.cache.stats),
                    vm.cache.insert_log, vm.cpu.snapshot())

        def fresh():
            return PinVM(load_program(assemble(MULTISLICE),
                                      Kernel(seed=42)),
                         jit_backend=backend)

        expected = measure(fresh())
        vm = fresh()
        vm.jit.pool = {}
        measure(vm)
        again = load_program(assemble(MULTISLICE), Kernel(seed=42))
        vm.process.syscall_handler = again.syscall_handler
        vm.process.exited = False
        vm.cpu.restore(again.cpu.snapshot())
        vm.mem.adopt(again.mem)
        vm.reset()
        assert measure(vm) == expected
        assert vm.jit_stats.skeleton_reuses > 0


#: Straight-line code, so trace shape is decided by the forced
#: boundaries alone: one trace from ``main`` to the syscall.
STRAIGHT = """
.entry main
main:
    li   t0, 1
    addi t0, t0, 2
    addi t0, t0, 3
    addi t0, t0, 4
    addi t0, t0, 5
    li   a0, SYS_EXIT
    mov  a1, t0
    syscall
"""


def _shape(trace):
    return (trace.start, trace.num_ins, trace.fall_address,
            trace.bbl_sizes, [ins.address for ins in trace.instructions])


class TestSkeletonValidity:
    """Each test compiles on a pooled engine what a fresh engine
    compiles under the same conditions and demands the same trace.
    (``test_tiering`` runs the class again on the generated-code
    lowering.)"""

    backend = "closure"

    def setup_method(self):
        self.program = assemble(STRAIGHT)
        self.entry = self.program.entry
        self.vm = PinVM(load_program(self.program, Kernel(seed=1)),
                        jit_backend=self.backend)
        self.vm.jit.pool = {}

    def fresh_shape(self, forced=frozenset(), patch=None):
        process = load_program(self.program, Kernel(seed=1))
        if patch:
            process.mem.write(*patch)
        vm = PinVM(process, forced_boundaries=forced,
                   jit_backend=self.backend)
        return _shape(vm.jit.compile(self.entry))

    def test_unchanged_trace_is_reused(self):
        first = self.vm.jit.compile(self.entry)
        self.vm.reset()
        second = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert _shape(second) == _shape(first) == self.fresh_shape()
        # Uninstrumented steps *are* the pooled semantics closures.
        assert second.steps == first.steps

    def test_boundary_inside_a_pooled_trace_recuts_it(self):
        self.vm.jit.compile(self.entry)
        forced = frozenset({self.entry + 3})
        self.vm.reset(forced_boundaries=forced)
        recut = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.rejects_cut == 1
        assert self.vm.jit_stats.skeleton_reuses == 0
        assert recut.num_ins == 3 and recut.fall_address == self.entry + 3
        assert _shape(recut) == self.fresh_shape(forced)

    def test_cut_skeleton_extends_where_its_end_is_not_forced(self):
        forced = frozenset({self.entry + 3})
        self.vm.reset(forced_boundaries=forced)
        assert self.vm.jit.compile(self.entry).num_ins == 3
        self.vm.reset()
        whole = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.rejects_cut == 1
        assert whole.num_ins == 8
        assert _shape(whole) == self.fresh_shape()

    def test_cut_skeleton_is_reused_where_its_end_is_forced_again(self):
        forced = frozenset({self.entry + 3})
        self.vm.reset(forced_boundaries=forced)
        self.vm.jit.compile(self.entry)
        self.vm.reset(forced_boundaries=forced)
        again = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert _shape(again) == self.fresh_shape(forced)

    def test_two_cuts_of_one_head_do_not_evict_each_other(self):
        """Runs that force their boundary at two places inside one
        trace, in turn: each shape is decoded once and then reused —
        a forced cut refuses a candidate, it does not replace it."""
        cuts = [frozenset({self.entry + 3}), frozenset({self.entry + 5})]
        for turn, forced in enumerate(cuts + cuts + [frozenset()] + cuts):
            self.vm.reset(forced_boundaries=forced)
            trace = self.vm.jit.compile(self.entry)
            assert _shape(trace) == self.fresh_shape(forced), turn
            stats = self.vm.jit_stats
            # Turn 0 meets an empty pool; turns 1 and 4 a head whose
            # shapes are all other cuts: one reject a compile.
            assert (stats.skeleton_reuses, stats.rejects_cut) \
                == ((0, turn == 1 or turn == 4) if turn in (0, 1, 4)
                    else (1, 0)), turn
        assert len(self.vm.jit.pool[self.entry]) == 3

    def test_a_head_keeps_a_bounded_number_of_shapes(self):
        source = ".entry main\nmain:\n" + "    addi t0, t0, 1\n" * (
            VARIANTS_PER_HEAD + 4) + "    halt\n"
        vm = PinVM(load_program(assemble(source), Kernel(seed=1)),
                   jit_backend=self.backend)
        vm.jit.pool = {}
        entry = vm.cpu.pc
        for cut in range(1, VARIANTS_PER_HEAD + 3):
            vm.reset(forced_boundaries=frozenset({entry + cut}))
            assert vm.jit.compile(entry).num_ins == cut
        assert len(vm.jit.pool[entry]) == VARIANTS_PER_HEAD
        # The most recent are kept, the first went first.
        vm.reset(forced_boundaries=frozenset({entry + VARIANTS_PER_HEAD}))
        vm.jit.compile(entry)
        assert vm.jit_stats.skeleton_reuses == 1
        vm.reset(forced_boundaries=frozenset({entry + 1}))
        vm.jit.compile(entry)
        assert (vm.jit_stats.skeleton_reuses,
                vm.jit_stats.rejects_cut) == (0, 1)

    def test_a_boundary_at_the_trace_head_cuts_nothing(self):
        self.vm.jit.compile(self.entry)
        self.vm.reset(forced_boundaries=frozenset({self.entry}))
        assert self.vm.jit.compile(self.entry).num_ins == 8
        assert self.vm.jit_stats.skeleton_reuses == 1

    def test_rewritten_guest_word_is_decoded_again(self):
        self.vm.jit.compile(self.entry)
        donor = self.vm.mem.read(self.entry + 7)       # the syscall
        patch = (self.entry + 2, donor)
        self.vm.mem.write(*patch)
        self.vm.reset()
        changed = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.rejects_words == 1
        assert changed.num_ins == 3
        assert _shape(changed) == self.fresh_shape(patch=patch)

    def test_a_trace_that_stops_ahead_of_a_hole_is_reused_until_it_fills(
            self):
        """Under strict memory ``build_trace`` ends a trace ahead of an
        unmapped word: that end is no forced cut to refuse for ever, and
        a mapping over the hole is a change of the words under it."""
        source = ".entry main\nmain:\n    li t0, 1\n    beq t0, t0, main\n"

        def strict():
            process = load_program(assemble(source), Kernel(seed=1),
                                   strict_memory=True)
            return PinVM(process, jit_backend=self.backend)

        vm = strict()
        vm.jit.pool = {}
        entry = vm.cpu.pc
        for turn in range(2):
            vm.reset()
            trace = vm.jit.compile(entry)
            assert (trace.num_ins, trace.fall_address) == (2, entry + 2)
        assert (vm.jit_stats.skeleton_reuses, vm.jit_stats.rejects_cut,
                vm.jit_stats.rejects_words) == (1, 0, 0)
        vm.mem.map_region(entry + 2, 1)
        vm.reset()
        longer = vm.jit.compile(entry)
        assert vm.jit_stats.rejects_words == 1
        fresh = strict()
        fresh.mem.map_region(entry + 2, 1)
        assert _shape(longer) == _shape(fresh.jit.compile(entry))
        assert longer.num_ins == 3

    def test_reuse_starts_from_bare_instructions(self):
        """The last run's analysis calls must not survive into the next
        run's trace: reuse re-instruments, it does not inherit."""
        tool = ICount1()
        tool.activate(self.vm)
        self.vm.run()
        assert tool.icount == 8
        self.vm.process.exited = False
        self.vm.cpu.restore((self.entry, (0,) * 32))
        self.vm.reset()
        result = self.vm.run()
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert result.analysis_calls == 0 and tool.icount == 8

    def test_off_a_machine_nothing_is_retained(self):
        vm = PinVM(load_program(self.program, Kernel(seed=1)),
                   jit_backend=self.backend)
        assert vm.jit.pool is None
        vm.jit.compile(self.entry)
        vm.reset()
        vm.jit.compile(self.entry)
        assert vm.jit.pool is None
        assert vm.jit_stats.skeleton_reuses == 0


class TestSourcePool:
    def setup_method(self):
        self.program = assemble(STRAIGHT)
        self.entry = self.program.entry
        self.vm = PinVM(load_program(self.program, Kernel(seed=1)),
                        jit_backend="source")
        self.vm.jit.pool = {}

    def test_same_text_rebinds_the_pooled_code_object(self):
        first = self.vm.jit.compile(self.entry)
        self.vm.reset()
        second = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert self.vm.jit_stats.intern_hits == 1
        assert second.fn.__code__ is first.fn.__code__
        assert second.fn is not first.fn
        assert second.fn.__globals__ is not first.fn.__globals__

    def test_other_instrumentation_is_other_text(self):
        first = self.vm.jit.compile(self.entry)
        self.vm.reset()
        ICount1().activate(self.vm)
        second = self.vm.jit.compile(self.entry)
        # The decoded trace is shared; the code object is per text.
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert second.source != first.source
        assert second.fn.__code__ is not first.fn.__code__
        assert jit._INTERN[first.source] is first.fn.__code__
        assert jit._INTERN[second.source] is second.fn.__code__


#: Memory traffic, so strict and lenient memory lower it differently
#: (strict mode sets unwind markers ahead of every access).
MEMORY = """
.entry main
main:
    li   t0, 7
    st   t0, 0x9000(zero)
    ld   t1, 0x9000(zero)
    li   a0, SYS_EXIT
    mov  a1, t1
    syscall
"""


def _engine(source=STRAIGHT, strict=False, tool=None):
    """A bare engine (no skeleton pool) that generates every trace."""
    process = load_program(assemble(source), Kernel(seed=1),
                           strict_memory=strict)
    vm = PinVM(process, jit_backend="source")
    if tool is not None:
        tool().activate(vm)
    return vm


@pytest.fixture
def intern(monkeypatch):
    """An empty code pool of its own, bounded at :data:`INTERN_BOUND`."""
    pool = OrderedDict()
    monkeypatch.setattr(jit, "_INTERN", pool)
    return pool


class TestTheProcessCodePool:
    """Generated code objects are the process's, by text: any engine
    rebinds what another compiled, over its own namespace."""

    def test_two_engines_share_code_and_not_namespaces(self, intern):
        one, two = _engine(), _engine()
        first = one.jit.compile(one.cpu.pc)
        second = two.jit.compile(two.cpu.pc)
        assert (one.jit_stats.intern_hits, two.jit_stats.intern_hits) \
            == (0, 1)
        assert second.fn.__code__ is first.fn.__code__
        assert second.fn.__globals__ is not first.fn.__globals__
        assert second.fn.__globals__["E"] is two
        assert first.fn.__globals__["E"] is one
        one.run()
        two.run()
        assert one.process.exit_code == two.process.exit_code == 15

    @pytest.mark.parametrize("other", [
        dict(tool=ICount1), dict(source=MEMORY, strict=True)],
        ids=["instrumentation", "strict-memory"])
    def test_another_lowering_is_another_code_object(self, intern, other):
        source = other.get("source", STRAIGHT)
        plain = _engine(source)
        first = plain.jit.compile(plain.cpu.pc)
        vm = _engine(**{"source": source, **other})
        second = vm.jit.compile(vm.cpu.pc)
        assert second.source != first.source
        assert second.fn.__code__ is not first.fn.__code__
        assert vm.jit_stats.intern_hits == 0
        assert len(intern) == 2

    def test_the_bound_evicts_the_least_recently_used(self, intern,
                                                      monkeypatch):
        monkeypatch.setattr(jit, "INTERN_BOUND", 2)
        vm = _engine()
        entry = vm.cpu.pc
        sources = {}

        def compile_cut(cut):
            vm.reset(forced_boundaries=frozenset({entry + cut}))
            hits = vm.jit_stats.intern_hits
            sources[cut] = vm.jit.compile(entry).source
            return vm.jit_stats.intern_hits - hits

        assert [compile_cut(cut) for cut in (3, 5, 3, 6)] == [0, 0, 1, 0]
        # 5 was used least recently when 6 came in.
        assert list(intern) == [sources[3], sources[6]]
        assert [compile_cut(cut) for cut in (3, 5)] == [1, 0]
        assert list(intern) == [sources[3], sources[5]]

    def test_two_threads_compiling_at_once_raise_nothing_and_agree(
            self, intern, monkeypatch):
        """The daemon's job threads compile at once.  Four shapes over a
        pool of two keep both threads evicting while they look up."""
        monkeypatch.setattr(jit, "INTERN_BOUND", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        start = threading.Barrier(2)
        seen: dict[str, list] = {}

        def job(name):
            vm = _engine()
            entry = vm.cpu.pc
            start.wait()
            for turn in range(60):
                cut = 3 + turn % 4
                vm.reset(forced_boundaries=frozenset({entry + cut}))
                trace = vm.jit.compile(entry)
                seen.setdefault(name, []).append(
                    (trace.source, trace.fn.__code__.co_code))

        try:
            threads = [threading.Thread(target=job, args=(name,))
                       for name in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen["a"]) == 60 and seen["a"] == seen["b"]
        assert len(intern) <= 2 + len(threads)
