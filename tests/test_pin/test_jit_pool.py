"""A resident engine: ``PinVM.reset`` and the JIT's in-process pool.

The oracle throughout is the freshly built engine: a reset engine must
*be* one (attribute by attribute), and a compile served from the pool
must produce the trace a fresh compile produces, and hand the callbacks
the blocks a fresh compile hands them — so every validity check in
``Jit._refusal`` and every rule of ``Jit._blocks`` has a test here that
fails if it is dropped.
"""

import dataclasses
import sys
import threading
from collections import OrderedDict

import pytest

from repro.isa import assemble, encode, Op
from repro.machine import Kernel, load_program
from repro.pin import (CodeCache, IARG_END, IARG_UINT64, IPOINT_BEFORE, jit,
                       PinVM, RunState)
from repro.pin.jit import _Skeleton
from repro.tools import ICount1, ICount2
from tests.conftest import MULTISLICE

BACKENDS = ["closure", "source"]

#: What outlives a reset, by identity ...
RESIDENT = {"process", "cpu", "mem", "counters", "jit"}
#: ... and what is fixed at construction.
CONSTRUCTION = RESIDENT | {"max_trace_ins"}

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


def _never(vm, pc):
    """Have ``vm`` check for a signature at ``pc`` (None: nowhere) whose
    quick values no register ever holds: the pc cuts its trace, and the
    check never matches."""
    if pc is not None:
        vm.add_signature_check(pc, (8, 9), (-1, -1), lambda: None)


def _dirty_engine(backend):
    """An engine every per-run field of which a run has touched."""
    process = load_program(assemble(MULTISLICE), Kernel(seed=42))
    vm = PinVM(process, jit_backend=backend, suppress_loops=True)
    _never(vm, vm.cpu.pc + 3)
    ICount2().activate(vm)
    vm.add_syscall_observer(lambda outcome: None)
    assert vm.run(max_instructions=5000,
                  exact_budget=True).state is RunState.BUDGET
    assert vm._step_cache
    return vm


class TestReset:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reset_engine_equals_fresh_engine(self, backend):
        settings = dict(link_traces=True, suppress_loops=False)
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
        measure(vm)
        again = load_program(assemble(MULTISLICE), Kernel(seed=42))
        vm.process.syscall_handler = again.syscall_handler
        vm.process.exited = False
        vm.cpu.restore(again.cpu.snapshot())
        vm.mem.adopt(again.mem)
        vm.reset()
        assert measure(vm) == expected
        assert vm.jit_stats.skeleton_reuses > 0


#: Straight-line code: one trace, and one block, from ``main`` to the
#: syscall.
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
            [ins.address for ins in trace.instructions])


def _watch_blocks(vm):
    """The block sizes of every trace ``vm``'s callbacks are handed
    from now on, one list a compile."""
    seen = []
    vm.add_trace_callback(
        lambda trace, value: seen.append([bbl.num_ins for bbl in trace.bbls]))
    return seen


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

    def fresh_shape(self, patch=None, pc=None):
        """What a fresh engine compiles at the entry, and the blocks its
        callbacks are handed with its signature pc at ``pc``."""
        process = load_program(self.program, Kernel(seed=1))
        if patch:
            process.mem.write(*patch)
        vm = PinVM(process, jit_backend=self.backend)
        _never(vm, pc)
        blocks = _watch_blocks(vm)
        return _shape(vm.jit.compile(self.entry)), blocks[0]

    def compile_at(self, pc=None):
        """Reset the pooled engine onto a signature pc at ``pc`` and
        compile the entry: its shape, and the blocks its callbacks were
        handed."""
        self.vm.reset()
        _never(self.vm, pc)
        blocks = _watch_blocks(self.vm)
        return _shape(self.vm.jit.compile(self.entry)), blocks[0]

    def test_unchanged_trace_is_reused(self):
        first = self.vm.jit.compile(self.entry)
        self.vm.reset()
        second = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert _shape(second) == _shape(first) == self.fresh_shape()[0]
        # Uninstrumented steps *are* the pooled semantics closures.
        assert second.steps == first.steps

    def test_signature_pc_splits_its_block(self):
        """The trace is the pooled one, whole; only the block the pc
        falls in is handed over split there."""
        self.compile_at()
        pc = self.entry + 3
        split = self.compile_at(pc)
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert split == self.fresh_shape(pc=pc)
        assert split[1] == [3, 5] and split[0][1] == 8

    def test_without_the_pc_the_blocks_are_whole(self):
        assert self.compile_at(self.entry + 3)[1] == [3, 5]
        whole = self.compile_at()
        assert self.vm.jit_stats.skeleton_reuses == 1
        assert whole == self.fresh_shape() and whole[1] == [8]

    def test_a_pc_at_a_block_head_splits_nothing(self):
        """... nor one outside the trace."""
        self.compile_at()
        for pc in (self.entry, self.entry + 8, self.entry - 1):
            seen = self.compile_at(pc)
            assert seen == self.fresh_shape(pc=pc) and seen[1] == [8], pc
            assert self.vm.jit_stats.skeleton_reuses == 1
        # A natural block head stays one: a branch ends its block.
        source = (".entry main\nmain:\n    li t0, 1\n    beq t0, t0, next\n"
                  "next:\n    li t1, 2\n    halt\n")
        vm = PinVM(load_program(assemble(source), Kernel(seed=1)),
                   jit_backend=self.backend)
        _never(vm, assemble(source).entry + 2)
        blocks = _watch_blocks(vm)
        vm.jit.compile(vm.cpu.pc)
        assert blocks == [[2, 2]]

    def test_pcs_anywhere_share_one_skeleton(self):
        """Runs whose signature pc falls at two places inside one trace,
        or nowhere, in turn: the trace is decoded once, and each run is
        handed the blocks a fresh engine hands it."""
        turns = [self.entry + 5, None, self.entry + 3]
        for turn, pc in enumerate(turns + turns):
            assert self.compile_at(pc) == self.fresh_shape(pc=pc), turn
            assert self.vm.jit_stats.skeleton_reuses == (turn > 0), turn
        skeleton = self.vm.jit.pool[self.entry]
        assert type(skeleton) is _Skeleton
        assert skeleton.trace_obj.bbls[0].num_ins == 3

    def test_rewritten_guest_word_is_decoded_again(self):
        self.vm.jit.compile(self.entry)
        donor = self.vm.mem.read(self.entry + 7)       # the syscall
        patch = (self.entry + 2, donor)
        self.vm.mem.write(*patch)
        self.vm.reset()
        changed = self.vm.jit.compile(self.entry)
        assert self.vm.jit_stats.rejects_words == 1
        assert changed.num_ins == 3
        assert _shape(changed) == self.fresh_shape(patch=patch)[0]

    def test_a_trace_that_stops_ahead_of_a_hole_is_reused_until_it_fills(
            self):
        """``build_trace`` ends a trace ahead of a word that does not
        decode: that end is reused for as long as the word is there, and
        a valid instruction written over it is a change of the words
        under the trace."""
        source = (".entry main\nmain:\n    li t0, 1\n    beq t0, t0, main\n"
                  "    .word 0xff\n    halt\n")
        program = assemble(source)

        def engine():
            process = load_program(program, Kernel(seed=1))
            return PinVM(process, jit_backend=self.backend)

        vm = engine()
        entry = vm.cpu.pc
        for turn in range(2):
            vm.reset()
            trace = vm.jit.compile(entry)
            assert (trace.num_ins, trace.fall_address) == (2, entry + 2)
        assert (vm.jit_stats.skeleton_reuses,
                vm.jit_stats.rejects_words) == (1, 0)
        nop = encode(Op.NOP)
        vm.mem.write(entry + 2, nop)
        vm.reset()
        longer = vm.jit.compile(entry)
        assert vm.jit_stats.rejects_words == 1
        fresh = engine()
        fresh.mem.write(entry + 2, nop)
        assert _shape(longer) == _shape(fresh.jit.compile(entry))
        assert longer.num_ins == 4

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


class TestSourcePool:
    def setup_method(self):
        self.program = assemble(STRAIGHT)
        self.entry = self.program.entry
        self.vm = PinVM(load_program(self.program, Kernel(seed=1)),
                        jit_backend="source")

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


def _engine(tool=None, check=False):
    """A new engine that generates every trace (with a signature check
    inside the first, if ``check``)."""
    process = load_program(assemble(STRAIGHT), Kernel(seed=1))
    vm = PinVM(process, jit_backend="source")
    if tool is not None:
        tool().activate(vm)
    if check:
        _never(vm, vm.cpu.pc + 2)
    return vm


def _nothing(value):
    pass


def _literal(vm, number):
    """Reset ``vm`` onto instrumentation that hands one call at each
    trace head the literal ``number``: one generated text a number."""
    vm.reset()
    vm.add_trace_callback(lambda trace, value: trace.instructions[0]
                          .insert_call(IPOINT_BEFORE, _nothing,
                                       IARG_UINT64, number, IARG_END))


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

    @pytest.mark.parametrize("other", [dict(tool=ICount1), dict(check=True)],
                             ids=["instrumentation", "signature-check"])
    def test_another_lowering_is_another_code_object(self, intern, other):
        plain = _engine()
        first = plain.jit.compile(plain.cpu.pc)
        vm = _engine(**other)
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

        def compile_with(number):
            _literal(vm, number)
            hits = vm.jit_stats.intern_hits
            sources[number] = vm.jit.compile(entry).source
            return vm.jit_stats.intern_hits - hits

        assert [compile_with(n) for n in (3, 5, 3, 6)] == [0, 0, 1, 0]
        # 5 was used least recently when 6 came in.
        assert list(intern) == [sources[3], sources[6]]
        assert [compile_with(n) for n in (3, 5)] == [1, 0]
        assert list(intern) == [sources[3], sources[5]]

    def test_two_threads_compiling_at_once_raise_nothing_and_agree(
            self, intern, monkeypatch):
        """The daemon's job threads compile at once.  Four texts over a
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
                _literal(vm, 3 + turn % 4)
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
