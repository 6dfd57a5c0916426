"""§8 future-work extensions: adaptive timeslices (``-spexpected``) and
the shared code cache (a view of the timing model, not a run mode)."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.machine import Kernel
from repro.sched import shared_cache_charges
from repro.superpin import parse_switches, run_superpin, SuperPinConfig
from repro.tools import ICount2
from repro.workloads import build


@pytest.fixture(scope="module")
def gcc_program():
    return build("gcc", scale=0.15).program


def _run(program, **config_kwargs):
    tool = ICount2()
    config = SuperPinConfig(**config_kwargs)
    report = run_superpin(program, tool, config, kernel=Kernel(seed=42))
    return tool, report


class TestAdaptiveTimeslice:
    def test_shrinks_pipeline_delay(self, gcc_program):
        t_fixed, fixed = _run(gcc_program, spmsec=2000)
        t_adapt, adaptive = _run(gcc_program, spmsec=2000,
                                 expected_duration_msec=15_000)
        # Same answer...
        assert t_fixed.total == t_adapt.total
        assert adaptive.all_exact
        # ...with a much shorter drain after master exit.
        assert adaptive.timing.pipeline_cycles \
            < 0.5 * fixed.timing.pipeline_cycles

    def test_final_slices_get_smaller(self):
        # swim has no syscall-forced boundaries, so slice sizes are set
        # purely by the (throttled) timer.
        program = build("swim", scale=0.15).program
        _, report = _run(program, spmsec=2000,
                         expected_duration_msec=int(140 * 0.15 * 1000))
        sizes = [s.expected_instructions for s in report.slices]
        # The last slices are much smaller than the first full ones.
        assert min(sizes[-3:]) < max(sizes[:2]) / 3

    def test_wrong_estimate_degrades_gracefully(self, gcc_program):
        # Expected duration far too small: after it elapses the control
        # process falls back to the standard interval; results exact.
        tool, report = _run(gcc_program, spmsec=2000,
                            expected_duration_msec=500)
        assert report.all_exact
        t_ref, _ = _run(gcc_program, spmsec=2000)
        assert tool.total == t_ref.total

    def test_disabled_without_expectation(self, gcc_program):
        _, a = _run(gcc_program, spmsec=2000, expected_duration_msec=0)
        _, b = _run(gcc_program, spmsec=2000)
        assert ([s.expected_instructions for s in a.slices]
                == [s.expected_instructions for s in b.slices])
        assert a.timing.total_cycles == b.timing.total_cycles

    def test_throttling_never_lengthens_a_timeslice(self):
        """A standard timeslice shorter than the throttling floor
        (``MIN_TIMESLICE_MSEC``) is not stretched to the floor: throttled
        far from the expected end, gzip's 10 ms timeslices stay the
        timeslices the run cuts without ``-spexpected``."""
        program = build("gzip", scale=0.05).program
        _, plain = _run(program, spmsec=10, spworkers=0)
        _, throttled = _run(program, spmsec=10, spworkers=0,
                            expected_duration_msec=100_000)
        standard = SuperPinConfig(spmsec=10).timeslice_cycles
        sizes = [s.expected_instructions for s in throttled.slices]
        assert max(sizes) <= standard
        assert sizes == [s.expected_instructions for s in plain.slices]

    def test_switch_parsing(self):
        """``-spexpected N`` alone turns throttling on; the old on/off
        switch is gone, and a negative duration is refused."""
        config = parse_switches(["-spexpected", "30000"])
        assert config.expected_duration_msec == 30000
        with pytest.raises(ConfigError, match="unknown"):
            parse_switches(["-spadaptive", "1"])
        with pytest.raises(ConfigError, match="-spexpected"):
            parse_switches(["-spexpected", "-1"])


class TestSharedCodeCache:
    """The §8 account is a view over one run's compile logs."""

    def test_compile_charges_drop(self, gcc_program):
        _, base = _run(gcc_program, spmsec=1000)
        charges = shared_cache_charges(base.slices).values()
        base_ins = sum(s.compiled_ins for s in base.slices)
        shared_ins = sum(compiled_ins for _, compiled_ins, _ in charges)
        # gcc recompiles its footprint per slice; sharing collapses that.
        assert shared_ins < base_ins / 3
        assert sum(reuses for _, _, reuses in charges) > 0

    def test_results_unchanged(self, gcc_program):
        """Asking for the view changes nothing the run reported: a
        slice's ``compiles`` keep meaning what that slice compiled."""
        _, report = _run(gcc_program, spmsec=1000)

        def figures():
            return ([(s.compiles, s.compiled_ins, s.compile_log)
                     for s in report.slices], report.timing.total_cycles)
        before = figures()
        assert (report.shared_cache_timing().total_cycles
                == report.shared_cache_timing().total_cycles)
        assert figures() == before
        assert all(s.compiles == len(s.compile_log) for s in report.slices)

    def test_runtime_improves(self, gcc_program):
        _, base = _run(gcc_program, spmsec=1000)
        shared = base.shared_cache_timing()
        assert shared.total_cycles < base.timing.total_cycles
        assert shared.native_cycles == base.timing.native_cycles

    def test_first_slice_pays(self, gcc_program):
        _, base = _run(gcc_program, spmsec=1000)
        charges = shared_cache_charges(base.slices)
        first = base.slices[0]
        assert charges[0] == (first.compiles, first.compiled_ins, 0)
        assert first.compiled_ins > 0
        assert any(charges[s.index][2] > 0 for s in base.slices[1:])

    def test_switch_parsing(self):
        """Every run reports both accounts, so there is no switch."""
        with pytest.raises(ConfigError, match="unknown"):
            parse_switches(["-spsharedcache", "1"])


def _charged(*compile_logs):
    """The §8 charges of stub slice results handed over in reverse
    index order, listed by index."""
    results = [SimpleNamespace(index=k, compile_log=tuple(log))
               for k, log in enumerate(compile_logs)]
    charges = shared_cache_charges(reversed(results))
    return [charges[k] for k in range(len(results))]


class TestDirectory:
    """§8 attribution as a view over the slices' compile logs."""

    def test_charge_first_then_reuse(self):
        first, second = _charged([(0x1000, 10)],
                                 [(0x1000, 10), (0x2000, 3)])
        # The lowest-indexed slice to compile a trace pays for it, in
        # whatever order the results arrive ...
        assert first == (1, 10, 0)
        # ... and every later compilation is a reuse.
        assert second == (1, 3, 1)

    def test_keyed_by_address_and_length(self):
        """Traces of the same start and a different length (the guest's
        words changed) do not alias."""
        first, second = _charged([(0x1000, 10)], [(0x1000, 4)])
        assert first == (1, 10, 0)
        assert second == (1, 4, 0)
