"""Experiment runner: caching, config sensitivity, metric consistency."""

import dataclasses

import pytest

from repro.harness import clear_cache, run_benchmark
from repro.harness.runner import _config_key
from repro.sched import CostModel, MachineModel
from repro.superpin import SuperPinConfig
from repro.superpin.switches import RESULT_FIELDS
from tests.conftest import RESULT_FIELD_VALUES


class TestCaching:
    def test_different_config_different_entry(self):
        a = run_benchmark("eon", tool="icount2", scale=0.05,
                          config=SuperPinConfig(spmsec=1000))
        b = run_benchmark("eon", tool="icount2", scale=0.05,
                          config=SuperPinConfig(spmsec=500))
        assert a is not b
        assert a.superpin.num_slices < b.superpin.num_slices

    def test_cache_bypass(self):
        a = run_benchmark("eon", tool="icount2", scale=0.05)
        b = run_benchmark("eon", tool="icount2", scale=0.05,
                          use_cache=False)
        assert a is not b
        assert a.superpin_cycles == b.superpin_cycles  # deterministic

    def test_a_throttled_run_is_not_the_cached_default(self):
        """The memo keys on every field that changes what a run
        computes: ``-spexpected`` cuts more slices, so a throttled run
        is never the default run cached before it."""
        plain = run_benchmark("gzip", tool="icount2", scale=0.1,
                              config=SuperPinConfig(spmsec=1000))
        config = SuperPinConfig(spmsec=1000, expected_duration_msec=3000)
        throttled = run_benchmark("gzip", tool="icount2", scale=0.1,
                                  config=config)
        fresh = run_benchmark("gzip", tool="icount2", scale=0.1,
                              config=config, use_cache=False)
        assert throttled is not plain
        assert (throttled.superpin.num_slices == fresh.superpin.num_slices
                > plain.superpin.num_slices)

    def test_the_cases_below_are_every_result_field(self):
        assert [name for name, _ in RESULT_FIELD_VALUES] \
            == list(RESULT_FIELDS)

    @pytest.mark.parametrize("name,value", RESULT_FIELD_VALUES)
    def test_every_result_field_keys_the_memo(self, name, value):
        base = SuperPinConfig(spmsec=1000)
        other = dataclasses.replace(base, **{name: value})
        assert _config_key(other) != _config_key(base)
        # ... and what only changes how the run executes does not.
        assert _config_key(dataclasses.replace(base, spworkers=2,
                                               spmetrics=True)) \
            == _config_key(base)

    def test_clear_cache(self):
        a = run_benchmark("eon", tool="icount2", scale=0.05)
        clear_cache()
        b = run_benchmark("eon", tool="icount2", scale=0.05)
        assert a is not b


class TestModelSensitivity:
    def test_fewer_cpus_slower_superpin(self):
        fast = run_benchmark("gzip", tool="icount1", scale=0.1,
                             machine=MachineModel(physical_cpus=8))
        slow = run_benchmark("gzip", tool="icount1", scale=0.1,
                             machine=MachineModel(physical_cpus=2))
        assert slow.superpin_cycles > fast.superpin_cycles
        # The serial baselines are machine-independent.
        assert slow.pin_cycles == fast.pin_cycles
        assert slow.native_cycles == fast.native_cycles

    def test_cost_model_scales_pin(self):
        cheap = run_benchmark("gzip", tool="icount1", scale=0.1,
                              cost=CostModel(analysis_call=5.0))
        dear = run_benchmark("gzip", tool="icount1", scale=0.1,
                             cost=CostModel(analysis_call=20.0))
        assert dear.pin_cycles > cheap.pin_cycles

    def test_functional_results_model_independent(self):
        a = run_benchmark("gzip", tool="icount2", scale=0.1,
                          machine=MachineModel(physical_cpus=2))
        b = run_benchmark("gzip", tool="icount2", scale=0.1,
                          machine=MachineModel(physical_cpus=16))
        assert a.superpin.num_slices == b.superpin.num_slices
        assert a.superpin.total_slice_instructions \
            == b.superpin.total_slice_instructions
