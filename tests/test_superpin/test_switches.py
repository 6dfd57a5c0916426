"""SuperPin switch parsing and config validation."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.isa import assemble
from repro.machine import Kernel, load_program
from repro.pin import PinVM
from repro.superpin import (FaultKind, FaultPlan, parse_switches,
                            run_superpin, SuperPinConfig, supervisor)
from repro.tools import ICount2
from tests.conftest import MULTISLICE


class TestParsing:
    def test_paper_style_invocation(self):
        config = parse_switches(
            ["-sp", "1", "-spmsec", "500", "-spmp", "4",
             "-spsysrecs", "100"])
        assert config.sp is True
        assert config.spmsec == 500
        assert config.spmp == 4
        assert config.spsysrecs == 100

    def test_defaults_match_paper(self):
        config = SuperPinConfig()
        assert config.spmsec == 1000   # paper: default 1000 ms
        assert config.spmp == 8        # paper: default 8
        assert config.spsysrecs == 1000  # paper: default 1000

    def test_sp_zero_disables(self):
        assert parse_switches(["-sp", "0"]).sp is False

    def test_unknown_switch(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_switches(["-bogus", "1"])

    def test_the_lowering_is_not_a_switch(self):
        """Which lowering a trace gets is the JIT's decision: there is
        no ``-spjit`` and no field, only the constant the frozen
        benchmark reads."""
        with pytest.raises(ConfigError, match="unknown SuperPin switch"):
            parse_switches(["-spjit", "source"])
        with pytest.raises(TypeError):
            SuperPinConfig(jit_backend="source")
        assert SuperPinConfig().jit_backend == "closure"
        assert "jit_backend" not in {
            field.name for field in dataclasses.fields(SuperPinConfig)}

    def test_missing_value(self):
        with pytest.raises(ConfigError, match="requires a value"):
            parse_switches(["-spmsec"])

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_switches(["-spmp", "many"])

    def test_overrides_win(self):
        config = parse_switches(["-spmp", "4"], spmp=2)
        assert config.spmp == 2


class TestSupervisionSwitches:
    def test_parse_faults_policy(self):
        assert parse_switches(["-spfaults", "retry"]).spfaults == "retry"
        assert parse_switches(["-spfaults", "degrade"]).spfaults \
            == "degrade"

    def test_parse_retries_and_deadline(self):
        """The retry count and the deadline floor are constants
        (``supervisor.RETRIES`` / ``DEADLINE_FLOOR``), not switches or
        fields."""
        for flag, value in (("-spretries", "5"), ("-spdeadline", "2.5")):
            with pytest.raises(ConfigError,
                               match="unknown SuperPin switch"):
                parse_switches([flag, value])
        with pytest.raises(TypeError):
            SuperPinConfig(slice_deadline_floor=2.5)
        assert supervisor.DEADLINE_FLOOR > 0

    def test_parse_inject(self):
        config = parse_switches(["-spinject", "crash@0,hang@2:*"])
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan.specs[0].kind is FaultKind.CRASH
        assert config.fault_plan.specs[1].attempts is None

    def test_parse_tamper_inject(self):
        config = parse_switches(["-spinject", "tamper@1"])
        assert config.fault_plan.specs[0].kind is FaultKind.TAMPER
        assert config.fault_plan.specs[0].slice_index == 1

    def test_parse_audit(self):
        assert SuperPinConfig().spaudit is False
        assert parse_switches(["-spaudit", "1"]).spaudit is True
        assert parse_switches(["-spaudit", "0"]).spaudit is False

    def test_bad_inject_spec_rejected(self):
        with pytest.raises(ConfigError, match="fault spec"):
            parse_switches(["-spinject", "explode@0"])

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError, match="-spfaults"):
            parse_switches(["-spfaults", "maybe"])

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("SUPERPIN_SPWORKERS", raising=False)
        config = SuperPinConfig()
        assert config.spfaults == "failfast"
        assert config.fault_plan is None

    def test_env_overrides_defaults_only(self, monkeypatch):
        """The CI hook: the env var moves the default, explicit values
        and parsed switches still win."""
        monkeypatch.setenv("SUPERPIN_SPWORKERS", "3")
        assert SuperPinConfig().spworkers == 3
        assert SuperPinConfig(spworkers=0, spfaults="degrade").spworkers \
            == 0
        config = parse_switches(["-spworkers", "1", "-spfaults",
                                 "failfast"])
        assert config.spworkers == 1
        assert config.spfaults == "failfast"


class TestNoSecondTranslationCache:
    """The three names the frozen benchmark still reads hold or accept
    only 0."""

    def test_config_field_accepts_only_zero(self):
        """``sptc2`` is a constant of the config, not a field."""
        assert SuperPinConfig().sptc2 == 0
        with pytest.raises(TypeError):
            SuperPinConfig(sptc2=4)

    def test_switch_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown SuperPin switch"):
            parse_switches(["-sptc2", "4"])

    def test_engine_keyword_accepts_only_zero(self):
        process = load_program(assemble(MULTISLICE), Kernel(seed=42))
        assert PinVM(process, tc2_threshold=0).run().instructions > 0
        with pytest.raises(ConfigError, match="tc2_threshold must be 0"):
            PinVM(process, tc2_threshold=4)

    def test_slices_report_zero(self):
        report = run_superpin(assemble(MULTISLICE), ICount2(),
                              SuperPinConfig(spmsec=500, clock_hz=10_000),
                              kernel=Kernel(seed=42))
        assert len(report.slices) > 1
        assert {(s.tc2_dispatches, s.tc2_mispredicts)
                for s in report.slices} == {(0, 0)}


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"spmsec": 0}, {"spmsec": -5}, {"spmp": 0},
        {"spsysrecs": -1}, {"clock_hz": 0},
        {"expected_duration_msec": -1},
        {"spworkers": -1}, {"spfaults": "bogus"}, {"sprecord": "  "},
        {"spsample": -1}, {"spfilter": " "}, {"sptracestore": " "},
        {"clock_hz": -1},
        {"spjournal": ""}, {"spresume": True},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SuperPinConfig(**kwargs)

    def test_validation_happens_at_construction(self):
        """Bad values raise here, naming the switch, not deep inside
        the slice phase."""
        with pytest.raises(ConfigError, match="-spmp"):
            SuperPinConfig(spmp=0)
        with pytest.raises(ConfigError, match="-spexpected"):
            SuperPinConfig(expected_duration_msec=-5)

    def test_timeslice_conversion(self):
        config = SuperPinConfig(spmsec=2000, clock_hz=10_000)
        assert config.timeslice_cycles == 20_000
        assert config.seconds(20_000) == 2.0


class TestSelectiveSwitches:
    def test_defaults_off(self):
        config = SuperPinConfig()
        assert config.spfilter is None
        assert config.spsuppress is False
        assert config.spsample == 0

    def test_parse_filter_spec(self):
        config = parse_switches(["-spfilter", "routine:work,opcode:mem"])
        assert config.spfilter == "routine:work,opcode:mem"

    def test_parse_suppress(self):
        assert parse_switches(["-spsuppress", "1"]).spsuppress is True
        assert parse_switches(["-spsuppress", "0"]).spsuppress is False

    def test_parse_sample(self):
        assert parse_switches(["-spsample", "4"]).spsample == 4

    def test_negative_sample_rejected(self):
        with pytest.raises(ConfigError):
            parse_switches(["-spsample", "-1"])

    def test_empty_filter_rejected(self):
        with pytest.raises(ConfigError):
            SuperPinConfig(spfilter="   ")


class TestSwitchTables:
    """Every switch the parser accepts is documented where users look,
    and no table there documents a switch the parser refuses."""

    @pytest.mark.parametrize("where", ["switches.py docstring", "README.md"])
    def test_every_switch_is_listed(self, where):
        import os
        import re

        from repro.superpin import switches
        if where == "README.md":
            path = os.path.join(os.path.dirname(__file__), "..", "..",
                                "README.md")
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = switches.__doc__
        missing = [flag for flag in switches._FLAG_PARSERS
                   if not re.search("`" + re.escape(flag) + "[ `]", text)]
        assert missing == []
        # ... and every row names a switch the parser accepts.
        row = r"^\| `(-sp\w*)" if where == "README.md" else r"^``(-sp\w*)"
        rows = re.findall(row, text, re.MULTILINE)
        assert sorted(rows) == sorted(switches._FLAG_PARSERS)
