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

    @pytest.mark.parametrize("flag, value", [
        ("-sp", "7"), ("-spmetrics", "-1"), ("-spaudit", "5"),
        ("-spresume", "2")])
    def test_a_boolean_switch_takes_0_or_1(self, flag, value):
        with pytest.raises(ConfigError) as error:
            parse_switches(["-spjournal", "r.journal", flag, value])
        assert str(error.value) == f"bad value {value!r} for {flag!r}"
        assert parse_switches(["-spjournal", "r.journal", flag, "1"])


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

    @pytest.mark.parametrize("value", ["abc", "-3", "1.5", " "])
    def test_a_malformed_env_default_names_the_variable(self, value,
                                                        monkeypatch):
        monkeypatch.setenv("SUPERPIN_SPWORKERS", value)
        with pytest.raises(ConfigError) as error:
            SuperPinConfig()
        assert str(error.value) == (f"SUPERPIN_SPWORKERS must be an "
                                    f"integer >= 0, got {value!r}")
        # An explicit value needs no default.
        assert SuperPinConfig(spworkers=1).spworkers == 1


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
        assert config.spsample == 0

    def test_parse_filter_spec(self):
        config = parse_switches(["-spfilter", "routine:work,opcode:mem"])
        assert config.spfilter == "routine:work,opcode:mem"

    def test_parse_suppress(self):
        """Loop summaries are no switch: every loop form summarizes
        what it can (``repro.pin.pyjit``)."""
        for value in ("0", "1"):
            with pytest.raises(ConfigError,
                               match="unknown SuperPin switch '-spsuppress'"):
                parse_switches(["-spsuppress", value])
        with pytest.raises(TypeError):
            SuperPinConfig(spsuppress=True)

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


#: Every field but ``sp`` away from its default (a value its own
#: validation accepts).  A field missing here fails the table below.
AWAY_FROM_DEFAULT = {
    "spmsec": 5, "spmp": 2, "spsysrecs": 0, "spworkers": 2,
    "spfaults": "degrade", "fault_plan": FaultPlan.parse("crash@0"),
    "clock_hz": 20_000, "expected_duration_msec": 3000,
    "sptrace": "t.json", "spmetrics": True, "spaudit": True,
    "spfilter": "opcode:mem", "spsample": 2,
    "sprecord": "r.sprec", "spjournal": "r.journal", "spresume": True,
    "sptracestore": "store",
}


class TestSerialPin:
    """What serial Pin (``-sp 0``) honours is one rule, at construction:
    ``switches.SERIAL_FIELDS``; any other field away from its default
    is a :class:`ConfigError` naming its switch."""

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(SuperPinConfig)
        if f.name != "sp"])
    def test_every_field(self, name, monkeypatch):
        from repro.superpin.switches import _SWITCHES, SERIAL_FIELDS
        monkeypatch.delenv("SUPERPIN_SPWORKERS", raising=False)
        kwargs = {name: AWAY_FROM_DEFAULT[name]}
        if name == "spresume":
            kwargs["spjournal"] = "r.journal"
        SuperPinConfig(**kwargs)  # valid under SuperPin
        if name in SERIAL_FIELDS:
            assert getattr(SuperPinConfig(sp=False, **kwargs), name) \
                == AWAY_FROM_DEFAULT[name]
        else:
            with pytest.raises(ConfigError, match="serial Pin") as error:
                SuperPinConfig(sp=False, **kwargs)
            assert _SWITCHES.get(name, name) in str(error.value)

    def test_the_worker_default_is_no_error(self, monkeypatch):
        monkeypatch.setenv("SUPERPIN_SPWORKERS", "2")
        assert SuperPinConfig(sp=False).spworkers == 2
        assert parse_switches(["-sp", "0"]).spworkers == 2

    def test_the_message_names_each_switch(self):
        with pytest.raises(ConfigError) as error:
            parse_switches(["-sp", "0", "-spaudit", "1", "-spsample", "2"])
        assert str(error.value) \
            == "serial Pin (-sp 0) cannot honour -spaudit, -spsample"

    def test_the_table_says_what_it_honours(self):
        """The docstring table's ``-sp 0`` column is the rule."""
        import re

        from repro.superpin import switches
        rows = dict(re.findall(r"^``(-sp\w*)[^`]*``\s+(yes|no)?",
                               switches.__doc__, re.MULTILINE))
        honoured = {flag for flag, mark in rows.items() if mark == "yes"}
        assert honoured == {switches._SWITCHES[name]
                            for name in switches.SERIAL_FIELDS}
        assert {flag for flag, mark in rows.items() if not mark} == {"-sp"}


class TestTheDebugger:
    """What the time-travel debugger honours is the same rule over
    ``switches.DEBUG_FIELDS``, applied when its engine is built."""

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(SuperPinConfig)
        if f.name != "sp"])
    def test_every_field(self, name, monkeypatch):
        from repro.superpin.switches import (_SWITCHES, DEBUG_FIELDS,
                                             refuse_unhonoured)
        monkeypatch.delenv("SUPERPIN_SPWORKERS", raising=False)
        kwargs = {name: AWAY_FROM_DEFAULT[name]}
        if name == "spresume":
            kwargs["spjournal"] = "r.journal"
        config = SuperPinConfig(**kwargs)
        if name in DEBUG_FIELDS:
            refuse_unhonoured(config, DEBUG_FIELDS, "the debugger")
        else:
            with pytest.raises(ConfigError,
                               match="the debugger cannot honour") as error:
                refuse_unhonoured(config, DEBUG_FIELDS, "the debugger")
            assert _SWITCHES.get(name, name) in str(error.value)
