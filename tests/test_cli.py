"""Command-line interface."""

import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import main
from tests.conftest import all_generated

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden"


def tool_report(out: str) -> str:
    return re.search(r"^tool report: .*$", out, re.MULTILINE).group(0)


class TestList:
    def test_lists_workloads_and_tools(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "icount2" in out and "dcache" in out


class TestBrokenPipe:
    """A reader that goes away (``superpin list | head -1``) ends the
    command with status 1 and no traceback."""

    def test_write_to_a_closed_pipe(self, monkeypatch, tmp_path):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return spare.fileno()

        with open(tmp_path / "spare", "w") as spare:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["list"]) == 1

    def test_python_m_repro_list_into_a_closed_pipe(self):
        read, write = os.pipe()
        os.close(read)
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        child = subprocess.run([sys.executable, "-m", "repro", "list"],
                               stdout=write, stderr=subprocess.PIPE,
                               env=env, timeout=120)
        os.close(write)
        assert child.returncode == 1
        assert child.stderr == b""


class TestRun:
    def test_superpin_run(self, capsys):
        code = main(["run", "-t", "icount2", "-w", "gzip",
                     "--scale", "0.05", "-sp", "1", "-spmsec", "1000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode: SuperPin" in out
        assert "slices:" in out
        assert "breakdown:" in out
        # The master's engine line: share in generated code and what it
        # cost.
        assert re.search(r"master: \d+% of [\d,]+ instructions in generated "
                         r"code; \d+ traces, [\d,]+ trace executions inside "
                         r"loop forms", out)

    def test_classic_pin_run(self, capsys):
        code = main(["run", "-t", "icount1", "-w", "eon",
                     "--scale", "0.05", "-sp", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "classic Pin" in out
        # The run report, less what only slices make.
        assert re.search(r"^master: \d+% of [\d,]+ instructions in "
                         r"generated code", out, re.MULTILINE)
        assert re.search(r"^virtual time: native [\d.]+s, classic Pin "
                         r"[\d.]+s \(slowdown [\d.]+x\)$", out, re.MULTILINE)
        for line in ("slices:", "detection:", "breakdown:", "measured:",
                     "pipeline:", "jit:"):
            assert f"\n{line}" not in out, line

    def test_serial_pin_instruments_what_superpin_does(self, capsys):
        """``-sp 0`` honours ``-spfilter`` as ``-sp 1`` does: the same
        tool report."""
        reports = []
        for sp in ("0", "1"):
            assert main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                         "0.05", "--", "-sp", sp, "-spfilter",
                         "opcode:mem"]) == 0
            reports.append(tool_report(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                     "0.05", "--", "-sp", "0"]) == 0
        assert tool_report(capsys.readouterr().out) != reports[0]

    @pytest.mark.parametrize("switch, value", [
        ("-sprecord", "run.sprec"), ("-spsample", "2"), ("-spaudit", "1"),
        ("-spjournal", "run.journal"), ("-spworkers", "2"),
        ("-spinject", "crash@0"), ("-spfaults", "degrade"),
        ("-spmsec", "5")])
    def test_serial_pin_refuses_what_it_cannot_honour(self, switch, value,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SUPERPIN_SPWORKERS", raising=False)
        code = main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                     "0.05", "--", "-sp", "0", switch, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert switch in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_serial_pin_names_every_switch_it_refuses(self, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                     "0.05", "--", "-sp", "0", "-spinject", "crash@0",
                     "-spfaults", "degrade", "-spmsec", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: serial Pin (-sp 0) cannot honour "
                                "-spmsec, -spfaults, -spinject\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sink", ["trace.json", "trace.jsonl"])
    def test_serial_pin_traces_and_counts(self, sink, tmp_path, capsys):
        """``-sptrace`` and ``-spmetrics`` observe a serial run: one
        ``pin_phase`` span and the engine's ``pin.*`` counters."""
        path = tmp_path / sink
        assert main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                     "0.05", "--", "-sp", "0", "-sptrace", str(path),
                     "-spmetrics", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace: wrote" in out and str(path) in out
        assert re.search(r"^  pin_phase +1 ", out, re.MULTILINE)
        for counter in ("pin.cache.compiles", "pin.jit.compiles",
                        "pin.jit.loop_trips", "pin.cache.lookups"):
            assert re.search(rf"^  {re.escape(counter)} +[1-9]", out,
                             re.MULTILINE), counter
        assert "pin_phase" in path.read_text()

    def test_serial_pin_ignores_the_worker_default(self, capsys,
                                                   monkeypatch):
        """``SUPERPIN_SPWORKERS`` moves a default; it names no switch."""
        monkeypatch.setenv("SUPERPIN_SPWORKERS", "2")
        assert main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                     "0.05", "--", "-sp", "0"]) == 0
        assert "classic Pin" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["run", "-w", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_switch_parsing_reaches_config(self, capsys):
        main(["run", "-t", "icount2", "-w", "eon", "--scale", "0.05",
              "-spmp", "2", "-spmsec", "500"])
        out = capsys.readouterr().out
        assert "(2 max slices, 500 ms timeslice, sequential slice phase)" \
            in out
        assert "measured:" in out

    def test_spworkers_switch_reaches_config(self, capsys):
        code = main(["run", "-t", "icount2", "-w", "eon", "--scale", "0.05",
                     "-spworkers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 worker processes" in out

    def test_no_switch_reaches_the_trace_store(self, tmp_path, capsys):
        code = main(["run", "-t", "icount2", "-w", "eon", "--scale", "0.05",
                     "--", "-sptracestore", str(tmp_path / "store")])
        assert code == 2
        assert "error: unknown SuperPin switch '-sptracestore'" \
            in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_bad_switch_values_and_env_default_are_errors(self, capsys,
                                                          monkeypatch):
        run = ["run", "-t", "icount2", "-w", "gzip", "--scale", "0.01"]
        assert main(run + ["--", "-sp", "7"]) == 2
        assert capsys.readouterr().err \
            == "error: bad value '7' for '-sp'\n"
        monkeypatch.setenv("SUPERPIN_SPWORKERS", "abc")
        assert main(run) == 2
        assert capsys.readouterr().err == ("error: SUPERPIN_SPWORKERS must "
                                           "be an integer >= 0, got 'abc'\n")

    @pytest.mark.parametrize("command", [
        ["run", "-w", "gzip", "-t", "icount2"], ["figure", "3"],
        ["submit", "--socket", "unused.sock", "-w", "gzip"]],
        ids=["run", "figure", "submit"])
    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    def test_a_scale_that_cannot_run_is_an_error(self, command, scale,
                                                 capsys):
        """``--scale`` is checked where it is parsed: ``error: …``,
        exit 2, nothing built or run."""
        with pytest.raises(SystemExit) as exited:
            main(command + [f"--scale={scale}"])
        assert exited.value.code == 2
        assert ("error: argument --scale: scale must be a positive "
                "finite number") in capsys.readouterr().err

    def test_loop_summaries_are_counted_not_switched(self, capsys):
        """The ``instrumentation:`` line prints the summarized loops
        under ``-spmetrics``; ``-spsuppress`` is no switch."""
        run = ["run", "-t", "icount1", "-w", "gzip", "--scale", "0.25",
               "--", "-spmetrics", "1"]
        assert main(run) == 0
        line = re.search(r"^instrumentation: (\d+) analysis calls, (\d+) "
                         r"summarized loops saved (\d+) calls$",
                         capsys.readouterr().out, re.MULTILINE)
        assert line and int(line[2]) > 0 and int(line[3]) > 0
        assert main(run + ["-spsuppress", "1"]) == 2
        assert "error: unknown SuperPin switch '-spsuppress'" \
            in capsys.readouterr().err


class TestReplay:
    def test_replay_prints_the_run_report_per_tool(self, tmp_path, capsys):
        """``superpin replay`` is the one way to replay: it prints each
        tool the report ``superpin run`` prints, and ``-spreplay`` is an
        unknown switch."""
        path = str(tmp_path / "run.sprec")
        run = ["run", "-t", "icount2", "-w", "gzip", "--scale", "0.05", "--"]
        assert main(run + ["-sprecord", path]) == 0
        assert f"recording: wrote {path}" in capsys.readouterr().out
        code = main(["replay", "-r", path, "-t", "icount2,memtrace",
                     "--", "-spaudit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        for line in ("detection:", "virtual time:",
                     f"recording: replayed {path} (id ", "audit: OK"):
            assert len(re.findall("^" + re.escape(line), out,
                                  re.MULTILINE)) == 2, line
        assert main(run + ["-spreplay", path]) == 2
        assert "error: unknown SuperPin switch '-spreplay'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "debug"])
    def test_an_unreadable_recording_is_an_error(self, command, tmp_path,
                                                 capsys):
        garbage = tmp_path / "garbage.sprec"
        garbage.write_bytes(b"not a recording")
        for path in (garbage, tmp_path / "missing.sprec"):
            argv = (["replay", "-r", str(path)] if command == "replay"
                    else ["debug", str(path)])
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["replay", "debug"])
    def test_a_replay_has_no_serial_form(self, command, tmp_path, capsys,
                                         monkeypatch):
        """``-sp 0`` on a recording is an error, not a SuperPin replay
        that ignores it."""
        path = str(tmp_path / "run.sprec")
        assert main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                     "0.05", "--", "-sprecord", path]) == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        argv = (["replay", "-r", path, "-t", "icount2"]
                if command == "replay" else ["debug", path])
        assert main(argv + ["--", "-sp", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "no serial form (-sp 0)" in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["run.sprec"]


@pytest.fixture(scope="module")
def small_recording(tmp_path_factory):
    """A gzip recording at smoke scale, shared by the debugger's tests."""
    path = str(tmp_path_factory.mktemp("debug") / "small.sprec")
    assert main(["run", "-t", "icount2", "-w", "gzip", "--scale", "0.05",
                 "--", "-sprecord", path]) == 0
    return path


class TestDebug:
    SCRIPT = "goto 1000\nregs\nstep-back 3\nquit\n"

    def debug(self, recording, tmp_path, *switches) -> int:
        script = tmp_path / "session.ttd"
        script.write_text(self.SCRIPT)
        argv = ["debug", recording, "--script", str(script)]
        return main(argv + ["--", *switches] if switches else argv)

    @pytest.mark.parametrize("switch, value", [
        ("-spfilter", "opcode:mem"), ("-sprecord", "x.sprec"),
        ("-sptrace", "t.json"), ("-spaudit", "1"), ("-spworkers", "2"),
        ("-spmsec", "5"), ("-spinject", "crash@0"),
        ("-spjournal", "run.journal")])
    def test_refuses_what_it_cannot_honour(self, switch, value,
                                           small_recording, tmp_path,
                                           capsys, monkeypatch):
        """A switch the debugger does not read is ``error:`` and exit 2,
        as on ``replay`` — not a session that silently ignores it."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SUPERPIN_SPWORKERS", raising=False)
        capsys.readouterr()
        assert self.debug(small_recording, tmp_path, switch, value) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert switch in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["session.ttd"]

    def test_names_every_switch_it_refuses(self, small_recording, tmp_path,
                                           capsys):
        capsys.readouterr()
        assert self.debug(small_recording, tmp_path, "-spfilter",
                          "opcode:mem", "-sprecord", "x.sprec", "-sptrace",
                          "t.json", "-spaudit", "1") == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: the time-travel debugger cannot "
                                "honour -sptrace, -spaudit, -spfilter, "
                                "-sprecord\n")
        assert captured.out == ""

    def test_honours_its_own_switches(self, small_recording, tmp_path,
                                      capsys, monkeypatch):
        """``-spfaults`` and ``-spmetrics`` are read, and a
        ``SUPERPIN_SPWORKERS`` default is no switch at all."""
        capsys.readouterr()
        assert self.debug(small_recording, tmp_path) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("SUPERPIN_SPWORKERS", "2")
        assert self.debug(small_recording, tmp_path, "-spfaults", "degrade",
                          "-spmetrics", "1") == 0
        assert capsys.readouterr().out == plain
        assert "stopped at icount=997" in plain

    @pytest.mark.parametrize("lowering", ["chosen", "generated"])
    def test_scripted_session_matches_the_golden(self, lowering, tmp_path,
                                                 capsys, monkeypatch):
        """``superpin debug --script`` over the gzip recording prints
        the golden transcript byte for byte, whichever lowering its
        landings run."""
        path = str(tmp_path / "smoke.sprec")
        assert main(["run", "-w", "gzip", "-t", "icount2", "--scale",
                     "0.25", "--", "-sprecord", path]) == 0
        capsys.readouterr()
        if lowering == "generated":
            all_generated(monkeypatch)
        assert main(["debug", path, "--script",
                     str(GOLDEN / "debug_smoke.ttd")]) == 0
        assert capsys.readouterr().out \
            == (GOLDEN / "debug_smoke.txt").read_text()

    def test_the_golden_again_on_warm_landings(self, tmp_path, capsys):
        """The script twice in one session (CI ``debug-smoke``'s second
        pass): the second half lands on the code the first left in the
        session cache, and prints the golden all the same."""
        path = str(tmp_path / "smoke.sprec")
        assert main(["run", "-w", "gzip", "-t", "icount2", "--scale",
                     "0.25", "--", "-sprecord", path]) == 0
        capsys.readouterr()
        script = (GOLDEN / "debug_smoke.ttd").read_text().splitlines()
        twice = tmp_path / "twice.ttd"
        twice.write_text("\n".join(
            [line for line in script if line != "quit"]
            + ["unwatch 0x1400"] + script) + "\n")
        assert main(["debug", path, "--script", str(twice)]) == 0
        golden = (GOLDEN / "debug_smoke.txt").read_text().splitlines()
        assert capsys.readouterr().out.splitlines()[-len(golden):] \
            == golden


class TestFigure:
    def test_figure_subset(self, capsys):
        code = main(["figure", "4", "--scale", "0.05",
                     "--benchmarks", "eon"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 4" in out
        assert "speedup" in out


class TestAsm:
    def test_assemble_and_run_file(self, tmp_path, capsys):
        source = (".entry main\nmain:\n    li a0, SYS_EXIT\n"
                  "    li a1, 7\n    syscall\n")
        path = tmp_path / "prog.s"
        path.write_text(source)
        assert main(["asm", str(path)]) == 0
        out = capsys.readouterr().out
        assert "exit code: 7" in out

    def test_assemble_with_tool(self, tmp_path, capsys):
        source = (".entry main\nmain:\n    li a0, SYS_EXIT\n"
                  "    li a1, 0\n    syscall\n")
        path = tmp_path / "prog.s"
        path.write_text(source)
        assert main(["asm", str(path), "-t", "icount2"]) == 0
        out = capsys.readouterr().out
        assert "'icount': 3" in out


class TestObjfile:
    def test_asm_output_and_reload(self, tmp_path, capsys):
        source = (".entry main\nmain:\n    li a0, SYS_EXIT\n"
                  "    li a1, 9\n    syscall\n")
        src_path = tmp_path / "p.s"
        src_path.write_text(source)
        bin_path = tmp_path / "p.bin"
        assert main(["asm", str(src_path), "-o", str(bin_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["asm", str(bin_path)]) == 0
        assert "exit code: 9" in capsys.readouterr().out

    def test_objdump(self, tmp_path, capsys):
        source = (".entry main\nmain:\n    li a0, SYS_EXIT\n"
                  "    li a1, 0\n    syscall\n.data\nv: .word 5\n")
        path = tmp_path / "p.s"
        path.write_text(source)
        assert main(["objdump", str(path)]) == 0
        out = capsys.readouterr().out
        assert "segment .text" in out
        assert "main:" in out
        assert "syscall" in out
