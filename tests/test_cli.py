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

    def test_serial_pin_instruments_what_superpin_does(self, capsys):
        """``-sp 0`` honours ``-spfilter`` and ``-spsuppress`` as
        ``-sp 1`` does: the same tool report."""
        reports = []
        for sp in ("0", "1"):
            assert main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                         "0.05", "--", "-sp", sp, "-spfilter", "opcode:mem",
                         "-spsuppress", "1"]) == 0
            reports.append(tool_report(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert main(["run", "-t", "icount2", "-w", "gzip", "--scale",
                     "0.05", "--", "-sp", "0"]) == 0
        assert tool_report(capsys.readouterr().out) != reports[0]

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


class TestDebug:
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
