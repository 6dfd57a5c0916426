"""Command-line interface."""

import re

from repro.cli import main


class TestList:
    def test_lists_workloads_and_tools(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "icount2" in out and "dcache" in out


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
