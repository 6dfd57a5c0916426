"""SuperPin reproduction: fork-parallelized dynamic binary instrumentation.

A from-scratch Python reproduction of *SuperPin: Parallelizing Dynamic
Instrumentation for Real-Time Performance* (Wallace & Hazelwood,
CGO 2007), including every substrate the paper depends on:

* :mod:`repro.isa` — a toy 64-bit RISC ISA with assembler/disassembler;
* :mod:`repro.machine` — COW memory, kernel emulator, native interpreter;
* :mod:`repro.pin` — a Pin-like JIT instrumentation engine;
* :mod:`repro.superpin` — the paper's contribution: slices, signatures,
  record/playback, merging, and the SP tool API;
* :mod:`repro.sched` — the multiprocessor timing model behind the figures;
* :mod:`repro.tools` — icount1/2, dcache, itrace and friends;
* :mod:`repro.workloads` — the synthetic SPEC2000-like suite;
* :mod:`repro.harness` — per-figure experiment regeneration.

Quickstart::

    from repro.isa import assemble
    from repro.superpin import run_superpin, SuperPinConfig
    from repro.tools import ICount2

    program = assemble(open("examples/hello.s").read())
    tool = ICount2()
    report = run_superpin(program, tool, SuperPinConfig())
    print(tool.total, report.timing.slowdown)
"""

from .errors import (ArithmeticFault, AssemblerError, ConfigError,
                     DivergenceError, EncodingError, GuestFault,
                     IllegalInstruction, InstrumentationError, LoaderError,
                     ReproError, RunawaySliceError, SyscallError)

__version__ = "1.0.0"

__all__ = [
    "ArithmeticFault", "AssemblerError", "ConfigError", "DivergenceError",
    "EncodingError", "GuestFault", "IllegalInstruction",
    "InstrumentationError", "LoaderError", "ReproError",
    "RunawaySliceError", "SyscallError", "__version__",
]
