"""Experiment runner: one benchmark under native / Pin / SuperPin timing.

All timing comes from the shared cost model, so the three modes are
directly comparable; results are memoized per-process because several
figures share the same underlying runs (Figures 3 and 4 are the same
experiment, plotted differently).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import Kernel, load_program
from ..machine.interpreter import Interpreter
from ..sched.machine_model import MachineModel, PAPER_MACHINE
from ..sched.stats import TimingReport
from ..sched.timing import CostModel, DEFAULT_COST_MODEL
from ..superpin.runtime import run_superpin, SuperPinReport
from ..superpin.switches import RESULT_FIELDS, SuperPinConfig
from ..tools import TOOLS
from ..workloads import build

#: Kernel seed used by every experiment (determinism).
EXPERIMENT_SEED = 42


@dataclass
class BenchmarkRun:
    """Timing of one benchmark under all three modes."""

    benchmark: str
    tool: str
    scale: float
    native_cycles: float
    pin_cycles: float
    superpin: SuperPinReport
    instructions: int
    syscalls: int

    @property
    def superpin_cycles(self) -> float:
        assert self.superpin.timing is not None
        return self.superpin.timing.total_cycles

    @property
    def pin_relative(self) -> float:
        """Pin runtime relative to native (1.0 = native speed)."""
        return self.pin_cycles / self.native_cycles

    @property
    def superpin_relative(self) -> float:
        return self.superpin_cycles / self.native_cycles

    @property
    def speedup(self) -> float:
        """SuperPin speedup over classic Pin (Figure 4's metric)."""
        return self.pin_cycles / self.superpin_cycles

    @property
    def timing(self) -> TimingReport:
        assert self.superpin.timing is not None
        return self.superpin.timing


_CACHE: dict[tuple, BenchmarkRun] = {}


def run_benchmark(benchmark: str, tool: str = "icount1",
                  scale: float = 1.0,
                  config: SuperPinConfig | None = None,
                  machine: MachineModel = PAPER_MACHINE,
                  cost: CostModel = DEFAULT_COST_MODEL,
                  use_cache: bool = True) -> BenchmarkRun:
    """Run ``benchmark`` with ``tool`` natively, under Pin and SuperPin."""
    config = config or SuperPinConfig(spmsec=2000)
    key = (benchmark, tool, scale, _config_key(config), machine, cost)
    if use_cache and key in _CACHE:
        return _CACHE[key]

    built = build(benchmark, clock_hz=config.clock_hz, scale=scale)
    tool_factory = TOOLS[tool]

    # Native reference.
    kernel = Kernel(seed=EXPERIMENT_SEED)
    process = load_program(built.program, kernel)
    interp = Interpreter(process)
    interp.run(max_instructions=500_000_000)
    native_cycles = cost.native_cycles(interp.total_instructions,
                                       interp.total_syscalls)

    # Classic Pin: the same front door at -sp 0.
    pin = run_superpin(built.program, tool_factory(),
                       SuperPinConfig(sp=False, clock_hz=config.clock_hz),
                       kernel=Kernel(seed=EXPERIMENT_SEED), cost=cost)

    # SuperPin.
    sp_tool = tool_factory()
    report = run_superpin(built.program, sp_tool, config,
                          kernel=Kernel(seed=EXPERIMENT_SEED),
                          machine=machine, cost=cost)

    run = BenchmarkRun(
        benchmark=benchmark, tool=tool, scale=scale,
        native_cycles=native_cycles, pin_cycles=pin.timing.total_cycles,
        superpin=report, instructions=interp.total_instructions,
        syscalls=interp.total_syscalls)
    if use_cache:
        _CACHE[key] = run
    return run


def clear_cache() -> None:
    _CACHE.clear()


def _config_key(config: SuperPinConfig) -> tuple:
    """The memo's view of ``config``: exactly the fields that change what
    a run computes, so a differing config never returns another's run."""
    return tuple(getattr(config, name) for name in RESULT_FIELDS)
