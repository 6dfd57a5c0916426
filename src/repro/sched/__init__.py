"""Multiprocessor timing: event simulation, machine model, cost model."""

from .events import simulate
from .machine_model import MachineModel, PAPER_MACHINE
from .stats import SliceSpan, TimingReport
from .timing import CostModel, DEFAULT_COST_MODEL, shared_cache_charges

__all__ = [
    "simulate", "MachineModel", "PAPER_MACHINE", "SliceSpan",
    "TimingReport", "CostModel", "DEFAULT_COST_MODEL",
    "shared_cache_charges",
]
