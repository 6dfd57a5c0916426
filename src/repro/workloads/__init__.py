"""Synthetic workloads: generator combinators and the SPEC2000-like suite."""

from .generators import (build_workload, BuiltWorkload, KERNEL_KINDS,
                         WorkloadSpec)
from .spec import (BENCHMARK_NAMES, build, FLOATING_POINT, INTEGER,
                   positive_scale, SPEC2000)

__all__ = [
    "build_workload", "BuiltWorkload", "KERNEL_KINDS", "WorkloadSpec",
    "BENCHMARK_NAMES", "build", "FLOATING_POINT", "INTEGER",
    "positive_scale", "SPEC2000",
]
