"""Pin-like dynamic binary instrumentation engine.

The substrate the paper builds on (§2.2): a VM with a JIT trace compiler,
a code cache, a dispatcher and an instrumentation API.  SuperPin
(:mod:`repro.superpin`) layers fork-parallelized slicing on top.
"""

from .api import (BBL_Address, BBL_InsHead, BBL_InsTail, BBL_Next,
                  BBL_NumIns, BBL_NumMatchingIns,
                  BBL_Valid, INS_Address, INS_Disassemble,
                  INS_InsertCall, INS_InsertIfCall, INS_InsertSummarizedCall,
                  INS_InsertThenCall, INS_IsBranch, INS_IsCall,
                  INS_IsMemoryRead, INS_IsMemoryWrite, INS_IsRet,
                  INS_IsSyscall, INS_MatchesFilter, INS_Next,
                  INS_OpcodeClass, INS_Valid, TRACE_Address, TRACE_BblHead,
                  TRACE_MatchesFilter, TRACE_NumBbl, TRACE_NumIns)
from .args import (IARG_ADDRINT, IARG_BRANCH_TAKEN, IARG_BRANCH_TARGET,
                   IARG_CONTEXT, IARG_END, IARG_INST_PTR,
                   IARG_MEMORYREAD_EA, IARG_MEMORYWRITE_EA, IARG_PTR,
                   IARG_REG_VALUE, IARG_SYSCALL_NUMBER, IARG_UINT64, IArg,
                   IPOINT_AFTER, IPOINT_BEFORE, IPOINT_TAKEN_BRANCH, IPoint)
from .codecache import CacheStats, CodeCache, TRACE_HEADER_WORDS, \
    WORDS_PER_COMPILED_INS
from .engine import PinRunResult, PinVM, RunState
from .filter import (InstrumentationStats, InstrumentFilter, OPCODE_CLASSES,
                     parse_filter)
from .jit import CompiledTrace, EXIT_GUEST, Jit, StopRun
from .pintool import NullSuperPin, Pintool, run_with_pin
from .pyjit import SourceCompiledTrace, SourceJit
from .trace import Bbl, build_trace, Ins, MAX_TRACE_INS, TraceObj

__all__ = [
    "BBL_Address", "BBL_InsHead", "BBL_InsTail", "BBL_Next", "BBL_NumIns",
    "BBL_NumMatchingIns", "BBL_Valid", "INS_Address", "INS_Disassemble", "INS_InsertCall",
    "INS_InsertIfCall", "INS_InsertSummarizedCall", "INS_InsertThenCall",
    "INS_IsBranch", "INS_IsCall",
    "INS_IsMemoryRead", "INS_IsMemoryWrite", "INS_IsRet", "INS_IsSyscall",
    "INS_MatchesFilter", "INS_Next", "INS_OpcodeClass", "INS_Valid",
    "TRACE_Address", "TRACE_BblHead", "TRACE_MatchesFilter",
    "TRACE_NumBbl", "TRACE_NumIns", "IARG_ADDRINT", "IARG_BRANCH_TAKEN",
    "IARG_BRANCH_TARGET", "IARG_CONTEXT", "IARG_END", "IARG_INST_PTR",
    "IARG_MEMORYREAD_EA", "IARG_MEMORYWRITE_EA", "IARG_PTR",
    "IARG_REG_VALUE", "IARG_SYSCALL_NUMBER", "IARG_UINT64", "IArg",
    "IPOINT_AFTER", "IPOINT_BEFORE", "IPOINT_TAKEN_BRANCH", "IPoint",
    "CacheStats", "CodeCache", "TRACE_HEADER_WORDS",
    "WORDS_PER_COMPILED_INS", "PinRunResult", "PinVM", "RunState",
    "CompiledTrace", "EXIT_GUEST", "Jit", "StopRun", "NullSuperPin",
    "SourceCompiledTrace", "SourceJit",
    "InstrumentFilter", "InstrumentationStats", "OPCODE_CLASSES",
    "parse_filter", "Pintool", "run_with_pin", "Bbl", "build_trace", "Ins",
    "MAX_TRACE_INS", "TraceObj",
]
