"""Selective instrumentation: per-tool trace filters.

The paper identifies instrumentation cost as the dominant slowdown
source; most tools only care about a subset of the program (one routine,
one address range, one instruction class).  An :class:`InstrumentFilter`
names that subset, and a trace callback registered with a filter is
simply *skipped* for traces containing no matching instruction — the
trace then compiles as an uninstrumented fast-path trace: bare
semantics, no analysis calls, still linkable.

The spec grammar (``-spfilter``) is a comma-separated OR of terms::

    routine:<name>        symbol-table routine (span to the next symbol)
    range:<lo>-<hi>       address range [lo, hi), hex or decimal
    opcode:<class>        instruction class (see OPCODE_CLASSES)

A trace matches when *any* of its instructions matches *any* term.
Filtering is per-callback, and SuperPin's signature check is no
callback at all (the JIT lowers it into the trace), so detection never
depends on the tool's filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

#: Opcode-class name -> predicate over an :class:`~repro.pin.trace.Ins`.
OPCODE_CLASSES = {
    "mem": lambda ins: ins.is_memory_read or ins.is_memory_write,
    "memread": lambda ins: ins.is_memory_read,
    "memwrite": lambda ins: ins.is_memory_write,
    "branch": lambda ins: ins.is_branch,
    "condbranch": lambda ins: ins.is_cond_branch,
    "call": lambda ins: ins.is_call,
    "ret": lambda ins: ins.is_ret,
    "syscall": lambda ins: ins.is_syscall,
    "control": lambda ins: ins.info.is_control,
    "alu": lambda ins: not (ins.info.is_control or ins.is_memory_read
                            or ins.is_memory_write),
}


def opcode_class_of(ins) -> str:
    """The broad class of one instruction (first match wins)."""
    if ins.info.is_control:
        return "control"
    if ins.is_memory_read or ins.is_memory_write:
        return "mem"
    return "alu"


@dataclass(frozen=True)
class InstrumentFilter:
    """An instrument-this-subset predicate over traces and instructions.

    Immutable and picklable (tuples/frozensets only), so it survives the
    deep copy into every slice's tool context and the worker pickle.
    """

    #: Half-open address ranges ``[lo, hi)``.
    ranges: tuple[tuple[int, int], ...] = ()
    #: Opcode-class names (keys of :data:`OPCODE_CLASSES`).
    opcode_classes: frozenset = frozenset()
    #: The original spec text, for reports.
    spec: str = ""
    #: Routine terms as (name, lo, hi) for describability.
    routines: tuple[tuple[str, int, int], ...] = field(default=())

    def matches_ins(self, ins) -> bool:
        address = ins.address
        for lo, hi in self.ranges:
            if lo <= address < hi:
                return True
        for name in self.opcode_classes:
            if OPCODE_CLASSES[name](ins):
                return True
        return False

    def matches_trace(self, trace_obj) -> bool:
        """True when any instruction of the trace matches."""
        return any(self.matches_ins(ins)
                   for bbl in trace_obj.bbls for ins in bbl)

    def __str__(self) -> str:
        return self.spec or "<empty filter>"


def _parse_int(text: str) -> int:
    return int(text, 0)


def _routine_span(name: str, program) -> tuple[int, int]:
    """Resolve a routine symbol to its address span.

    A routine spans from its symbol to the next symbol address (or the
    end of the text segment for the last routine) — the convention flat
    symbol tables afford.
    """
    if program is None:
        raise ConfigError(
            f"filter term 'routine:{name}' needs a program symbol table")
    symbols = program.symbols
    if name not in symbols:
        raise ConfigError(
            f"filter routine {name!r} not in the program symbol table "
            f"({len(symbols)} symbols)")
    lo = symbols[name]
    following = [addr for addr in symbols.values() if addr > lo]
    hi = min(following) if following else max(program.text_end,
                                              program.load_end)
    return lo, hi


def parse_filter(spec: str, program=None) -> InstrumentFilter:
    """Parse a ``-spfilter`` spec into an :class:`InstrumentFilter`.

    ``program`` supplies the symbol table for ``routine:`` terms; pure
    ``range:``/``opcode:`` specs parse without one.
    """
    ranges: list[tuple[int, int]] = []
    classes: set[str] = set()
    routines: list[tuple[str, int, int]] = []
    terms = [term.strip() for term in spec.split(",") if term.strip()]
    if not terms:
        raise ConfigError(f"empty filter spec {spec!r}")
    for term in terms:
        kind, sep, value = term.partition(":")
        if not sep or not value:
            raise ConfigError(
                f"bad filter term {term!r}; expected kind:value")
        if kind == "routine":
            lo, hi = _routine_span(value, program)
            routines.append((value, lo, hi))
            ranges.append((lo, hi))
        elif kind == "range":
            lo_text, sep, hi_text = value.partition("-")
            if not sep:
                raise ConfigError(
                    f"bad range {value!r}; expected lo-hi")
            try:
                lo, hi = _parse_int(lo_text), _parse_int(hi_text)
            except ValueError as exc:
                raise ConfigError(f"bad range {value!r}") from exc
            if hi <= lo:
                raise ConfigError(
                    f"empty range {value!r} (hi must exceed lo)")
            ranges.append((lo, hi))
        elif kind == "opcode":
            if value not in OPCODE_CLASSES:
                raise ConfigError(
                    f"unknown opcode class {value!r}; choose from "
                    f"{', '.join(sorted(OPCODE_CLASSES))}")
            classes.add(value)
        else:
            raise ConfigError(
                f"unknown filter kind {kind!r}; expected routine, "
                f"range or opcode")
    return InstrumentFilter(ranges=tuple(ranges),
                            opcode_classes=frozenset(classes),
                            spec=spec, routines=tuple(routines))


@dataclass
class InstrumentationStats:
    """Per-engine selective-instrumentation counters.

    Folded into the metrics registry at slice end (``pin.filter.*``),
    mirroring how CacheStats keeps the dispatch loop free of metric
    calls.
    """

    #: Callback invocations skipped because the trace missed the filter.
    skipped_callbacks: int = 0
    #: Traces compiled with zero analysis calls because every attached
    #: callback was filtered out — the uninstrumented fast path.
    fastpath_traces: int = 0


def _trace_has_calls(trace_obj) -> bool:
    for bbl in trace_obj.bbls:
        for ins in bbl:
            if (ins.before_calls or ins.after_calls or ins.taken_calls
                    or ins.if_then):
                return True
    return False


def run_trace_callbacks(engine, trace_obj, checked: bool = False) -> None:
    """Invoke the engine's trace callbacks, honouring per-callback filters.

    Shared by both JIT backends.  A callback registered with a filter is
    skipped when the trace contains no matching instruction; if every
    skipped trace ends up with zero attached calls it is counted as a
    fast-path trace.  ``checked``: the JIT lowers SuperPin's signature
    check into the trace, which is a call like any other here.
    """
    skipped = 0
    for callback, value, trace_filter in engine.trace_callbacks:
        if (trace_filter is not None
                and not trace_filter.matches_trace(trace_obj)):
            skipped += 1
            continue
        callback(trace_obj, value)
    if skipped:
        stats = engine.instr_stats
        stats.skipped_callbacks += skipped
        if not checked and not _trace_has_calls(trace_obj):
            stats.fastpath_traces += 1
