"""Pintool base class and run helpers.

A Pintool is an object that instruments a guest program and accumulates
analysis state.  The lifecycle mirrors a real Pintool's ``main``:

1. :meth:`Pintool.setup` runs once before the program starts.  This is
   where a SuperPin-aware tool calls ``sp.SP_Init``, creates shared areas
   and registers merge functions (paper Figure 2) through the ``sp``
   handle it receives — a live SuperPin control object in SuperPin mode,
   a null implementation otherwise, so the *same tool source* runs in
   both modes just like the paper's tools do.
2. :meth:`Pintool.instrument_trace` is registered as a trace callback and
   attaches analysis calls.
3. :meth:`Pintool.fini` runs after the program (and, under SuperPin, all
   slices) complete.

Tool instances are deep-copied into every slice — the in-simulation
equivalent of ``fork`` duplicating the tool's address space.  Shared
areas opt out of the copy (see :mod:`repro.superpin.sharedmem`).
"""

from __future__ import annotations

from ..machine.kernel import Kernel
from ..obs.metrics import NULL_METRICS
from ..machine.process import load_program
from .engine import PinRunResult, PinVM, RunState


class NullSuperPin:
    """The ``sp`` handle handed to tools when SuperPin is disabled.

    Matches the paper's API contract: ``SP_Init`` returns False and
    ``SP_CreateSharedArea`` hands back the tool's local data.
    """

    is_superpin = False

    def SP_Init(self, reset_fun=None) -> bool:
        return False

    def SP_CreateSharedArea(self, local_data, size: int = 0,
                            auto_merge=None):
        return local_data

    def SP_AddSliceBeginFunction(self, fun, value=None) -> None:
        pass

    def SP_AddSliceEndFunction(self, fun, value=None) -> None:
        pass

    def SP_EndSlice(self) -> None:
        pass


class Pintool:
    """Base class for analysis tools."""

    name = "pintool"

    #: Optional :class:`~repro.pin.filter.InstrumentFilter`: when set,
    #: :meth:`instrument_trace` only runs for traces containing at least
    #: one matching instruction; other traces compile uninstrumented
    #: (``-spfilter`` assigns this before the tool is copied into
    #: slices, so every slice — and the audit's serial baseline —
    #: inherits the same filter).  Filter-aware tools must *also* check
    #: per instruction (``INS_MatchesFilter`` / ``BBL_NumMatchingIns``)
    #: inside ``instrument_trace``: a slice decodes serial Pin's traces,
    #: but its signature pc splits the block it falls in, so block
    #: shapes differ between serial and sliced execution and only
    #: instruction-granular decisions produce replay-stable results —
    #: the engine's whole-trace skip is merely the fast path consistent
    #: with that semantics.
    instrument_filter = None

    #: The purity contract: True declares that what
    #: :meth:`instrument_trace` attaches is a function of the trace,
    #: :attr:`instrument_filter` and the constructor arguments alone —
    #: the same calls, in the same order, with the same arguments, every
    #: time it sees that trace, in this run or any later one — and that
    #: running it changes nothing on the tool.  A resident slice machine
    #: may then keep the instrumented, lowered code of a trace and serve
    #: a later compile from it without calling :meth:`instrument_trace`
    #: again (:mod:`repro.pin.jit`), across runs and daemon jobs too,
    #: keyed by the tool's instrumentation digest: its class and its
    #: state when the run's template is made, shared areas left out
    #: (:func:`repro.superpin.api.instrumentation_digest`).  The first
    #: reuse of every trace under a digest is still re-instrumented and
    #: compared, so a declaration false within a run raises
    #: :class:`~repro.errors.InstrumentationError` instead of producing
    #: a wrong result; one false only across runs (instrumentation that
    #: reads anything but the trace and the tool's own state) is caught
    #: by ``-spaudit``'s comparison with serial Pin wherever it changes
    #: a result.  The promise is made by the class that *defines*
    #: ``instrument_trace`` (:func:`declares_pure_instrumentation`): a
    #: subclass that overrides the method makes its own or none.
    pure_instrumentation = False

    def setup(self, sp) -> None:
        """One-time initialization; ``sp`` is the SuperPin API handle."""

    def instrument_trace(self, trace, vm: PinVM) -> None:
        """Attach analysis calls to a freshly built trace."""
        raise NotImplementedError

    def fini(self) -> None:
        """Called once after the program completes."""

    # -- convenience ---------------------------------------------------------

    def activate(self, vm: PinVM) -> None:
        """Register this tool's instrumentation on ``vm``."""
        vm.add_trace_callback(
            lambda trace, value, _vm=vm: self.instrument_trace(trace, _vm),
            trace_filter=self.instrument_filter)

    def report(self) -> dict:
        """Machine-readable results; tools override for their own schema."""
        return {}


def declares_pure_instrumentation(tool) -> bool:
    """True when the class that defines ``tool``'s ``instrument_trace``
    itself sets :attr:`Pintool.pure_instrumentation`.

    A promise about a method is not inherited by another method: an
    override that counts its calls, or instruments differently, under a
    base class that declared would otherwise be silently covered.
    """
    for klass in type(tool).__mro__:
        if "instrument_trace" in vars(klass):
            return bool(vars(klass).get("pure_instrumentation", False))
    return False


def run_with_pin(program, tool: Pintool, kernel: Kernel | None = None,
                 max_instructions: int | None = None,
                 jit_backend: str = "closure", metrics=NULL_METRICS
                 ) -> tuple[PinRunResult, PinVM, Kernel]:
    """Classic (serial) Pin execution: the paper's baseline mode.

    Loads ``program``, instruments it with ``tool`` and runs it to
    completion under the Pin VM.  Returns the run result, the VM (for its
    statistics) and the kernel (for guest output).  The tool's
    ``instrument_filter`` applies here exactly as under SuperPin, so the
    audit's serial baseline sees the same instrumentation.  A trace
    that turns hot in mid-run is promoted to generated code (see
    :mod:`repro.pin.jit`), as it is on a slice machine.  It is the
    body of ``run_superpin`` at ``-sp 0``, which adds the report, trace
    and counters (``metrics``: the engine's registry).
    """
    kernel = kernel if kernel is not None else Kernel()
    process = load_program(program, kernel)
    vm = PinVM(process, jit_backend=jit_backend, metrics=metrics)
    tool.setup(NullSuperPin())
    tool.activate(vm)
    result = vm.run(max_instructions=max_instructions)
    if result.state is RunState.EXIT:
        tool.fini()
    return result, vm, kernel
