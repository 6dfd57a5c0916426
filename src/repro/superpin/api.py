"""The SuperPin tool API (paper §5).

Tools receive an :class:`SPControl` handle in ``setup`` and call the same
five entry points the paper documents:

* ``SP_Init(fun)`` — enable SuperPin for this tool; ``fun`` resets
  slice-local statistics.  Returns True under SuperPin (tools written
  against this API run unchanged in plain Pin mode, where they receive a
  :class:`~repro.pin.pintool.NullSuperPin` whose ``SP_Init`` returns
  False).
* ``SP_CreateSharedArea(localData, size, autoMerge)`` — allocate a
  cross-slice shared region, or hand back ``localData`` when SuperPin is
  off.
* ``SP_AddSliceBeginFunction(fun, val)`` / ``SP_AddSliceEndFunction(fun,
  val)`` — slice lifecycle callbacks; end functions run in slice order
  and are where manual merging happens.
* ``SP_EndSlice()`` — terminate the current slice immediately (the
  Shadow-Profiler-style sampling hook).
"""

from __future__ import annotations

import hashlib
import io
import pickle
import uuid
from dataclasses import dataclass, field

from ..errors import InstrumentationError
from ..pin.jit import StopRun
from .sharedmem import AutoMerge, SharedArea
from .switches import SuperPinConfig

#: StopRun token used by SP_EndSlice.
END_SLICE_TOKEN = "sp_endslice"


class SPControl:
    """Live SuperPin API handle (one per run, shared by all slices)."""

    is_superpin = True

    def __init__(self, config: SuperPinConfig):
        self.config = config
        self.initialized = False
        self.reset_fun = None
        self.begin_functions: list[tuple[object, object]] = []
        self.end_functions: list[tuple[object, object]] = []
        #: Parallel lists: the shared areas and the local objects whose
        #: slice copies feed auto-merge.
        self.areas: list[SharedArea] = []
        self.area_locals: list[object] = []
        self._in_slice = False

    # The handle is process-global state; slices share it (tools often
    # stash it on themselves, and the tool is deep-copied per slice).
    def __deepcopy__(self, memo) -> "SPControl":
        memo[id(self)] = self
        return self

    # -- the paper's API ------------------------------------------------------

    def SP_Init(self, reset_fun=None) -> bool:
        """Initialize SuperPin support; must be called during tool setup."""
        self.initialized = True
        self.reset_fun = reset_fun
        return True

    def SP_CreateSharedArea(self, local_data, size: int = 0,
                            auto_merge=None) -> SharedArea:
        """Allocate a shared region of ``size`` words.

        ``auto_merge`` accepts an :class:`AutoMerge`, its integer value,
        or None/0 for manual merging.  When auto-merging, ``local_data``
        must be a mutable sequence the tool updates during the slice; the
        runtime merges the slice's copy at slice end.

        The registration captures the *object*, so slice code (including
        the ``SP_Init`` reset function) must mutate it in place —
        ``buffer.clear()``, not ``self.buffer = []`` — or the merged data
        will silently be the orphaned original.
        """
        mode = self._coerce_merge_mode(auto_merge)
        if size <= 0:
            try:
                size = len(local_data)
            except TypeError:
                size = 1
        area = SharedArea(f"area{len(self.areas)}", size, mode)
        if mode is not AutoMerge.NONE and not hasattr(local_data, "__iter__"):
            raise InstrumentationError(
                "auto-merged shared areas need an iterable localData")
        self.areas.append(area)
        self.area_locals.append(local_data if mode is not AutoMerge.NONE
                                else None)
        return area

    def SP_AddSliceBeginFunction(self, fun, value=None) -> None:
        """``fun(slice_num, value)`` runs right after a slice is created."""
        self.begin_functions.append((fun, value))

    def SP_AddSliceEndFunction(self, fun, value=None) -> None:
        """``fun(slice_num, value)`` runs at slice end, in slice order."""
        self.end_functions.append((fun, value))

    def SP_EndSlice(self) -> None:
        """End the current slice now (callable from analysis code only)."""
        if not self._in_slice:
            raise InstrumentationError(
                "SP_EndSlice is only valid inside a running slice")
        raise StopRun(END_SLICE_TOKEN)

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _coerce_merge_mode(auto_merge) -> AutoMerge:
        if auto_merge is None:
            return AutoMerge.NONE
        if isinstance(auto_merge, AutoMerge):
            return auto_merge
        return AutoMerge(int(auto_merge))


@dataclass
class SliceToolContext:
    """Everything that gets 'forked' (deep-copied) into each slice.

    Deep-copying tool, callbacks and auto-merge locals in one call gives
    them a shared memo, so a callback bound to the tool instance ends up
    bound to the *slice's* copy — the in-simulation analogue of every
    slice getting its own copy of the Pintool's address space, with
    :class:`SharedArea` objects opting out exactly like shared mappings
    survive ``fork``.
    """

    tool: object
    reset_fun: object
    begin_functions: list[tuple[object, object]] = field(default_factory=list)
    end_functions: list[tuple[object, object]] = field(default_factory=list)
    area_locals: list[object] = field(default_factory=list)
    #: What the tool's instrumentation can depend on
    #: (:func:`instrumentation_digest`), stamped by :meth:`from_control`
    #: and carried by every copy and pickle.  What a resident slice
    #: machine keeps of one slice's instrumentation it serves to copies
    #: of any template with an equal digest — this run's, or a later
    #: run's or daemon job's (:meth:`repro.superpin.slices.SliceMachine.
    #: adopt`); a context built by hand has none and is served nothing.
    template_id: str | None = None

    @classmethod
    def from_control(cls, tool, sp: SPControl) -> "SliceToolContext":
        return cls(tool=tool, reset_fun=sp.reset_fun,
                   begin_functions=list(sp.begin_functions),
                   end_functions=list(sp.end_functions),
                   area_locals=list(sp.area_locals),
                   template_id=instrumentation_digest(tool))


class _DigestPickler(pickle.Pickler):
    """Pickles a tool's state with every :class:`SharedArea` handle left
    out: each run makes its own, and what a pure tool attaches does not
    depend on one."""

    def persistent_id(self, obj):
        return "SharedArea" if isinstance(obj, SharedArea) else None


def instrumentation_digest(tool) -> str:
    """A SHA-256 hex digest of what ``tool``'s instrumentation can
    depend on under the purity contract
    (:attr:`~repro.pin.pintool.Pintool.pure_instrumentation`): its
    class, and its state now, :class:`SharedArea` handles left out.  A
    pure tool reads only its own state, so the state covers its
    ``instrument_filter`` and every constructor argument.  Two
    default-constructed tools of one class under one ``-spfilter``
    digest equally.  A class pickles by its import path, which must name
    that very class; a class or state that does not pickle gets a
    run-unique id instead, since an unequal digest only costs reuse."""
    buffer = io.BytesIO()
    try:
        _DigestPickler(buffer).dump((type(tool), vars(tool)))
    except (pickle.PicklingError, TypeError, AttributeError):
        return uuid.uuid4().hex
    return hashlib.sha256(buffer.getvalue()).hexdigest()
