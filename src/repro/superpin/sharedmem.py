"""Shared areas: cross-slice result memory (paper §4.5 / §5).

``SP_CreateSharedArea(localData, size, autoMerge)`` allocates a region
visible to every slice and to the final ``fini``.  Two usage styles, both
from the paper:

* **Manual merge** (Figure 2): the tool keeps slice-local state and a
  registered slice-end function adds it into the shared area.  The area
  object is *never* copied into slices — ``__deepcopy__`` returns
  ``self`` — so writes from any slice context land in the one true
  region, mirroring fork + shared memory.

* **Auto merge**: the tool hands over its local data object and an
  :class:`AutoMerge` mode; the runtime merges the slice's copy of the
  local data into the area at slice end, in slice order, with no tool
  code.

Word values are plain Python ints; ``size`` is kept for API fidelity and
bounds checking.
"""

from __future__ import annotations

import enum
import threading

from ..errors import InstrumentationError


class AutoMerge(enum.Enum):
    """How a shared area absorbs a slice's local data at slice end."""

    NONE = 0
    ADD = 1
    MAX = 2
    MIN = 3
    CONCAT = 4


#: While ``_SCOPE.areas`` is set, :func:`_restore_shared_area` resolves
#: what *this thread* unpickles to these canonical instances (keyed by
#: name) instead of building copies.  Per thread: two runs on two
#: threads of one process (two serve-daemon jobs) each unpickle inside a
#: scope of their own, and every run names its areas ``area0``,
#: ``area1``, ... — one shared slot would hand a slice of one run the
#: other run's region.
_SCOPE = threading.local()


class resolve_shared_areas:
    """Context manager: unpickling inside resolves areas to canonical ones.

    The parallel slice executor pickles tool contexts into worker
    processes and pickles the results back.  Inside a worker, unpickling
    a :class:`SharedArea` builds a private copy (slice-local writes to it
    are discarded, exactly like a worker's address space).  In the
    *parent*, however, the returned context's area references must
    resolve back to the one true region so slice-end merge functions
    write where ``fini`` will read — the pickling analogue of
    ``__deepcopy__`` returning ``self``.  Wrap the result unpickle in
    this manager, passing the run's canonical areas.
    """

    def __init__(self, areas: "list[SharedArea]"):
        self._areas = {area.name: area for area in areas}
        self._previous: dict[str, SharedArea] | None = None

    def __enter__(self) -> "resolve_shared_areas":
        self._previous = getattr(_SCOPE, "areas", None)
        _SCOPE.areas = self._areas
        return self

    def __exit__(self, *exc) -> None:
        _SCOPE.areas = self._previous


def _restore_shared_area(name: str, size: int, mode_value: int,
                         data: list) -> "SharedArea":
    """Pickle reconstructor for :class:`SharedArea` (see ``__reduce__``)."""
    registry = getattr(_SCOPE, "areas", None)
    if registry is not None and name in registry:
        return registry[name]
    area = SharedArea(name, size, AutoMerge(mode_value))
    area.data = list(data)
    return area


class SharedArea:
    """A named region shared by the master and every slice."""

    def __init__(self, name: str, size: int,
                 auto_merge: AutoMerge = AutoMerge.NONE):
        if size < 0:
            raise InstrumentationError(f"shared area size {size} < 0")
        self.name = name
        self.size = size
        self.auto_merge = auto_merge
        self.data: list = [0] * size

    # Shared across slices: deep copies hand back the same object,
    # the in-simulation analogue of a shared-memory mapping surviving fork.
    def __deepcopy__(self, memo) -> "SharedArea":
        memo[id(self)] = self
        return self

    def __copy__(self) -> "SharedArea":
        return self

    # Pickling (crossing a worker-process boundary) goes through the
    # reconstructor so references resolve to the canonical area wherever
    # a resolve_shared_areas scope is active.  Within one pickle the
    # memo still guarantees a single object per area.
    def __reduce__(self):
        return (_restore_shared_area,
                (self.name, self.size, self.auto_merge.value,
                 list(self.data)))

    # -- word access ---------------------------------------------------------

    def __getitem__(self, index: int):
        return self.data[index]

    def __setitem__(self, index: int, value) -> None:
        self.data[index] = value

    def __len__(self) -> int:
        return len(self.data)

    @property
    def value(self):
        """Convenience for one-word areas (the icount pattern)."""
        return self.data[0]

    @value.setter
    def value(self, new) -> None:
        self.data[0] = new

    # -- merging -------------------------------------------------------------

    def merge_from(self, local) -> None:
        """Apply this area's auto-merge mode to a slice's local data.

        ``local`` is the slice's copy of the object the tool registered
        at creation time (a list-like of words, or any iterable for
        CONCAT).
        """
        mode = self.auto_merge
        if mode is AutoMerge.NONE:
            return
        if mode is AutoMerge.CONCAT:
            self.data.extend(local)
            return
        values = list(local)
        if len(values) > len(self.data):
            raise InstrumentationError(
                f"auto-merge source for {self.name!r} has {len(values)} "
                f"words but the area holds {len(self.data)}")
        if mode is AutoMerge.ADD:
            for i, value in enumerate(values):
                self.data[i] += value
        elif mode is AutoMerge.MAX:
            for i, value in enumerate(values):
                if value > self.data[i]:
                    self.data[i] = value
        elif mode is AutoMerge.MIN:
            for i, value in enumerate(values):
                if value < self.data[i]:
                    self.data[i] = value
        else:  # pragma: no cover
            raise InstrumentationError(f"unhandled merge mode {mode}")

    def __repr__(self) -> str:
        return (f"SharedArea({self.name!r}, size={self.size}, "
                f"mode={self.auto_merge.name})")
