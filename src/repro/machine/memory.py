"""Paged guest memory with copy-on-write fork.

The machine is *word addressed*: every address names one 64-bit word.
Memory is organized as pages of ``PAGE_WORDS`` words held in a dict from
page index to a Python list.  :meth:`Memory.fork` copies only the page
table and freezes all pages in both parent and child; the first write to a
frozen page copies it (classic COW).  This makes SuperPin's ``fork`` of a
multi-megaword guest cheap, and lets the timing model charge per-page
copy-on-write faults exactly the way the paper's "Fork Overhead" section
describes.

Unmapped reads return 0 and unmapped writes allocate a zeroed page: the
whole address space behaves like anonymous demand-zero memory, which is
what the synthetic workloads assume.  A *strict* mode instead faults on
access outside regions registered with :meth:`Memory.map_region`, used by
tests and by the kernel to police wild pointers.
"""

from __future__ import annotations

from ..errors import MemoryFault

PAGE_SHIFT = 10
PAGE_WORDS = 1 << PAGE_SHIFT
_OFFSET_MASK = PAGE_WORDS - 1

_ZERO_PAGE: list[int] = [0] * PAGE_WORDS


class Memory:
    """Guest physical memory (word addressed, demand-zero, COW forkable)."""

    __slots__ = ("_pages", "_frozen", "strict", "_regions", "cow_faults",
                 "pages_copied")

    def __init__(self, strict: bool = False):
        self._pages: dict[int, list[int]] = {}
        #: Pages shared with a fork peer; must be copied before writing.
        self._frozen: set[int] = set()
        self.strict = strict
        self._regions: list[tuple[int, int]] = []
        #: Number of copy-on-write page copies performed (for the cost model).
        self.cow_faults = 0
        #: Pages copied eagerly or via COW, total.
        self.pages_copied = 0

    # -- mapping bookkeeping (strict mode / kernel VMAs) --------------------

    def map_region(self, base: int, length: int) -> None:
        """Register [base, base+length) as a valid region (strict mode)."""
        if length > 0:
            self._regions.append((base, base + length))

    def unmap_region(self, base: int, length: int) -> None:
        """Remove a region previously registered with :meth:`map_region`."""
        self._regions = [r for r in self._regions
                         if not (r[0] == base and r[1] == base + length)]

    def is_mapped(self, addr: int) -> bool:
        """True if ``addr`` falls inside any registered region."""
        return any(lo <= addr < hi for lo, hi in self._regions)

    def _check(self, addr: int) -> None:
        """Strict mode's test, made by ``read`` / ``write`` only when
        ``strict`` is set: a lenient access pays no frame for it."""
        if not self.is_mapped(addr):
            raise MemoryFault(f"access to unmapped address {addr:#x}")

    # -- scalar access -------------------------------------------------------

    def read(self, addr: int) -> int:
        """Read the word at ``addr`` (0 for untouched memory)."""
        if self.strict:
            self._check(addr)
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[addr & _OFFSET_MASK]

    def write(self, addr: int, value: int) -> None:
        """Write ``value`` (already masked to 64 bits by the caller)."""
        if self.strict:
            self._check(addr)
        index = addr >> PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = _ZERO_PAGE[:]
            self._pages[index] = page
        elif index in self._frozen:
            page = page[:]
            self._pages[index] = page
            self._frozen.discard(index)
            self.cow_faults += 1
            self.pages_copied += 1
        page[addr & _OFFSET_MASK] = value

    # -- bulk access ---------------------------------------------------------

    def read_block(self, addr: int, count: int) -> list[int]:
        """Read ``count`` consecutive words starting at ``addr``."""
        return [self.read(addr + i) for i in range(count)]

    def write_block(self, addr: int, values: list[int] | tuple[int, ...]
                    ) -> None:
        """Write consecutive ``values`` starting at ``addr``."""
        for i, value in enumerate(values):
            self.write(addr + i, value)

    # -- fork ----------------------------------------------------------------

    def fork(self) -> "Memory":
        """Return a copy-on-write child sharing all current pages."""
        child = Memory(strict=self.strict)
        child._pages = dict(self._pages)
        child._regions = list(self._regions)
        shared = set(self._pages)
        child._frozen = set(shared)
        # The parent's own pages also become frozen: a parent write must
        # not be visible to the child.
        self._frozen |= shared
        return child

    def adopt(self, other: "Memory") -> None:
        """Become ``other`` while staying the same object.

        Takes over ``other``'s page table, freeze set, regions,
        strictness and counters *by reference* — nothing is copied and
        nothing is frozen, so no COW fault is charged that running on
        ``other`` itself would not be.  What holds this object — JIT
        closures over the bound ``read`` / ``write`` — now addresses
        ``other``'s memory; that is the context switch of a resident
        slice machine (:mod:`repro.superpin.slices`).  ``other`` is spent:
        it shares its tables with this object from here on and must not
        be used again.
        """
        self._pages = other._pages
        self._frozen = other._frozen
        self.strict = other.strict
        self._regions = other._regions
        self.cow_faults = other.cow_faults
        self.pages_copied = other.pages_copied

    def same_words(self, addr: int, words: list[int]) -> bool:
        """True when the ``len(words)`` words at ``addr`` equal ``words``,
        compared one list slice per page touched.

        The words are a decoded trace's: in strict mode the first is
        read as a fetch (and faults if unmapped), and an unmapped word
        after it is a difference — the decoder would have stopped ahead
        of it (:func:`repro.pin.trace.build_trace`).
        """
        if self.strict:
            self.read(addr)
            ahead = range(addr + 1, addr + len(words))
            if not all(map(self.is_mapped, ahead)):
                return False
        done, count = 0, len(words)
        while done < count:
            offset = (addr + done) & _OFFSET_MASK
            span = min(count - done, PAGE_WORDS - offset)
            page = self._pages.get((addr + done) >> PAGE_SHIFT, _ZERO_PAGE)
            if page[offset:offset + span] != words[done:done + span]:
                return False
            done += span
        return True

    def scratch_fork(self) -> "Memory":
        """COW child for throwaway runs; the parent is left untouched.

        Unlike :meth:`fork`, the parent's freeze set is not modified, so
        the parent is charged no COW fault for pages only the scratch
        run touched — the fix for the signature lookahead's phantom
        fork-overhead accounting.  Every shared page is frozen in the
        *child*, so child writes copy pages before mutating them and the
        parent's page objects are never written through the child.  The
        caller must not write the parent while the child is still in
        use: a parent in-place write to an unfrozen shared page would be
        visible to the child (boundary snapshots are fully frozen, so
        this cannot happen for the lookahead).
        """
        child = Memory(strict=self.strict)
        child._pages = dict(self._pages)
        child._regions = list(self._regions)
        child._frozen = set(self._pages)
        return child

    def deep_copy(self) -> "Memory":
        """Eagerly copy every page (the ablation baseline for COW fork)."""
        clone = Memory(strict=self.strict)
        clone._pages = {idx: page[:] for idx, page in self._pages.items()}
        clone._regions = list(self._regions)
        clone.pages_copied = len(self._pages)
        return clone

    # -- introspection -------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of materialized pages."""
        return len(self._pages)

    @property
    def frozen_pages(self) -> int:
        """Number of pages currently shared with a fork peer."""
        return len(self._frozen)

    def touched_addresses(self) -> int:
        """Approximate footprint in words (resident pages * page size)."""
        return len(self._pages) * PAGE_WORDS

    def equal_range(self, other: "Memory", base: int, count: int) -> bool:
        """Compare ``count`` words at ``base`` against ``other``."""
        return all(self.read(base + i) == other.read(base + i)
                   for i in range(count))
