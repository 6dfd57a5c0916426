"""Memory: demand-zero semantics, COW fork."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import Memory, PAGE_WORDS


class TestBasics:
    def test_untouched_reads_zero(self):
        mem = Memory()
        assert mem.read(12345) == 0

    def test_write_read(self):
        mem = Memory()
        mem.write(7, 99)
        assert mem.read(7) == 99

    def test_block_ops(self):
        mem = Memory()
        mem.write_block(100, [1, 2, 3])
        assert mem.read_block(99, 5) == [0, 1, 2, 3, 0]

    def test_cross_page_block(self):
        mem = Memory()
        base = PAGE_WORDS - 2
        mem.write_block(base, [10, 11, 12, 13])
        assert mem.read_block(base, 4) == [10, 11, 12, 13]

    def test_resident_pages(self):
        mem = Memory()
        mem.write(0, 1)
        mem.write(PAGE_WORDS * 5, 1)
        assert mem.resident_pages == 2


class TestCow:
    def test_child_sees_parent_state_at_fork(self):
        mem = Memory()
        mem.write(10, 42)
        child = mem.fork()
        assert child.read(10) == 42

    def test_child_write_invisible_to_parent(self):
        mem = Memory()
        mem.write(10, 42)
        child = mem.fork()
        child.write(10, 7)
        assert mem.read(10) == 42
        assert child.read(10) == 7

    def test_parent_write_invisible_to_child(self):
        mem = Memory()
        mem.write(10, 42)
        child = mem.fork()
        mem.write(10, 7)
        assert child.read(10) == 42

    def test_cow_fault_counted_once_per_page(self):
        mem = Memory()
        mem.write(0, 1)
        child = mem.fork()
        child.write(1, 2)
        child.write(2, 3)  # same page: no second fault
        assert child.cow_faults == 1

    def test_fork_is_cheap_no_page_copies(self):
        mem = Memory()
        for i in range(10):
            mem.write(i * PAGE_WORDS, i)
        child = mem.fork()
        assert child.pages_copied == 0
        assert child.frozen_pages == 10
        assert mem.frozen_pages == 10

    def test_new_pages_after_fork_not_shared(self):
        mem = Memory()
        child = mem.fork()
        mem.write(0, 1)       # parent materializes a fresh page
        assert child.read(0) == 0
        assert mem.cow_faults == 0  # fresh page, not a COW copy

    def test_grandchild_fork(self):
        mem = Memory()
        mem.write(5, 1)
        child = mem.fork()
        grandchild = child.fork()
        grandchild.write(5, 3)
        child.write(5, 2)
        assert (mem.read(5), child.read(5), grandchild.read(5)) == (1, 2, 3)

    def test_deep_copy_counts_pages(self):
        mem = Memory()
        mem.write(0, 1)
        mem.write(PAGE_WORDS, 2)
        clone = mem.deep_copy()
        assert clone.pages_copied == 2
        clone.write(0, 9)
        assert mem.read(0) == 1


@settings(max_examples=50, deadline=None)
@given(writes=st.lists(
    st.tuples(st.integers(0, 4 * PAGE_WORDS), st.integers(0, 2 ** 64 - 1)),
    min_size=1, max_size=40),
    child_writes=st.lists(
    st.tuples(st.integers(0, 4 * PAGE_WORDS), st.integers(0, 2 ** 64 - 1)),
    max_size=40))
def test_fork_isolation_property(writes, child_writes):
    """After a fork, parent and child are fully independent address spaces."""
    mem = Memory()
    for addr, value in writes:
        mem.write(addr, value)
    snapshot = {addr: mem.read(addr) for addr, _ in writes}
    child = mem.fork()
    for addr, value in child_writes:
        child.write(addr, value)
    # Parent unchanged by any child write.
    for addr, value in snapshot.items():
        assert mem.read(addr) == value
    # Child reflects its own writes (last-write-wins).
    expected = dict(snapshot)
    for addr, value in child_writes:
        expected[addr] = value
    for addr, value in expected.items():
        assert child.read(addr) == value


@settings(max_examples=30, deadline=None)
@given(addrs=st.lists(st.integers(0, 10 * PAGE_WORDS), min_size=1,
                      max_size=30))
def test_equal_range_matches_fork(addrs):
    mem = Memory()
    for i, addr in enumerate(addrs):
        mem.write(addr, i + 1)
    child = mem.fork()
    lo, hi = min(addrs), max(addrs)
    assert mem.equal_range(child, lo, hi - lo + 1)
    child.write(lo, 999999)
    assert not mem.equal_range(child, lo, 1)


def _block_setup(kind: str):
    """``(memory to write, the fork parent or None, code writes seen)``:
    pages 0 and 2 materialized, page 1 not; ``cow``: the memory is a
    fork, every page frozen; ``watched``: words of page 2 are watched
    code, as an engine watches what it decoded."""
    mem = Memory()
    mem.write_block(0, list(range(1, PAGE_WORDS + 1)))
    mem.write(2 * PAGE_WORDS + 7, 77)
    parent = None
    if kind == "cow":
        parent, mem = mem, mem.fork()
    seen = []
    if kind == "watched":
        mem.watch_code(2 * PAGE_WORDS + 3, 6)
        mem.on_code_write = seen.append
    return mem, parent, seen


def _image(mem: Memory):
    return ({index: list(page) for index, page in mem._pages.items()},
            mem.cow_faults, mem.pages_copied, set(mem._frozen),
            set(mem._guarded), set(mem._code_words))


@pytest.mark.parametrize("kind", ["fresh", "cow", "watched"])
@pytest.mark.parametrize("addr, count", [
    (5, 3), (PAGE_WORDS - 4, 10), (PAGE_WORDS // 2, 2 * PAGE_WORDS + 9),
    (2 * PAGE_WORDS, 12), (3 * PAGE_WORDS - 1, 2)])
def test_write_block_is_per_word_writes(kind, addr, count):
    """The page-slice fast path of ``write_block`` leaves what writing
    word by word leaves — pages, COW faults and copies, frozen, guarded
    and watched sets, the fork parent, each code write called back."""
    values = [(addr * 31 + i) % 1000 + 1000 for i in range(count)]
    block, block_parent, block_seen = _block_setup(kind)
    words, words_parent, words_seen = _block_setup(kind)
    if block_parent is not None:
        before = _image(block_parent)
    block.write_block(addr, values)
    for i, value in enumerate(values):
        words.write(addr + i, value)
    assert _image(block) == _image(words)
    assert block_seen == words_seen
    if kind == "watched" and addr <= 2 * PAGE_WORDS + 8 \
            and addr + count > 2 * PAGE_WORDS + 3:
        assert block_seen
    if block_parent is not None:
        assert _image(block_parent) == before == _image(words_parent)
