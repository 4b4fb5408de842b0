"""Unit tests for repro.storage.block."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import mbr_of_points
from repro.storage import Block, BlockFile


class TestBlockBasics:
    def test_empty_block(self):
        block = Block(0, capacity=4)
        assert len(block) == 0
        assert block.is_empty
        assert not block.is_full
        assert block.mbr() is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Block(0, capacity=0)

    def test_append_and_len(self):
        block = Block(0, capacity=3)
        block.append(0.1, 0.2)
        block.append(0.3, 0.4)
        assert len(block) == 2
        assert block.slot_count == 2

    def test_append_to_full_block_raises(self):
        block = Block(0, capacity=1)
        block.append(0.1, 0.2)
        with pytest.raises(ValueError):
            block.append(0.3, 0.4)

    def test_bulk_fill(self):
        block = Block(0, capacity=5)
        block.bulk_fill(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert len(block) == 2
        assert block.points().shape == (2, 2)

    def test_bulk_fill_nonempty_raises(self):
        block = Block(0, capacity=5)
        block.append(0.0, 0.0)
        with pytest.raises(ValueError):
            block.bulk_fill(np.array([[0.1, 0.2]]))

    def test_bulk_fill_over_capacity_raises(self):
        block = Block(0, capacity=2)
        with pytest.raises(ValueError):
            block.bulk_fill(np.zeros((3, 2)))


class TestBlockContainsAndDelete:
    def test_contains_exact_match(self):
        block = Block(0, capacity=4)
        block.append(0.25, 0.75)
        assert block.contains(0.25, 0.75)
        assert not block.contains(0.25, 0.7500001)

    def test_delete_flags_point(self):
        block = Block(0, capacity=4)
        block.append(0.1, 0.1)
        block.append(0.2, 0.2)
        assert block.delete(0.1, 0.1)
        assert len(block) == 1
        assert not block.contains(0.1, 0.1)
        assert block.contains(0.2, 0.2)

    def test_delete_missing_returns_false(self):
        block = Block(0, capacity=4)
        block.append(0.1, 0.1)
        assert not block.delete(0.9, 0.9)

    def test_deleted_slot_is_reused_on_append(self):
        block = Block(0, capacity=2)
        block.append(0.1, 0.1)
        block.append(0.2, 0.2)
        block.delete(0.1, 0.1)
        assert not block.is_full
        block.append(0.3, 0.3)  # reuses the deleted slot
        assert len(block) == 2
        assert block.contains(0.3, 0.3)

    def test_points_excludes_deleted(self):
        block = Block(0, capacity=3)
        block.bulk_fill(np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]))
        block.delete(0.2, 0.2)
        live = block.points()
        assert live.shape == (2, 2)
        assert [0.2, 0.2] not in live.tolist()

    def test_all_slots_includes_deleted(self):
        block = Block(0, capacity=3)
        block.bulk_fill(np.array([[0.1, 0.1], [0.2, 0.2]]))
        block.delete(0.2, 0.2)
        assert block.all_slots().shape == (2, 2)


class TestBlockMbrAndIteration:
    def test_mbr_of_live_points(self):
        block = Block(0, capacity=4)
        block.bulk_fill(np.array([[0.1, 0.9], [0.4, 0.2]]))
        mbr = block.mbr()
        assert mbr.as_tuple() == (0.1, 0.2, 0.4, 0.9)

    def test_iter_points(self):
        block = Block(0, capacity=4)
        block.bulk_fill(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert list(block.iter_points()) == [(0.1, 0.2), (0.3, 0.4)]

    def test_overflow_flag(self):
        assert Block(3, capacity=2, is_overflow=True).is_overflow
        assert not Block(3, capacity=2).is_overflow


# -- the vectorised membership primitive vs a scalar reference -----------------

#: a small coordinate pool so appends, probes and deletes collide often;
#: holds both signed zeros and a near-duplicate that must not match
_COORD = st.sampled_from([0.0, -0.0, 0.25, 0.25 + 1e-9, 0.5, 1.0])
_OPS = st.lists(
    st.tuples(st.sampled_from(["append", "contains", "delete"]), _COORD, _COORD),
    max_size=40,
)


class _ReferenceBlock:
    """Slots as ``[x, y, deleted]`` lists, matched one slot at a time."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slots: list[list] = []

    def append(self, x: float, y: float) -> bool:
        if len(self.slots) < self.capacity:
            self.slots.append([x, y, False])
            return True
        for slot in self.slots:
            if slot[2]:
                slot[:] = [x, y, False]
                return True
        return False

    def _first_match(self, x: float, y: float):
        for slot in self.slots:
            if not slot[2] and slot[0] == x and slot[1] == y:
                return slot
        return None

    def contains(self, x: float, y: float) -> bool:
        return self._first_match(x, y) is not None

    def delete(self, x: float, y: float) -> bool:
        slot = self._first_match(x, y)
        if slot is None:
            return False
        slot[2] = True
        return True


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 6), ops=_OPS)
def test_contains_and_delete_match_scalar_reference(capacity, ops):
    """``contains``/``delete`` agree with a per-slot scan: deleted slots are
    skipped, ``append`` reuses them, ``-0.0`` matches ``0.0``, a near-duplicate
    does not, and ``delete`` flags the first match only."""
    block = Block(0, capacity=capacity)
    reference = _ReferenceBlock(capacity)
    for op, x, y in ops:
        if op == "append":
            if reference.append(x, y):
                block.append(x, y)
            else:
                with pytest.raises(ValueError):
                    block.append(x, y)
        else:
            assert getattr(block, op)(x, y) == getattr(reference, op)(x, y)
        count = block.slot_count
        assert block.all_slots().tolist() == [[s[0], s[1]] for s in reference.slots]
        assert block._deleted[:count].tolist() == [s[2] for s in reference.slots]


# -- the memoised live points and MBR -------------------------------------------

_MEMO_OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "delete", "bulk_fill", "points", "mbr"]),
        _COORD,
        _COORD,
    ),
    max_size=40,
)


def _fresh_live(block: Block) -> np.ndarray:
    """The live points recomputed from the slots, bypassing the memo."""
    count = block.slot_count
    return block.all_slots()[~block._deleted[:count]]


def _assert_memo_current(block: Block) -> None:
    live = _fresh_live(block)
    points = block.points()
    assert not points.flags.writeable
    assert points.tolist() == live.tolist()
    expected = mbr_of_points(live) if live.shape[0] else None
    assert block.mbr() == expected


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 6), ops=_MEMO_OPS)
def test_memo_matches_a_fresh_recomputation(capacity, ops, tmp_path_factory):
    """After any interleaving of writes and reads, ``points()``/``mbr()``
    equal a recomputation from the slots, arrays handed out earlier keep
    their contents, and a block-file round trip reads the same back."""
    block = Block(0, capacity=capacity)
    handed_out: list[tuple[np.ndarray, list]] = []
    for op, x, y in ops:
        if op == "append" and not block.is_full:
            block.append(x, y)
        elif op == "delete":
            block.delete(x, y)
        elif op == "bulk_fill" and block.slot_count == 0:
            block.bulk_fill(np.array([[x, y], [y, x]])[:capacity])
        elif op in ("points", "mbr"):
            getattr(block, op)()
            handed_out.append((block.points(), block.points().tolist()))
        _assert_memo_current(block)
    for array, contents in handed_out:
        assert array.tolist() == contents
    path = tmp_path_factory.mktemp("memo") / "blocks.bin"
    with BlockFile(path, capacity) as disk:
        disk.write_block(block)
        reread = disk.read_block(0)
    _assert_memo_current(reread)
    assert reread.points().tolist() == block.points().tolist()


def test_points_are_read_only_and_shared_until_a_write():
    block = Block(0, capacity=4)
    block.bulk_fill(np.array([[0.1, 0.2], [0.3, 0.4]]))
    points = block.points()
    assert block.points() is points
    with pytest.raises(ValueError):
        points[0, 0] = 9.0
    block.append(0.5, 0.6)
    assert block.points() is not points
    assert points.tolist() == [[0.1, 0.2], [0.3, 0.4]]


def test_pickled_block_carries_no_memo():
    block = Block(0, capacity=4, is_overflow=True)
    block.bulk_fill(np.array([[0.1, 0.9], [0.4, 0.2], [0.7, 0.7]]))
    block.delete(0.4, 0.2)
    cold = pickle.dumps(block)
    block.points()
    block.mbr()
    assert pickle.dumps(block) == cold
    for twin in (pickle.loads(cold), copy.deepcopy(block)):
        assert twin._live is None
        assert twin.points().tolist() == [[0.1, 0.9], [0.7, 0.7]]
        assert twin.mbr().as_tuple() == (0.1, 0.7, 0.7, 0.9)
