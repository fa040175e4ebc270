"""Property tests of the VM's checked SPM views.

``SpmBufferView`` builds rank-specialised views for ranks 1-4 whose
fast ``__getitem__``/``__setitem__`` must behave exactly like the general
translation: the same element for every in-range index, and for every
other index — off by one below or above any dimension, wrong rank, a
non-tuple index — the same :class:`SpmAccessError`, attribute for
attribute and message for message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpmAccessError
from repro.prem.runtime import SpmBufferView


@st.composite
def views(draw):
    """(lo, shape, padding, core, segment) of one bound SPM buffer."""
    rank = draw(st.integers(1, 5))
    lo = tuple(draw(st.lists(st.integers(-5, 50), min_size=rank,
                             max_size=rank)))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=rank,
                                max_size=rank)))
    # The buffer is the bounding box: at least the bound range.
    padding = tuple(draw(st.lists(st.integers(0, 2), min_size=rank,
                                  max_size=rank)))
    core = draw(st.one_of(st.none(), st.integers(0, 7)))
    segment = draw(st.one_of(st.none(), st.integers(1, 9)))
    return lo, shape, padding, core, segment


def make_view(lo, shape, padding, core, segment):
    buffer = np.arange(
        np.prod([n + p for n, p in zip(shape, padding)]),
        dtype=np.float32).reshape([n + p for n, p in zip(shape, padding)])
    return SpmBufferView("X", buffer, lo, shape, core=core,
                         segment=segment), buffer


def reference_error(index, lo, shape, core, segment):
    """The error the general translation raises for *index*, or None."""
    key = index if isinstance(index, tuple) else (index,)
    if len(key) != len(lo):
        return SpmAccessError("X", key, lo, shape, core=core,
                              segment=segment,
                              detail=f"rank {len(key)} does not match")
    for value, low, extent in zip(key, lo, shape):
        if not 0 <= value - low < extent:
            return SpmAccessError("X", key, lo, shape, core=core,
                                  segment=segment)
    return None


def assert_same_error(raised, expected):
    assert type(raised) is SpmAccessError
    assert raised.name == expected.name
    assert raised.index == expected.index
    assert raised.lo == expected.lo
    assert raised.shape == expected.shape
    assert raised.core == expected.core
    assert raised.segment == expected.segment
    assert str(raised) == str(expected)


def probes(draw, lo, shape):
    """An in-range index, off-by-one indices around every dimension,
    wrong-rank indices and (rank 1) a bare integer index."""
    inside = tuple(draw(st.integers(l, l + n - 1)) for l, n in zip(lo, shape))
    out = [inside]
    for dim, (low, extent) in enumerate(zip(lo, shape)):
        for value in (low - 1, low, low + extent - 1, low + extent):
            out.append(inside[:dim] + (value,) + inside[dim + 1:])
    out.append(inside + (lo[0],))
    if len(lo) > 1:
        out.append(inside[:-1])
    else:
        out.append(inside[0])
        out.append(lo[0] - 1)
    return out


@settings(max_examples=150, deadline=None)
@given(spec=views(), data=st.data())
def test_views_match_reference_translation(spec, data):
    lo, shape, padding, core, segment = spec
    view, buffer = make_view(lo, shape, padding, core, segment)
    assert isinstance(view, SpmBufferView)
    for index in probes(data.draw, lo, shape):
        expected = reference_error(index, lo, shape, core, segment)
        if expected is None:
            key = index if isinstance(index, tuple) else (index,)
            local = tuple(v - l for v, l in zip(key, lo))
            assert view[index] == buffer[local]
            before = buffer.copy()
            view[index] = -1.0
            assert buffer[local] == -1.0
            before[local] = -1.0
            assert np.array_equal(buffer, before)
            continue
        before = buffer.copy()
        with pytest.raises(SpmAccessError) as read:
            view[index]
        assert_same_error(read.value, expected)
        with pytest.raises(SpmAccessError) as write:
            view[index] = -1.0
        assert_same_error(write.value, expected)
        assert np.array_equal(buffer, before)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_every_rank_is_constructed_through_the_public_class(rank):
    lo, shape = (3,) * rank, (2,) * rank
    view = SpmBufferView("X", np.zeros(shape), lo=lo, shape=shape)
    assert isinstance(view, SpmBufferView)
    assert view.name == "X"
    view[lo] = 7.0
    assert view[lo] == 7.0
