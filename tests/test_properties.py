"""Property tests over drawn inputs (profile in conftest.py: fixed, capped)."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aet2d import BoundarySpec, floor_symmetric_2x2
from aet2d.errors import ParameterError

TWO_PI = 2.0 * math.pi
turns = st.integers(-3, 3).filter(bool)


@given(start=st.floats(-10.0, 10.0), width=st.floats(1e-3, TWO_PI),
       inside=st.floats(1e-6, 1.0 - 1e-6), width2=st.floats(1e-3, 3.0),
       turn=turns)
def test_boundary_spec_rejects_overlap_across_two_pi(start, width, inside,
                                                     width2, turn):
    # the second arc starts inside the first, moved whole turns away, so the
    # two are disjoint on the line and overlap on the circle
    begin = start + inside * width + turn * TWO_PI
    with pytest.raises(ParameterError, match="overlap"):
        BoundarySpec(((start, start + width), (begin, begin + width2)))


@given(start=st.floats(-10.0, 10.0), width=st.floats(1e-3, TWO_PI - 1e-3),
       turn=turns,
       t=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=40))
def test_contains_is_unchanged_by_a_whole_turn(start, width, turn, t):
    t = np.array(t)
    shift = start + turn * TWO_PI
    got = BoundarySpec(((shift, shift + width),)).contains(t)
    want = BoundarySpec(((start, start + width),)).contains(t)
    # the shifted endpoints round differently; compare away from them
    clear = np.ones(t.shape, dtype=bool)
    for end in (start, start + width):
        gap = np.mod(t - end, TWO_PI)
        clear &= np.minimum(gap, TWO_PI - gap) > 1e-9
    assert np.array_equal(got[clear], want[clear])


entry = st.floats(-1e3, 1e3)


@given(floor=st.floats(1e-10, 10.0),
       loose=st.lists(st.tuples(entry, entry, entry), max_size=20),
       above=st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3),
                                st.floats(0.0, math.pi)), min_size=1, max_size=20))
def test_floor_leaves_entries_at_or_above_it_bit_identical(floor, loose, above):
    # `above` composes matrices with both eigenvalues at least the floor;
    # `loose` mixes in arbitrary ones, indefinite included
    low, gap, phi = np.array(above).T
    lo, hi = floor + low, floor + low + gap
    cs, sn = np.cos(phi), np.sin(phi)
    composed = np.column_stack((hi * cs**2 + lo * sn**2, (hi - lo) * cs * sn,
                                hi * sn**2 + lo * cs**2))
    a, b, c = np.vstack((np.array(loose).reshape(-1, 3), composed)).T
    na, nb, nc, mask = floor_symmetric_2x2(a, b, c, floor)
    smallest = np.linalg.eigvalsh(np.stack((np.stack((a, b), -1),
                                            np.stack((b, c), -1)), -2))[:, 0]
    keep = smallest >= floor
    assert not mask[keep].any()
    for new, old in ((na, a), (nb, b), (nc, c)):
        assert np.array_equal(new[keep], old[keep])
