"""Property-based tests for the labelled data container."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.data.dataset import FairnessDataset


@given(labels=st.one_of(
    st.lists(st.just(3), min_size=1, max_size=50),
    st.lists(st.integers(0, 5), min_size=1, max_size=300),
    st.lists(st.integers(2**40 - 3, 2**40 + 3), min_size=1, max_size=300)))
def test_distinct_labels_match_np_unique(labels):
    # u_values / s_values sort instead of calling np.unique; the result
    # must be the same array, dtype included: one group, many groups,
    # and labels too large for a dense bincount.
    u = np.asarray(labels)
    data = FairnessDataset(np.zeros((u.size, 1)), u % 2, u)
    for got, expected in ((data.u_values, np.unique(data.u)),
                          (data.s_values, np.unique(data.s))):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
