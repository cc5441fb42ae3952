"""Property-based checks of the streamed real Gram assembly (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_dmd import complex_oracle_pair, relative_gap, streamed_pair

BOX = [(-2.0, 2.0), (-1.0, 3.0), (-2.5, 1.5)]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=3)
per_axes = st.integers(min_value=1, max_value=4)


def snapshots(seed, dim, m):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, size=(m, dim))
    y = np.cos(x) + 0.5 * x[:, ::-1]
    return rng, x, y, rng.uniform(0.1, 1.0, size=m)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dim=dims, per_axis=per_axes, m=st.integers(min_value=1, max_value=200))
def test_streamed_pair_is_invariant_under_row_permutation(seed, dim, per_axis, m):
    rng, x, y, w = snapshots(seed, dim, m)
    perm = rng.permutation(m)
    pair = streamed_pair(BOX[:dim], per_axis, 1.0, 1 + 1j, x, y, w)
    permuted = streamed_pair(BOX[:dim], per_axis, 1.0, 1 + 1j, x[perm], y[perm], w[perm])
    assert relative_gap(permuted.g, pair.g) <= 1e-13
    assert relative_gap(permuted.a, pair.a) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    dim=dims,
    per_axis=per_axes,
    amp_re=st.floats(min_value=-3.0, max_value=3.0),
    amp_im=st.floats(min_value=-3.0, max_value=3.0),
    width=st.floats(min_value=0.05, max_value=5.0),
)
def test_streamed_pair_matches_complex_oracle(seed, dim, per_axis, amp_re, amp_im, width):
    amp = complex(amp_re, amp_im)
    if abs(amp) < 1e-3:
        amp = 1.0 + amp
    _, x, y, w = snapshots(seed, dim, 150)
    pair = streamed_pair(BOX[:dim], per_axis, width, amp, x, y, w)
    oracle = complex_oracle_pair(BOX[:dim], per_axis, width, amp, x, y, w)
    assert relative_gap(pair.g, oracle.g) <= 1e-13
    assert relative_gap(pair.a, oracle.a) <= 1e-13
