import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from menf.linalg import definiteness_threshold, frobenius_norms


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 6),
    shape=st.sampled_from([(1,), (7,), (2, 5), (2, 1, 3)]),
    scale=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_threshold_equals_each_matrix_alone(n, shape, scale, seed):
    # the engine's gain guard thresholds a stack, require_spd one matrix:
    # they must agree at the threshold, so the bits must be the same
    G = np.random.default_rng(seed).standard_normal(shape + (n, n)) * 10.0**scale
    X = G @ G.swapaxes(-1, -2)
    flat = X.reshape((-1, n, n))
    stacked = definiteness_threshold(X)
    assert stacked.shape == shape
    assert stacked.reshape(-1).tolist() == [definiteness_threshold(x) for x in flat]
    assert frobenius_norms(X).reshape(-1).tolist() == [float(np.linalg.norm(x)) for x in flat]
