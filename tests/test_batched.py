"""The element-wise kernels broadcast over leading axes: row k of a kernel
applied to a (K, 2, 2) stack is that kernel applied to element k alone."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_state
from qubitcone.adjoint import _psi
from qubitcone.correspond import completeness_deviation, measurement
from qubitcone.qmat import _coords, _gram


def random_stack(k, seed):
    """K random elements at scales spread over ten decades."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-5, 5, size=(k, 1, 1))
    return scales * (rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))), rng


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_batched_kernels_equal_stacked_scalar_calls(k, seed):
    stack, rng = random_stack(k, seed)
    rho = rand_state(rng)
    for kernel in [_coords, _gram, _psi, lambda m: _psi(m) @ _coords(rho)]:
        batched = kernel(stack)
        assert batched.shape[0] == k
        for i in range(k):
            assert np.array_equal(batched[i], kernel(stack[i]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_completeness_deviation_equals_elementwise_sum(k, seed):
    stack, _ = random_stack(k, seed)
    total = sum(m.conj().T @ m for m in stack)
    assert completeness_deviation(measurement(stack)) == np.max(np.abs(total - np.eye(2)))
