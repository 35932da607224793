"""Backend equivalence: numba-compiled kernels against the numpy fallback."""

import os
import subprocess
import sys

import numpy as np
import pytest

from qwsense import kernels


def _random_inputs(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    amps /= np.linalg.norm(amps)
    a1 = rng.uniform(-np.pi, np.pi, size=n)
    a2 = rng.uniform(-np.pi, np.pi, size=n)
    return amps, np.cos(a1 / 2), np.sin(a1 / 2), np.cos(a2 / 2), np.sin(a2 / 2)


@pytest.mark.parametrize("n", [3, 7, 64, 203])
def test_step_backends_agree(n):
    if not kernels.NUMBA_ENABLED:
        pytest.skip("numba backend not active")
    amps, c1, s1, c2, s2 = _random_inputs(n, n)
    out_loops = np.empty_like(amps)
    out_numpy = np.empty_like(amps)
    kernels.split_step_loops(amps, c1, s1, c2, s2, out_loops)
    kernels.split_step_numpy(amps, c1, s1, c2, s2, out_numpy)
    np.testing.assert_allclose(out_loops, out_numpy, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 7, 64, 203])
def test_pair_backends_agree(n):
    if not kernels.NUMBA_ENABLED:
        pytest.skip("numba backend not active")
    rng = np.random.default_rng(n + 1)
    amps, c1, s1, c2, s2 = _random_inputs(n, n)
    damps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    defect = (n - 1) // 2
    out_l, dout_l = np.empty_like(amps), np.empty_like(amps)
    out_n, dout_n = np.empty_like(amps), np.empty_like(amps)
    kernels.split_step_pair_loops(amps, damps, c1, s1, c2, s2, defect, out_l, dout_l)
    kernels.split_step_pair_numpy(amps, damps, c1, s1, c2, s2, defect, out_n, dout_n)
    np.testing.assert_allclose(out_l, out_n, rtol=0, atol=1e-15)
    np.testing.assert_allclose(dout_l, dout_n, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kernel", [kernels.split_step_numpy, kernels.split_step_loops])
@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_step_on_a_stack_equals_separate_walks(kernel, dtype):
    n, walks = 7, 5
    rng = np.random.default_rng(11)
    _, c1, s1, c2, s2 = _random_inputs(n, 12)
    stack = rng.normal(size=(walks, n, 2)).astype(dtype)
    if dtype == np.complex128:
        stack += 1j * rng.normal(size=(walks, n, 2))
    batched = kernel(stack, c1, s1, c2, s2, np.empty_like(stack))
    for b in range(walks):
        single = kernel(stack[b], c1, s1, c2, s2, np.empty_like(stack[b]))
        assert np.array_equal(batched[b], single)


def test_env_flag_selects_numpy_backend():
    env = dict(os.environ, QWSENSE_NO_NUMBA="1")
    code = "from qwsense import kernels; print(kernels.BACKEND)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "numpy"


def test_dispatch_matches_active_backend():
    if kernels.NUMBA_ENABLED:
        assert kernels.split_step is kernels.split_step_loops
        assert kernels.BACKEND == "numba"
    else:
        assert kernels.split_step is kernels.split_step_numpy
        assert kernels.BACKEND == "numpy"
