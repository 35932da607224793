"""Step kernels: batching and the composed pair step."""

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


def reference_pair_step(amps, damps, cos1, sin1, cos2, sin2, defect, out, dout):
    """Joint (psi, dpsi) step written out in full, as a standalone kernel body."""
    n = amps.shape[0]
    up = cos1 * amps[:, 0] - sin1 * amps[:, 1]
    down = sin1 * amps[:, 0] + cos1 * amps[:, 1]
    phi_up = np.roll(up, 1)
    out[:, 0] = cos2 * phi_up - sin2 * down
    out[:, 1] = np.roll(sin2 * phi_up + cos2 * down, -1)

    dup = cos1 * damps[:, 0] - sin1 * damps[:, 1]
    ddown = sin1 * damps[:, 0] + cos1 * damps[:, 1]
    dphi_up = np.roll(dup, 1)
    dout[:, 0] = cos2 * dphi_up - sin2 * ddown
    dout[:, 1] = np.roll(sin2 * dphi_up + cos2 * ddown, -1)

    c02 = cos2[defect]
    s02 = sin2[defect]
    fu = phi_up[defect]
    fd = down[defect]
    dout[defect, 0] += -0.5 * s02 * fu - 0.5 * c02 * fd
    dout[(defect - 1) % n, 1] += 0.5 * c02 * fu - 0.5 * s02 * fd
    return out, dout


@pytest.mark.parametrize("n", [3, 7, 64, 203])
def test_pair_step_equals_reference_kernel(n):
    rng = np.random.default_rng(n + 1)
    amps, c1, s1, c2, s2 = _random_inputs(n, n)
    damps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    for defect in sorted({0, 1, (n - 1) // 2, n - 1}):
        out, dout = np.empty_like(amps), np.empty_like(amps)
        ref_out, ref_dout = np.empty_like(amps), np.empty_like(amps)
        kernels.split_step_pair(amps, damps, c1, s1, c2, s2, defect, out, dout)
        reference_pair_step(amps, damps, c1, s1, c2, s2, defect, ref_out, ref_dout)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dout, ref_dout)


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_step_on_a_stack_equals_separate_walks(dtype):
    n, walks = 7, 5
    rng = np.random.default_rng(11)
    _, c1, s1, c2, s2 = _random_inputs(n, 12)
    stack = rng.normal(size=(walks, n, 2)).astype(dtype)
    if dtype == np.complex128:
        stack += 1j * rng.normal(size=(walks, n, 2))
    batched = kernels.split_step(stack, c1, s1, c2, s2, np.empty_like(stack))
    for b in range(walks):
        single = kernels.split_step(stack[b], c1, s1, c2, s2, np.empty_like(stack[b]))
        assert np.array_equal(batched[b], single)


def _per_walk_tables(walks, n, seed):
    rng = np.random.default_rng(seed)
    a1 = rng.uniform(-np.pi, np.pi, size=(walks, n))
    a2 = rng.uniform(-np.pi, np.pi, size=(walks, n))
    return np.cos(a1 / 2), np.sin(a1 / 2), np.cos(a2 / 2), np.sin(a2 / 2)


def _complex_stack(walks, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(walks, n, 2)) + 1j * rng.normal(size=(walks, n, 2))


@pytest.mark.parametrize("walks", [1, 3])
def test_step_with_per_walk_tables_equals_separate_walks(walks):
    n = 9
    stack = _complex_stack(walks, n, 21)
    tables = _per_walk_tables(walks, n, 22)
    batched = kernels.split_step(stack, *tables, np.empty_like(stack))
    for b in range(walks):
        row = [t[b : b + 1] for t in tables]
        single = kernels.split_step(stack[b : b + 1], *row, np.empty_like(stack[b : b + 1]))
        assert np.array_equal(batched[b], single[0])


@pytest.mark.parametrize("walks", [1, 3])
@pytest.mark.parametrize("per_walk", [False, True], ids=["shared", "per_walk"])
def test_pair_step_on_a_stack_equals_separate_walks(walks, per_walk):
    n = 11
    stack, dstack = _complex_stack(walks, n, 31), _complex_stack(walks, n, 32)
    if per_walk:
        tables = _per_walk_tables(walks, n, 33)
    else:
        tables = _random_inputs(n, 34)[1:]
    for defect in (0, 1, n // 2, n - 1):
        out, dout = np.empty_like(stack), np.empty_like(stack)
        kernels.split_step_pair(stack, dstack, *tables, defect, out, dout)
        for b in range(walks):
            row = [t[b] for t in tables] if per_walk else tables
            ref_out, ref_dout = np.empty((n, 2), complex), np.empty((n, 2), complex)
            reference_pair_step(stack[b], dstack[b], *row, defect, ref_out, ref_dout)
            assert np.array_equal(out[b], ref_out)
            assert np.array_equal(dout[b], ref_dout)
