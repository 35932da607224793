"""Step kernels: batching, the defect coin and the composed pair step.

The references step on full per-site tables that hold the defect coin at the
defect, as the kernels once took them; the kernels step on the bulk coins,
which broadcast against the site axis, and apply the defect coin as a
two-cell update.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsense import kernels
from qwsense.walk import CoinField, half_angle


def full_angles(params, field=None):
    """Reference: a walk's per-site angles, batch + (N,), with theta02 at the defect.

    ``field`` defaults to the clean walk of ``params``; its angles broadcast
    to every site.
    """
    field = CoinField.from_params(params) if field is None else field
    a1, a2 = (np.empty(field.batch + (params.lattice_size,)) for _ in range(2))
    a1[...], a2[...] = field.angles1, field.angles2
    a2[..., params.defect_index] = params.theta02
    return a1, a2


def full_tables(params, field=None):
    """Reference: the per-site half-angle tables of ``full_angles``, defect coin included."""
    a1, a2 = full_angles(params, field)
    return np.cos(0.5 * a1), np.sin(0.5 * a1), np.cos(0.5 * a2), np.sin(0.5 * a2)


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


def separate_pair_step(amps, damps, cos1, sin1, cos2, sin2, defect, out, dout):
    """Reference: psi and dpsi stepped by separate ``split_step`` calls, then the
    defect term read and added with 0-d array arithmetic (``...`` indexing)."""
    kernels.split_step(amps, cos1, sin1, cos2, sin2, out)
    kernels.split_step(damps, cos1, sin1, cos2, sin2, dout)
    c02 = cos2[..., defect]
    s02 = sin2[..., defect]
    left, here = amps[..., defect - 1, :], amps[..., defect, :]
    fu = cos1[..., defect - 1] * left[..., 0] - sin1[..., defect - 1] * left[..., 1]
    fd = sin1[..., defect] * here[..., 0] + cos1[..., defect] * here[..., 1]
    dout[..., defect, 0] += -0.5 * s02 * fu - 0.5 * c02 * fd
    dout[..., defect - 1, 1] += 0.5 * c02 * fu - 0.5 * s02 * fd
    return out, dout


def stacked_pair_step(amps, damps, cos1, sin1, cos2, sin2, defect):
    """``split_step_pair`` on psi and dpsi stacked into one buffer, with full tables and
    the defect coin read from them; (out, dout) views."""
    out = kernels.split_step_pair(np.stack((amps, damps)), cos1, sin1, cos2, sin2, defect,
                                  cos2[..., defect], sin2[..., defect],
                                  np.empty((2,) + amps.shape, amps.dtype))
    return out[0], out[1]


@pytest.mark.parametrize("n", [3, 7, 64, 203])
def test_pair_step_equals_reference_kernel(n):
    rng = np.random.default_rng(n + 1)
    amps, c1, s1, c2, s2 = _random_inputs(n, n)
    damps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    for defect in sorted({0, 1, (n - 1) // 2, n - 1}):
        ref_out, ref_dout = np.empty_like(amps), np.empty_like(amps)
        out, dout = stacked_pair_step(amps, damps, c1, s1, c2, s2, defect)
        reference_pair_step(amps, damps, c1, s1, c2, s2, defect, ref_out, ref_dout)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dout, ref_dout)


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float64, np.complex128]),
    n=st.integers(1, 40).map(lambda k: 2 * k + 1),
    tables=st.sampled_from(["single", "shared", "per_walk"]),
    walks=st.integers(1, 3),
    defect=st.sampled_from(["first", "second", "centre", "last"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_pair_step_equals_separate_pair_step(dtype, n, tables, walks, defect, seed):
    # "single": one (N, 2) walk; "shared": B walks on one (N,) table set;
    # "per_walk": B walks on (B, N) tables
    rng = np.random.default_rng(seed)
    batch = () if tables == "single" else (walks,)
    stack = rng.normal(size=(2,) + batch + (n, 2))
    if dtype == np.complex128:
        stack = stack + 1j * rng.normal(size=stack.shape)
    amps, damps = stack
    angles = rng.uniform(-np.pi, np.pi, size=(2,) + (batch if tables == "per_walk" else ()) + (n,))
    c1, c2 = np.cos(angles / 2)
    s1, s2 = np.sin(angles / 2)
    defect = {"first": 0, "second": 1, "centre": (n - 1) // 2, "last": n - 1}[defect]
    ref_out, ref_dout = np.empty_like(amps), np.empty_like(amps)
    separate_pair_step(amps, damps, c1, s1, c2, s2, defect, ref_out, ref_dout)
    out, dout = stacked_pair_step(amps, damps, c1, s1, c2, s2, defect)
    assert out.dtype == dout.dtype == dtype
    assert out.shape == ref_out.shape and out.tobytes() == ref_out.tobytes()
    assert dout.shape == ref_dout.shape and dout.tobytes() == ref_dout.tobytes()


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
        out, dout = stacked_pair_step(stack, dstack, *tables, defect)
        for b in range(walks):
            row = [t[b] for t in tables] if per_walk else tables
            ref_out, ref_dout = np.empty((n, 2), complex), np.empty((n, 2), complex)
            reference_pair_step(stack[b], dstack[b], *row, defect, ref_out, ref_dout)
            assert np.array_equal(out[b], ref_out)
            assert np.array_equal(dout[b], ref_dout)


@pytest.mark.parametrize("kernel", ["split_step", "split_step_pair"])
@pytest.mark.parametrize("tables", ["single", "shared", "per_walk"])
def test_real_stack_steps_to_the_real_parts_of_the_complex_stack(kernel, tables):
    # every coin and shift is real, so the imaginary parts never reach the real
    # ones: a float64 stack's step is the real part of the complex stack's
    n, walks = 13, 3
    rng = np.random.default_rng(41)
    batch = () if tables == "single" else (walks,)
    shape = ((2,) if kernel == "split_step_pair" else ()) + batch + (n, 2)
    real = rng.normal(size=shape)
    full = real + 1j * rng.normal(size=shape)
    angles = rng.uniform(-np.pi, np.pi, size=(2,) + (batch if tables == "per_walk" else ()) + (n,))
    cos2, sin2 = np.cos(angles[1] / 2), np.sin(angles[1] / 2)
    args = (np.cos(angles[0] / 2), np.sin(angles[0] / 2), cos2, sin2) + (
        (n // 2, cos2[..., n // 2], sin2[..., n // 2]) if kernel == "split_step_pair" else ())
    step = getattr(kernels, kernel)
    out = step(real, *args, np.empty_like(real))
    assert out.dtype == np.float64
    assert np.array_equal(out, step(full, *args, np.empty_like(full)).real)


@settings(max_examples=100, deadline=None)
@given(
    dtype=st.sampled_from([np.float64, np.complex128]),
    n=st.integers(1, 25).map(lambda k: 2 * k + 1),
    shape=st.sampled_from(["single", "batched", "candidates"]),
    walks=st.integers(1, 4),
    defect=st.sampled_from(["first", "second", "centre", "last"]),
    margin=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_broadcast_coins_and_defect_update_equal_the_full_table_reference(
        dtype, n, shape, walks, defect, margin, seed):
    # "single": one walk on float coins; "batched": B walks on (B, 1) columns and
    # one defect coin; "candidates": C walks on float bulk coins, each with its own
    # (C,) defect coin, stepped through the (C, N, 2) view of an (N, 2, C) stack.
    # With a margin the step runs on rows [margin, margin + N) of a larger,
    # non-zero buffer, as on a backward-diamond window, whose wrap reads across
    # the window's edges.
    rng = np.random.default_rng(seed)
    batch = () if shape == "single" else (walks,)
    bulk = rng.uniform(-np.pi, np.pi, size=(2,) + ((walks, 1) if shape == "batched" else ()))
    theta02 = rng.uniform(-np.pi, np.pi, size=(walks,) if shape == "candidates" else ())
    c1, s1, c2, s2 = CoinField(*bulk).half_angle_tables()
    c02, s02 = half_angle(theta02)
    if shape == "single":
        assert all(type(coin) is float for coin in (c1, s1, c2, s2, c02, s02))
    rows = slice(margin, margin + n)
    defect = {"first": 0, "second": 1, "centre": (n - 1) // 2, "last": n - 1}[defect]

    def amplitudes(size):
        amps = rng.normal(size=size)
        return amps + 1j * rng.normal(size=size) if dtype == np.complex128 else amps

    if shape == "candidates":
        psi = amplitudes((n + 2 * margin, 2, walks)).transpose(2, 0, 1)[:, rows]
        pair = None
    else:
        pair = amplitudes((2,) + batch + (n + 2 * margin, 2))[..., rows, :]
        psi = pair[0]
    out = kernels.split_step(psi, c1, s1, c2, s2, np.empty_like(psi))
    kernels.defect_coin(psi, c1, s1, defect, c02, s02, out)
    pair_out = None if pair is None else kernels.split_step_pair(
        pair, c1, s1, c2, s2, defect, c02, s02, np.empty_like(pair))
    for walk in np.ndindex(batch):
        row = walk if shape == "batched" else ()
        a1, a2 = np.full(n, bulk[(0,) + row]), np.full(n, bulk[(1,) + row])
        a2[defect] = theta02[walk if shape == "candidates" else ()]
        tables = np.cos(0.5 * a1), np.sin(0.5 * a1), np.cos(0.5 * a2), np.sin(0.5 * a2)
        dpsi = np.zeros_like(psi[walk]) if pair is None else pair[1][walk]
        ref_out, ref_dout = np.empty_like(psi[walk]), np.empty_like(psi[walk])
        reference_pair_step(psi[walk], dpsi, *tables, defect, ref_out, ref_dout)
        assert out[walk].dtype == dtype and out[walk].tobytes() == ref_out.tobytes()
        if pair_out is not None:
            assert pair_out[0][walk].tobytes() == ref_out.tobytes()
            assert pair_out[1][walk].tobytes() == ref_dout.tobytes()
