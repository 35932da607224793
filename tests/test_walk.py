"""Walk core: one-step unitary, exact derivative propagation.

The oracles here are built independently of the production sweeps: a dense
operator assembled from Kronecker products of shift and coin blocks, a
momentum-space reconstruction through the FFT, and central finite
differences for every derivative claim.  Properties of one step on any
state are checked on the step kernels with arbitrary stacks; every walk
starts at |-1, down>, and the walk tests draw angles, sizes, horizons and
coin fields around that one start.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import full_angles, full_tables, separate_pair_step

from qwsense import kernels
from qwsense.bayes import candidate_probability_table, defect_probability_series
from qwsense.disorder import DYNAMIC, STATIC, DisorderSpec, sample_disorder
from qwsense.metrology import fisher_at_defect
from qwsense.walk import (
    CoinField,
    WalkParams,
    half_angle,
    light_cone,
    propagate,
)

PI = math.pi


def rotation(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def dense_step_operator(angles1, angles2):
    """2N x 2N matrix of T_down C2 T_up C1 from Kronecker-structured blocks."""
    n = len(angles1)
    shift_up = np.roll(np.eye(n), 1, axis=0)  # |x+1><x|
    shift_down = np.roll(np.eye(n), -1, axis=0)  # |x-1><x|
    p_up = np.diag([1.0, 0.0])
    p_down = np.diag([0.0, 1.0])
    t_up = np.kron(shift_up, p_up) + np.kron(np.eye(n), p_down)
    t_down = np.kron(shift_down, p_down) + np.kron(np.eye(n), p_up)

    def coin_layer(angles):
        mat = np.zeros((2 * n, 2 * n))
        for i, a in enumerate(angles):
            mat[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation(a)
        return mat

    return t_down @ coin_layer(angles2) @ t_up @ coin_layer(angles1)


def dense_step_derivative(angles1, angles2, defect_idx):
    """d/dtheta02 of the dense step: T_down dC2 T_up C1, dC2 nonzero at defect."""
    n = len(angles1)
    shift_up = np.roll(np.eye(n), 1, axis=0)
    shift_down = np.roll(np.eye(n), -1, axis=0)
    t_up = np.kron(shift_up, np.diag([1.0, 0.0])) + np.kron(np.eye(n), np.diag([0.0, 1.0]))
    t_down = np.kron(shift_down, np.diag([0.0, 1.0])) + np.kron(np.eye(n), np.diag([1.0, 0.0]))
    c1 = np.zeros((2 * n, 2 * n))
    for i, a in enumerate(angles1):
        c1[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation(a)
    theta = angles2[defect_idx]
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    d_rot = 0.5 * np.array([[-s, -c], [c, -s]])
    dc2 = np.zeros((2 * n, 2 * n))
    dc2[2 * defect_idx : 2 * defect_idx + 2, 2 * defect_idx : 2 * defect_idx + 2] = d_rot
    return t_down @ dc2 @ t_up @ c1


def start_grid(n):
    """Reference: the complex (N, 2) start |-1, down>, from physical position x = -1."""
    grid = np.zeros((n, 2), dtype=np.complex128)
    grid[-1 + (n - 1) // 2, 1] = 1.0
    return grid


def random_stack(shape, rng, dtype=np.complex128):
    """Arbitrary amplitudes of the given (..., N, 2) shape, not normalized."""
    amps = rng.normal(size=shape)
    if dtype == np.complex128:
        amps = amps + 1j * rng.normal(size=shape)
    return amps


def kernel_step(amps, params, coins=None):
    """One step of an arbitrary (..., N, 2) stack: ``kernels.split_step`` on the bulk
    ``coins`` (the clean ones of ``params`` by default), then ``kernels.defect_coin``
    with ``params.theta02``."""
    coins = CoinField.from_params(params) if coins is None else coins
    cos1, sin1, cos2, sin2 = coins.half_angle_tables()
    out = kernels.split_step(amps, cos1, sin1, cos2, sin2, np.empty_like(amps))
    kernels.defect_coin(amps, cos1, sin1, params.defect_index, *half_angle(params.theta02), out)
    return out


def nontrivial(n):
    return WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, n)


# --- one step: the kernels on arbitrary stacks -----------------------------


def test_identity_coins_shift_down_left():
    rng = np.random.default_rng(1)
    amps = random_stack((3, 9, 2), rng)
    out = kernel_step(amps, WalkParams(0.0, 0.0, 0.0, 9))
    np.testing.assert_array_equal(out[..., 1], np.roll(amps[..., 1], -1, axis=-1))


def test_identity_coins_shift_up_right():
    rng = np.random.default_rng(2)
    amps = random_stack((3, 9, 2), rng)
    out = kernel_step(amps, WalkParams(0.0, 0.0, 0.0, 9))
    np.testing.assert_array_equal(out[..., 0], np.roll(amps[..., 0], 1, axis=-1))


@pytest.mark.parametrize("n", [5, 7])
def test_dense_operator_equivalence(n):
    params = WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, n)
    dense = dense_step_operator(*full_angles(params))
    # elementwise: step every basis vector, as one stack of 2N walks
    for dtype in (np.float64, np.complex128):
        basis = np.eye(2 * n, dtype=dtype).reshape(2 * n, n, 2)
        columns = kernel_step(basis, params).reshape(2 * n, 2 * n)
        np.testing.assert_allclose(columns.T, dense, atol=1e-12)


def test_dense_oracle_random_input():
    rng = np.random.default_rng(3)
    n = 5
    params = WalkParams(1.1, -0.7, 2.4, n)
    dense = dense_step_operator(*full_angles(params))
    amps = random_stack((4, n, 2), rng)
    amps /= np.linalg.norm(amps.reshape(4, -1), axis=-1)[:, np.newaxis, np.newaxis]
    out = kernel_step(amps, params).reshape(4, -1)
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out, amps.reshape(4, -1) @ dense.T, atol=1e-12)


def test_step_preserves_norm():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 2 * rng.integers(2, 30) + 1
        coins = CoinField(rng.uniform(-PI, PI, size=(3, n)), rng.uniform(-PI, PI, size=(3, n)))
        for dtype in (np.float64, np.complex128):
            amps = random_stack((3, n, 2), rng, dtype)
            out = kernel_step(amps, nontrivial(n), coins)
            np.testing.assert_allclose(np.linalg.norm(out.reshape(3, -1), axis=-1),
                                       np.linalg.norm(amps.reshape(3, -1), axis=-1), rtol=1e-12)


def test_step_rejects_mismatched_field():
    coins = CoinField(np.full(11, 0.1), np.full(11, 0.2))
    with pytest.raises(ValueError):
        list(propagate(nontrivial(9), 1, coins))


# --- derivative propagation ----------------------------------------------


def test_initial_derivative_is_du_psi():
    n = 9
    params = nontrivial(n)
    *_, (_, dpsi, _) = propagate(params, 1, CoinField.from_params(params), derivative=True)
    du = dense_step_derivative(*full_angles(params), params.defect_index)
    np.testing.assert_allclose(dpsi.reshape(-1), du @ start_grid(n).reshape(-1), atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    angles=st.tuples(*[st.floats(-0.95 * PI, 0.95 * PI)] * 3),
    steps=st.integers(1, 50),
    margin=st.integers(0, 5),
)
def test_derivative_matches_finite_difference(angles, steps, margin):
    h = 1e-6
    n = 2 * steps + 3 + 2 * margin
    params = WalkParams(*angles, n)
    *_, (_, dpsi, _) = propagate(params, steps, derivative=True)
    *_, plus = propagate(replace(params, theta02=params.theta02 + h), steps)
    *_, minus = propagate(replace(params, theta02=params.theta02 - h), steps)
    fd = (plus - minus).reshape(-1) / (2 * h)
    scale = max(np.linalg.norm(fd), 1e-8)
    assert np.linalg.norm(dpsi.reshape(-1) - fd) / scale < 1e-6


def test_derivative_zero_before_wavefront_arrives():
    # the defect coin reads rows defect - 1 and defect: while psi is zero
    # there, a pair step leaves a zero derivative zero
    rng = np.random.default_rng(5)
    n, defect = 21, 10
    for dtype in (np.float64, np.complex128):
        psi = random_stack((3, n, 2), rng, dtype)
        psi[:, defect - 1 : defect + 1] = 0.0
        pair = np.stack((psi, np.zeros_like(psi)))
        params = nontrivial(n)
        out = kernels.split_step_pair(pair, *CoinField.from_params(params).half_angle_tables(),
                                      defect, *half_angle(params.theta02), np.empty_like(pair))
        assert np.array_equal(out[1], np.zeros_like(psi))
        assert out[0].any()


def test_derivative_tangent_to_unit_sphere():
    params = nontrivial(41)
    coins = CoinField.from_params(params)
    for psi, dpsi, _ in propagate(params, 19, coins, derivative=True):
        overlap = np.vdot(psi, dpsi)
        assert abs(overlap.real) < 1e-10


# --- evolution ------------------------------------------------------------


def test_evolve_zero_steps():
    series = [psi.copy() for psi in propagate(nontrivial(9), 0)]
    assert len(series) == 1
    assert series[0].dtype == np.float64
    assert np.array_equal(series[0], start_grid(9))
    (psi, dpsi, _), = propagate(nontrivial(9), 0, derivative=True)
    assert np.array_equal(psi, start_grid(9))
    assert not dpsi.any()


def momentum_evolve(grid, theta1, theta2, steps):
    """FFT to momentum blocks, advance each band's phase, transform back."""
    n = grid.shape[0]
    ft = np.fft.fft(grid, axis=0)
    k = 2 * PI * np.arange(n) / n
    r1, r2 = rotation(theta1), rotation(theta2)
    out = np.empty_like(ft)
    for m in range(n):
        t_up = np.diag([np.exp(-1j * k[m]), 1.0])
        t_down = np.diag([1.0, np.exp(1j * k[m])])
        u_k = t_down @ r2 @ t_up @ r1
        evals, evecs = np.linalg.eig(u_k)
        coeff = np.linalg.solve(evecs, ft[m])
        out[m] = evecs @ (evals**steps * coeff)
    return np.fft.ifft(out, axis=0).reshape(-1)


@pytest.mark.parametrize("theta1,theta2", [(0.6 * PI, 0.6 * PI), (0.9 * PI, 0.75 * PI)])
def test_evolve_momentum_space_oracle(theta1, theta2, n=32, steps=17):
    n = n + 1  # odd lattice
    params = WalkParams(theta1, theta2, theta2, n)  # no defect
    *_, last = propagate(params, steps)
    expected = momentum_evolve(start_grid(n), theta1, theta2, steps)
    np.testing.assert_allclose(last.reshape(-1), expected, atol=1e-10)


def test_defect_neutral_walk_is_bit_exact():
    n = 31
    params = WalkParams(0.9 * PI, 0.75 * PI, 0.75 * PI, n)  # theta02 == theta2
    uniform = CoinField(np.full(n, params.theta1), np.full(n, params.theta2))
    psi = start_grid(n)
    for expected in itertools.islice(propagate(params, 12), 1, None):
        psi = kernels.split_step(psi, *uniform.half_angle_tables(), np.empty_like(psi))
        assert np.array_equal(psi, expected)


def test_light_cone_support_is_exactly_zero():
    # the walk starts at x = -1 and moves at most one site per step
    rng = np.random.default_rng(6)
    n = 61
    offset = (n - 1) // 2
    for _ in range(5):
        steps = int(rng.integers(1, 12))
        params = WalkParams(*rng.uniform(-PI, PI, size=3), n)
        *_, (final, dfinal, _) = propagate(params, steps, derivative=True)
        for x in range(-offset, offset + 1):
            if abs(x + 1) > steps:
                assert not final[x + offset].any()
                assert not dfinal[x + offset].any()


def test_evolve_negative_steps_rejected():
    with pytest.raises(ValueError):
        next(propagate(nontrivial(9), -1))


# --- streaming propagation -------------------------------------------------


def _bad_steps(params):
    return -1, None


def _bad_field(params):
    fields = [CoinField.from_params(params)] * 4
    fields.append(CoinField(*full_angles(nontrivial(params.lattice_size + 2))))
    return 5, fields


def _bad_first_field(params):
    return 5, [CoinField(*full_angles(nontrivial(params.lattice_size + 2)))] * 5


def _mixed_batch(params):
    clean = CoinField.from_params(params)
    return 5, [CoinField.stack([clean, clean])] * 4 + [clean]


def _short_iterator(params):
    return 5, iter([CoinField.from_params(params)] * 4)


@pytest.mark.parametrize("series", [defect_probability_series, fisher_at_defect])
@pytest.mark.parametrize("inputs, message", [
    (_bad_steps, "steps must be"),
    (_bad_field, "coin field length"),
    (_bad_first_field, "coin field length"),
    (_mixed_batch, "share one batch shape"),
    (_short_iterator, "need 5 per-step coin fields, got 4"),
])
def test_streamed_series_reject_mismatched_inputs(series, inputs, message):
    params = nontrivial(13)
    steps, fields = inputs(params)
    with pytest.raises(ValueError, match=message):
        series(params, steps, fields)


def test_streamed_pair_equals_single_step_pairs():
    # one pair step is (U psi, U dpsi + (dU) psi); the pair kernel on
    # (psi, 0) gives U psi and (dU) psi, the step kernel U dpsi
    n = 31
    params = nontrivial(n)
    tables = CoinField.from_params(params).half_angle_tables()
    psi, dpsi = start_grid(n), np.zeros((n, 2), dtype=np.complex128)
    for t, (streamed, dstreamed, _) in enumerate(propagate(params, 12, derivative=True)):
        if t:
            pair = np.stack((psi, np.zeros_like(psi)))
            stepped, du_psi = kernels.split_step_pair(pair, *tables, params.defect_index,
                                                      *half_angle(params.theta02),
                                                      np.empty_like(pair))
            u_dpsi = kernel_step(dpsi, params)
            psi, dpsi = stepped, u_dpsi + du_psi
        assert np.array_equal(streamed, psi)
        assert np.array_equal(dstreamed, dpsi)


@settings(max_examples=25, deadline=None)
@given(
    angles=st.tuples(*[st.floats(-PI, PI)] * 3),
    steps=st.integers(0, 40),
    margin=st.integers(0, 5),
)
def test_propagation_stays_unitary_and_tangent(angles, steps, margin):
    n = 2 * steps + 3 + 2 * margin
    params = WalkParams(*angles, n)
    for psi, dpsi, _ in propagate(params, steps, derivative=True):
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert abs(np.vdot(psi, dpsi).real) <= 1e-12


def step_fields(params, steps, coin_fields=None):
    """Reference: the list of ``steps`` fields a clean, static or per-step run walks."""
    if coin_fields is None:
        coin_fields = CoinField.from_params(params)
    if isinstance(coin_fields, CoinField):
        return [coin_fields] * steps
    return list(coin_fields)[:steps]


def full_ring_walk(params, steps, coin_fields=None):
    """Reference: the complex walk from the start, every step on the whole ring
    into fresh arrays, no window."""
    fields = step_fields(params, steps, coin_fields)
    batch = fields[0].batch if fields else ()
    psi = np.zeros(batch + (params.lattice_size, 2), dtype=np.complex128)
    psi[...] = start_grid(params.lattice_size)
    dpsi = np.zeros_like(psi)
    yield psi, dpsi
    for field in fields:
        out, dout = np.empty_like(psi), np.empty_like(psi)
        separate_pair_step(psi, dpsi, *full_tables(params, field), params.defect_index, out, dout)
        psi, dpsi = out, dout
        yield psi, dpsi


def _assert_walks_equal(params, steps, coin_fields=None):
    reference = list(full_ring_walk(params, steps, coin_fields))
    pairs = propagate(params, steps, coin_fields, derivative=True)
    windows = light_cone(params)
    for (psi, dpsi, rows), (ref, dref) in zip(pairs, reference, strict=True):
        assert rows == next(windows)
        assert np.array_equal(psi, ref)
        assert np.array_equal(dpsi, dref)
    states = propagate(params, steps, coin_fields)
    for psi, (ref, _) in zip(states, reference, strict=True):
        assert np.array_equal(psi, ref)


@st.composite
def drawn_fields(draw, n, steps):
    """None (the clean walk), or random fields: one for every step or one per
    step, each uniform, () or (B, 1), or per site, (N,) or (B, N)."""
    kind = draw(st.sampled_from(["clean", "static", "dynamic"]))
    if kind == "clean":
        return None
    walks = draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(), (n,), (walks, 1), (walks, n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field():
        return CoinField(rng.uniform(-PI, PI, shape), rng.uniform(-PI, PI, shape))

    return field() if kind == "static" else [field() for _ in range(steps)]


# rings of 3..31 sites
SIZES = st.integers(1, 15).map(lambda k: 2 * k + 1)


@settings(max_examples=40, deadline=None)
@given(n=SIZES, angles=st.tuples(*[st.floats(-PI, PI)] * 3), extra=st.integers(0, 40),
       data=st.data())
def test_windowed_walk_equals_full_ring_walk(n, angles, extra, data):
    # up to 40 steps past a ring-covering cone, so the walk wraps around
    steps = n // 2 + extra
    fields = data.draw(drawn_fields(n, steps))
    _assert_walks_equal(WalkParams(*angles, n), steps, fields)


def test_windowed_walk_equals_full_ring_walk_under_disorder():
    n, steps = 31, 40
    params = nontrivial(n)
    static = sample_disorder(DisorderSpec(STATIC, 0.2, 1, 3), params, 0)
    dynamic = sample_disorder(DisorderSpec(DYNAMIC, 0.2, 1, 4), params, 0, steps=steps)
    for fields in (static, dynamic):
        _assert_walks_equal(params, steps, fields)


@settings(max_examples=60, deadline=None)
@given(n=SIZES, angles=st.tuples(*[st.floats(-PI, PI)] * 3), steps=st.integers(1, 40),
       data=st.data())
def test_diamond_walk_keeps_the_full_ring_walks_defect_row(n, angles, steps, data):
    # the cone often wraps these rings; on the others the walk cuts the ring
    # to the 2 (steps // 2) + 3 rows around the defect that hold its diamond
    params = WalkParams(*angles, n)
    fields = data.draw(drawn_fields(n, steps))
    defect = params.defect_index
    reference = list(full_ring_walk(params, steps, fields))
    pairs = propagate(params, steps, fields, derivative=True, defect_only=True)
    for (psi, dpsi), (ref, dref) in zip(pairs, reference, strict=True):
        assert psi.shape == dpsi.shape == ref.shape[:-2] + (2,)
        assert np.array_equal(psi, ref[..., defect, :])
        assert np.array_equal(dpsi, dref[..., defect, :])
    states = propagate(params, steps, fields, defect_only=True)
    for psi, (ref, _) in zip(states, reference, strict=True):
        assert psi.shape == ref.shape[:-2] + (2,)
        assert np.array_equal(psi, ref[..., defect, :])


@settings(max_examples=60, deadline=None)
@given(n=SIZES, horizon=st.integers(0, 40))
def test_light_cone_horizon_narrows_one_row_per_side_once_backward_bound(n, horizon):
    params = WalkParams(0.0, 0.0, 0.0, n)
    defect = params.defect_index
    windows = list(light_cone(params, horizon))
    forward = list(itertools.islice(light_cone(params), horizon + 1))
    assert len(windows) == horizon + 1
    # the forward window: the start row and the defect, widened by t and one zero row per side
    for t, rows in enumerate(forward):
        lo, hi = defect - 2 - t, defect + 2 + t
        assert rows == (slice(lo, hi) if lo >= 0 and hi <= n else slice(0, n))
    backward_bound = [rows != ahead for rows, ahead in zip(windows, forward)]
    # forward windows while they fit inside the backward ones, backward ones after
    assert backward_bound == sorted(backward_bound)
    for t, rows in enumerate(windows):
        reach = horizon - t
        if backward_bound[t]:
            assert rows == slice(defect - reach, defect + reach + 1)
            assert 0 <= rows.start and rows.stop <= n
            if t < horizon:
                assert windows[t + 1] == slice(rows.start + 1, rows.stop - 1)
        else:  # inside the backward window, or that one spills off the ring
            lo, hi = defect - reach, defect + reach + 1
            assert lo <= rows.start and rows.stop <= hi or lo < 0 or hi > n
        if t < horizon:  # a step reads the defect's neighbours
            assert rows.start < defect < rows.stop - 1
    assert windows[-1] == slice(defect, defect + 1)


@pytest.mark.parametrize("start, dtype", [("real", np.float64)])
@pytest.mark.parametrize("n", [51, 15])  # 15 sites: the cone covers the ring and the walk wraps
def test_real_start_steps_real_buffers(start, dtype, n):
    params = nontrivial(n)
    steps = 24
    reference = list(full_ring_walk(params, steps))
    for derivative in (True, False):
        walk = propagate(params, steps, derivative=derivative)
        for got, (ref, dref) in zip(walk, reference, strict=True):
            psi, dpsi, _ = got if derivative else (got, None, None)
            assert psi.dtype == dtype
            assert np.array_equal(psi, ref)
            if derivative:
                assert dpsi.dtype == dtype
                assert np.array_equal(dpsi, dref)


@settings(max_examples=40, deadline=None)
@given(n=SIZES, angles=st.tuples(*[st.floats(-PI, PI)] * 3), steps=st.integers(0, 40),
       data=st.data())
def test_drawn_walks_step_real_buffers(n, angles, steps, data):
    # the start and every coin and shift are real: every mode steps float64
    params = WalkParams(*angles, n)
    fields = data.draw(drawn_fields(n, steps))
    for derivative, defect_only in itertools.product((False, True), repeat=2):
        for got in propagate(params, steps, fields, derivative, defect_only):
            for buffer in got[:2] if derivative else (got,):
                assert buffer.dtype == np.float64


def test_iterator_of_fields_walks_like_the_list():
    n, steps = 31, 20
    params = nontrivial(n)
    fields = sample_disorder(DisorderSpec(DYNAMIC, 0.2, 1, 4), params, 0, steps=steps)
    listed = propagate(params, steps, fields, derivative=True)
    streamed = propagate(params, steps, iter(fields + fields[:3]), derivative=True)
    for (psi, dpsi, _), (ref, dref, _) in zip(streamed, listed, strict=True):
        assert np.array_equal(psi, ref)
        assert np.array_equal(dpsi, dref)


def _batch_fields(kind, params, walks, steps):
    if kind == "clean":
        thetas = np.linspace(-0.9 * PI, 0.8 * PI, walks)
        return [CoinField.from_params(replace(params, theta1=t)) for t in thetas]
    spec = DisorderSpec(kind, 0.1 * PI, walks, 8)
    return [sample_disorder(spec, params, r, steps) for r in range(walks)]


@pytest.mark.parametrize("kind", ["clean", STATIC, DYNAMIC])
@pytest.mark.parametrize("walks", [1, 3])
def test_batched_walk_equals_serial_walks(kind, walks):
    n, steps = 41, 30
    params = nontrivial(n)
    serial = _batch_fields(kind, params, walks, steps)
    if kind == DYNAMIC:
        batched = [CoinField.stack(step) for step in zip(*serial)]
    else:
        batched = CoinField.stack(serial)
    runs = [list(full_ring_walk(params, steps, f)) for f in serial]
    pairs = propagate(params, steps, batched, derivative=True)
    for t, (psi, dpsi, _) in enumerate(pairs):
        assert psi.shape == (walks, n, 2)
        for b, run in enumerate(runs):
            assert np.array_equal(psi[b], run[t][0])
            assert np.array_equal(dpsi[b], run[t][1])
    series = defect_probability_series(params, steps, batched)
    for b, fields in enumerate(serial):
        assert np.array_equal(series[:, b], defect_probability_series(params, steps, fields))
    if kind != DYNAMIC:  # a lone field keeps its batch axis when no step runs
        assert next(propagate(params, 0, batched)).shape == (walks, n, 2)
        assert np.array_equal(defect_probability_series(params, 0, batched), series[:1])


# --- parameter validation ---------------------------------------


def test_params_keep_angles_as_written_and_validate():
    p = WalkParams(2.2 * PI, -1.2 * PI, 4.5 * PI, 9)
    assert (p.theta1, p.theta2, p.theta02) == (2.2 * PI, -1.2 * PI, 4.5 * PI)
    with pytest.raises(ValueError):
        WalkParams(0.1, 0.2, 0.3, 8)  # even
    with pytest.raises(ValueError):
        WalkParams(0.1, 0.2, 0.3, 1)  # too small


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "x", None])
def test_params_reject_a_nonfinite_angle(bad):
    for angles in ((bad, 0.2, 0.3), (0.1, bad, 0.3), (0.1, 0.2, bad)):
        with pytest.raises(ValueError, match="angle must be"):
            WalkParams(*angles, 9)


def test_propagate_rejects_defect_angles_it_cannot_walk():
    params = WalkParams(0.1, 0.2, 0.3, 9)
    for angles in ([0.3, float("nan")], [0.3, float("inf")], [[0.3, 0.4]]):
        with pytest.raises(ValueError, match="defect angles"):
            next(propagate(params, 2, defect_only=True, defect_angles=angles))


def assert_same_walk(angles, other, steps):
    """P0 within 1e-12 and the defect-site FI within 1e-11 of each other, on the
    steps where FI = dP0^2 / (P0 (1 - P0)) keeps its digits."""
    walks = (WalkParams(*a, 2 * steps + 3) for a in (angles, other))
    (p0, fi), (q0, gi) = ((defect_probability_series(p, steps), fisher_at_defect(p, steps).values)
                          for p in walks)
    np.testing.assert_allclose(q0, p0, rtol=0, atol=1e-12)
    posed = (p0 > 1e-3) & (p0 < 1 - 1e-3)
    scale = max(fi[posed].max(initial=0.0), 1.0)
    np.testing.assert_allclose(gi[posed], fi[posed], rtol=1e-11, atol=1e-11 * scale)


@settings(max_examples=30, deadline=None)
@given(angles=st.tuples(*[st.floats(-PI, PI)] * 3), steps=st.integers(1, 40))
def test_the_walk_has_the_periods_of_its_coins(angles, steps):
    # R(theta + 2 pi) = -R(theta): at theta1 a global sign; at theta2 every
    # layer-2 coin but the defect's flips, which is theta02 + 2 pi up to that sign
    t1, t2, t02 = angles
    assert_same_walk(angles, (t1, t2, t02 + 4 * PI), steps)
    assert_same_walk(angles, (t1 + 2 * PI, t2, t02), steps)
    assert_same_walk((t1, t2, t02 + 2 * PI), (t1, t2 + 2 * PI, t02), steps)
    table = candidate_probability_table(WalkParams(*angles, 2 * steps + 3),
                                        np.array([t02, t02 + 4 * PI]), range(steps + 1))
    np.testing.assert_allclose(table[:, 1], table[:, 0], rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(angles=st.tuples(st.floats(-PI, PI), st.floats(-PI, PI), st.floats(-3 * PI, 3 * PI)),
       kind=st.sampled_from(["clean", STATIC, DYNAMIC]), seed=st.integers(0, 2**32 - 1))
def test_the_defect_site_reads_theta02_and_its_mirror_alike(angles, kind, seed):
    # R(2 pi - theta) = -sz R(theta) sz: P0 and the defect-site FI are the same
    # at theta02 and 2 pi - theta02, clean or disordered.  FI is compared where
    # it keeps its digits: FI > 1e-6 and P0 away from 0 and 1, since a flat band
    # (theta1 = pi) holds P0 at 1 - 2e-8, where 1 - P0 leaves FI 8 digits.  Over
    # 1500 draws of T = 60, edge angles included, the largest gaps were 4.1e-14
    # in P0 and 9.8e-11 relative in FI (40 draws: 2.5e-14 and 3.8e-10)
    steps = 60
    t1, t2, t02 = angles
    rng = np.random.default_rng(seed)
    n = 2 * steps + 3
    fields = {"clean": None,
              STATIC: CoinField(rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)),
              DYNAMIC: [CoinField(*rng.uniform(-3, 3, 2)) for _ in range(steps)]}[kind]
    (p0, fi), (q0, gi) = (
        (defect_probability_series(p, steps, fields), fisher_at_defect(p, steps, fields).values)
        for p in (WalkParams(t1, t2, t02, n), WalkParams(t1, t2, 2 * PI - t02, n))
    )
    np.testing.assert_allclose(q0, p0, rtol=0, atol=1e-13)
    posed = (fi > 1e-6) & (p0 > 1e-3) & (p0 < 1 - 1e-3)
    np.testing.assert_allclose(gi[posed], fi[posed], rtol=4e-9, atol=0)
    # each odd multiple of pi is its own mirror image, and there the
    # defect-site clicks carry no information at any step
    for mirror in (PI, -PI, 3 * PI):
        assert not fisher_at_defect(WalkParams(t1, t2, mirror, n), steps, fields).values.any()


def test_theta02_and_theta02_minus_2pi_are_different_walks():
    # the defect coin's sign is physical: -2.55 pi once walked as -0.55 pi
    params = WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, 83)
    flipped = replace(params, theta02=params.theta02 - 2 * PI)
    gap = defect_probability_series(flipped, 40) - defect_probability_series(params, 40)
    assert np.abs(gap).max() > 0.1
    table = candidate_probability_table(params, np.array([params.theta02, flipped.theta02]),
                                        range(41))
    assert np.array_equal(table[:, 1] - table[:, 0], gap)


@pytest.mark.parametrize("size", [203.7, 9.5, True, np.bool_(True), "9"])
def test_params_reject_non_integral_lattice_size(size):
    with pytest.raises(ValueError, match="integer"):
        WalkParams(0.1, 0.2, 0.3, size)


def test_params_accept_integral_lattice_size_of_any_type():
    for size in (9, 9.0, np.int64(9), np.float64(9.0)):
        assert WalkParams(0.1, 0.2, 0.3, size).lattice_size == 9
