"""Walk core: one-step unitary, exact derivative propagation.

The oracles here are built independently of the production sweeps: a dense
operator assembled from Kronecker products of shift and coin blocks, a
momentum-space reconstruction through the FFT, and central finite
differences for every derivative claim.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsense import kernels
from qwsense.bayes import defect_probability_series
from qwsense.disorder import DYNAMIC, STATIC, DisorderSpec, sample_disorder
from qwsense.metrology import fisher_at_defect
from qwsense.walk import (
    CoinField,
    WalkParams,
    WalkerState,
    default_initial_state,
    light_cone,
    propagate,
    wrap_angle,
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


def random_state(n, rng):
    amps = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    amps /= np.linalg.norm(amps)
    return WalkerState(amps, n)


def nontrivial(n):
    return WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, n)


def step_once(params, state, coins=None, derivative=False):
    """The one-step walk: what ``propagate`` yields after its single step."""
    *_, last = propagate(params, state, 1, coins, derivative)
    return last


# --- one step ------------------------------------------------------------


def test_identity_coins_shift_down_left():
    params = WalkParams(0.0, 0.0, 0.0, 9)
    state = WalkerState.from_position(-1, "down", 9)
    psi = step_once(params, state, CoinField.from_params(params))
    expected = WalkerState.from_position(-2, "down", 9)
    np.testing.assert_array_equal(psi.reshape(-1), expected.amplitudes)


def test_identity_coins_shift_up_right():
    params = WalkParams(0.0, 0.0, 0.0, 9)
    state = WalkerState.from_position(0, "up", 9)
    psi = step_once(params, state, CoinField.from_params(params))
    expected = WalkerState.from_position(1, "up", 9)
    np.testing.assert_array_equal(psi.reshape(-1), expected.amplitudes)


@pytest.mark.parametrize("n", [5, 7])
def test_dense_operator_equivalence(n):
    params = WalkParams(0.9 * PI, 0.75 * PI, -0.55 * PI, n)
    coins = CoinField.from_params(params)
    dense = dense_step_operator(coins.angles1, coins.angles2)
    # elementwise: apply the step to every basis vector
    for j in range(2 * n):
        basis = np.zeros(2 * n, dtype=complex)
        basis[j] = 1.0
        state = WalkerState(basis, n)
        psi = step_once(params, state, coins)
        np.testing.assert_allclose(psi.reshape(-1), dense[:, j], atol=1e-12)


def test_dense_oracle_random_input():
    rng = np.random.default_rng(3)
    n = 5
    params = WalkParams(1.1, -0.7, 2.4, n)
    coins = CoinField.from_params(params)
    dense = dense_step_operator(coins.angles1, coins.angles2)
    state = random_state(n, rng)
    psi = step_once(params, state, coins).reshape(-1)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    np.testing.assert_allclose(psi, dense @ state.amplitudes, atol=1e-12)


def test_step_preserves_norm():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 2 * rng.integers(2, 30) + 1
        params = WalkParams(*rng.uniform(-PI, PI, size=3), n)
        state = random_state(n, rng)
        psi = step_once(params, state, CoinField.from_params(params))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_step_rejects_mismatched_field():
    state = default_initial_state(9)
    coins = CoinField.from_params(WalkParams(0.1, 0.2, 0.3, 11))
    with pytest.raises(ValueError):
        step_once(nontrivial(9), state, coins)


# --- derivative propagation ----------------------------------------------


def test_initial_derivative_is_du_psi():
    n = 9
    params = nontrivial(n)
    coins = CoinField.from_params(params)
    state = default_initial_state(n)
    _, dpsi = step_once(params, state, coins, derivative=True)
    du = dense_step_derivative(coins.angles1, coins.angles2, params.defect_index)
    np.testing.assert_allclose(dpsi.reshape(-1), du @ state.amplitudes, atol=1e-14)


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
    initial = default_initial_state(n)
    *_, (_, dpsi) = propagate(params, initial, steps, derivative=True)
    *_, plus = propagate(replace(params, theta02=params.theta02 + h), initial, steps)
    *_, minus = propagate(replace(params, theta02=params.theta02 - h), initial, steps)
    fd = (plus - minus).reshape(-1) / (2 * h)
    scale = max(np.linalg.norm(fd), 1e-8)
    assert np.linalg.norm(dpsi.reshape(-1) - fd) / scale < 1e-6


def test_derivative_zero_before_wavefront_arrives():
    n = 21
    params = nontrivial(n)
    coins = CoinField.from_params(params)
    state = WalkerState.from_position(-5, "down", n)
    _, dpsi = step_once(params, state, coins, derivative=True)
    assert np.array_equal(dpsi.reshape(-1), np.zeros(2 * n))


def test_derivative_tangent_to_unit_sphere():
    params = nontrivial(41)
    coins = CoinField.from_params(params)
    pairs = propagate(params, default_initial_state(41), 19, coins, derivative=True)
    for psi, dpsi in pairs:
        overlap = np.vdot(psi, dpsi)
        assert abs(overlap.real) < 1e-10


# --- evolution ------------------------------------------------------------


def test_evolve_zero_steps():
    state = default_initial_state(9)
    series = [psi.copy() for psi in propagate(nontrivial(9), state, 0)]
    assert len(series) == 1
    assert np.array_equal(series[0].reshape(-1), state.amplitudes)


def momentum_evolve(state, theta1, theta2, steps):
    """FFT to momentum blocks, advance each band's phase, transform back."""
    grid = state.grid()
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
    state = default_initial_state(n)
    *_, last = propagate(params, state, steps)
    expected = momentum_evolve(state, theta1, theta2, steps)
    np.testing.assert_allclose(last.reshape(-1), expected, atol=1e-10)


def test_defect_neutral_walk_is_bit_exact():
    n = 31
    params = WalkParams(0.9 * PI, 0.75 * PI, 0.75 * PI, n)  # theta02 == theta2
    uniform = CoinField(np.full(n, params.theta1), np.full(n, params.theta2))
    series = [psi.copy() for psi in propagate(params, default_initial_state(n), 12)]
    state = default_initial_state(n)
    for expected in series[1:]:
        psi = step_once(params, state, uniform)
        state = WalkerState(psi.flatten(), n)
        assert np.array_equal(state.amplitudes, expected.reshape(-1))


def test_light_cone_support_is_exactly_zero():
    rng = np.random.default_rng(6)
    n = 61
    for _ in range(5):
        x0 = int(rng.integers(-10, 11))
        steps = int(rng.integers(1, 12))
        params = WalkParams(*rng.uniform(-PI, PI, size=3), n)
        state = WalkerState.from_position(x0, "down", n)
        *_, final = propagate(params, state, steps)
        grid = np.abs(final)
        offset = (n - 1) // 2
        for x in range(-offset, offset + 1):
            if abs(x - x0) > steps:
                assert grid[x + offset].max() == 0.0


def test_evolve_negative_steps_rejected():
    with pytest.raises(ValueError):
        next(propagate(nontrivial(9), default_initial_state(9), -1))


# --- streaming propagation -------------------------------------------------


def _bad_steps(params):
    return default_initial_state(params.lattice_size), -1, None


def _bad_initial(params):
    return default_initial_state(params.lattice_size + 2), 5, None


def _bad_field(params):
    fields = [CoinField.from_params(params)] * 4
    fields.append(CoinField.from_params(nontrivial(params.lattice_size + 2)))
    return default_initial_state(params.lattice_size), 5, fields


def _bad_first_field(params):
    fields = [CoinField.from_params(nontrivial(params.lattice_size + 2))] * 5
    return default_initial_state(params.lattice_size), 5, fields


def _mixed_batch(params):
    clean = CoinField.from_params(params)
    fields = [CoinField.stack([clean, clean])] * 4 + [clean]
    return default_initial_state(params.lattice_size), 5, fields


def _short_iterator(params):
    return default_initial_state(params.lattice_size), 5, iter([CoinField.from_params(params)] * 4)


@pytest.mark.parametrize("series", [defect_probability_series, fisher_at_defect])
@pytest.mark.parametrize("inputs, message", [
    (_bad_steps, "steps must be"),
    (_bad_initial, "initial state lattice size"),
    (_bad_field, "coin field length"),
    (_bad_first_field, "coin field length"),
    (_mixed_batch, "share one batch shape"),
    (_short_iterator, "need 5 per-step coin fields, got 4"),
])
def test_streamed_series_reject_mismatched_inputs(series, inputs, message):
    params = nontrivial(13)
    initial, steps, fields = inputs(params)
    with pytest.raises(ValueError, match=message):
        series(params, initial, steps, fields)


def test_streamed_pair_equals_single_step_pairs():
    # one pair step is (U psi, U dpsi + (dU) psi); U psi and (dU) psi are the
    # one-step walk from psi with its derivative, U dpsi is the step kernel
    n = 31
    params = nontrivial(n)
    coins = CoinField.from_params(params)
    tables = coins.half_angle_tables()
    initial = default_initial_state(n)
    psi, dpsi = initial.grid(), np.zeros((n, 2), dtype=np.complex128)
    for t, (streamed, dstreamed) in enumerate(
        propagate(params, initial, 12, derivative=True)
    ):
        if t:
            state = WalkerState(psi.flatten(), n)
            stepped, du_psi = step_once(params, state, coins, derivative=True)
            u_dpsi = kernels.split_step(dpsi, *tables, np.empty_like(dpsi))
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
    for psi, dpsi in propagate(params, default_initial_state(n), steps, derivative=True):
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert abs(np.vdot(psi, dpsi).real) <= 1e-12


def step_fields(params, steps, coin_fields=None):
    """Reference: the list of ``steps`` fields a clean, static or per-step run walks."""
    if coin_fields is None:
        coin_fields = CoinField.from_params(params)
    if isinstance(coin_fields, CoinField):
        return [coin_fields] * steps
    return list(coin_fields)[:steps]


def full_ring_walk(params, initial, steps, coin_fields=None):
    """Reference: every step on the whole ring into fresh arrays, no window."""
    fields = step_fields(params, steps, coin_fields)
    psi = np.zeros(fields[0].angles1.shape + (2,), dtype=np.complex128)
    psi[...] = initial.grid()
    dpsi = np.zeros_like(psi)
    yield psi, dpsi
    for field in fields:
        out, dout = np.empty_like(psi), np.empty_like(psi)
        kernels.split_step_pair(psi, dpsi, *field.half_angle_tables(), params.defect_index,
                                out, dout)
        psi, dpsi = out, dout
        yield psi, dpsi


def _assert_walks_equal(params, initial, steps, coin_fields=None):
    reference = list(full_ring_walk(params, initial, steps, coin_fields))
    pairs = propagate(params, initial, steps, coin_fields, derivative=True)
    for (psi, dpsi), (ref, dref) in zip(pairs, reference, strict=True):
        assert np.array_equal(psi, ref)
        assert np.array_equal(dpsi, dref)
    states = propagate(params, initial, steps, coin_fields)
    for psi, (ref, _) in zip(states, reference, strict=True):
        assert np.array_equal(psi, ref)


@st.composite
def lattice_states(draw):
    """A basis state at any site, or a superposition of two sites."""
    n = 2 * draw(st.integers(1, 15)) + 1
    offset = (n - 1) // 2
    sites = st.tuples(st.integers(-offset, offset), st.sampled_from(["up", "down"]))
    first = draw(sites)
    state = WalkerState.from_position(*first, n)
    if draw(st.booleans()):
        second = draw(sites.filter(lambda site: site[0] != first[0]))
        angle = draw(st.floats(0.1, 1.4))
        phase = draw(st.floats(-PI, PI))
        amps = math.cos(angle) * state.amplitudes
        amps += math.sin(angle) * np.exp(1j * phase) * WalkerState.from_position(
            *second, n).amplitudes
        state = WalkerState(amps, n)
    return state


@settings(max_examples=40, deadline=None)
@given(
    initial=lattice_states(),
    angles=st.tuples(*[st.floats(-PI, PI)] * 3),
    extra=st.integers(0, 40),
)
def test_windowed_walk_equals_full_ring_walk(initial, angles, extra):
    # up to 40 steps past a ring-covering cone, so the walk wraps around
    n = initial.lattice_size
    _assert_walks_equal(WalkParams(*angles, n), initial, n // 2 + extra)


def test_windowed_walk_equals_full_ring_walk_under_disorder():
    n, steps = 31, 40
    params = nontrivial(n)
    initial = WalkerState.from_position(6, "up", n)
    static = sample_disorder(DisorderSpec(STATIC, 0.2, 1, 3), params, 0)
    dynamic = sample_disorder(DisorderSpec(DYNAMIC, 0.2, 1, 4), params, 0, steps=steps)
    for fields in (static, dynamic):
        _assert_walks_equal(params, initial, steps, fields)


@st.composite
def drawn_fields(draw, n, steps):
    """None (the clean walk), or random fields: one for every step or one per
    step, each (N,) or (B, N)."""
    kind = draw(st.sampled_from(["clean", "static", "dynamic"]))
    if kind == "clean":
        return None
    shape = (n,) if draw(st.booleans()) else (draw(st.integers(1, 3)), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field():
        return CoinField(rng.uniform(-PI, PI, shape), rng.uniform(-PI, PI, shape))

    return field() if kind == "static" else [field() for _ in range(steps)]


@settings(max_examples=60, deadline=None)
@given(initial=lattice_states(), angles=st.tuples(*[st.floats(-PI, PI)] * 3),
       steps=st.integers(1, 40), data=st.data())
def test_diamond_walk_keeps_the_full_ring_walks_defect_row(initial, angles, steps, data):
    # supports anywhere on rings of 3..31 sites, so the cone often wraps
    n = initial.lattice_size
    params = WalkParams(*angles, n)
    fields = data.draw(drawn_fields(n, steps))
    defect = params.defect_index
    reference = list(full_ring_walk(params, initial, steps, fields))
    pairs = propagate(params, initial, steps, fields, derivative=True, defect_only=True)
    for (psi, dpsi), (ref, dref) in zip(pairs, reference, strict=True):
        assert np.array_equal(psi[..., defect, :], ref[..., defect, :])
        assert np.array_equal(dpsi[..., defect, :], dref[..., defect, :])
    states = propagate(params, initial, steps, fields, defect_only=True)
    for psi, (ref, _) in zip(states, reference, strict=True):
        assert np.array_equal(psi[..., defect, :], ref[..., defect, :])


@settings(max_examples=60, deadline=None)
@given(initial=lattice_states(), horizon=st.integers(0, 40))
def test_light_cone_horizon_narrows_one_row_per_side_once_backward_bound(initial, horizon):
    n = initial.lattice_size
    params = WalkParams(0.0, 0.0, 0.0, n)
    defect = params.defect_index
    windows = list(light_cone(params, initial, horizon))
    forward = list(itertools.islice(light_cone(params, initial), horizon + 1))
    assert len(windows) == horizon + 1
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


def superposition(n):
    """A start state with a complex amplitude: (|-1, down> + i |1, up>) / sqrt(2)."""
    amps = default_initial_state(n).amplitudes
    amps = amps + 1j * WalkerState.from_position(1, "up", n).amplitudes
    return WalkerState(amps / math.sqrt(2.0), n)


@pytest.mark.parametrize("start, dtype", [("real", np.float64), ("complex", np.complex128)])
@pytest.mark.parametrize("n", [51, 15])  # 15 sites: the cone covers the ring and the walk wraps
def test_real_start_steps_real_buffers(start, dtype, n):
    params = nontrivial(n)
    initial = default_initial_state(n) if start == "real" else superposition(n)
    steps = 24
    reference = list(full_ring_walk(params, initial, steps))
    for derivative in (True, False):
        walk = propagate(params, initial, steps, derivative=derivative)
        for got, (ref, dref) in zip(walk, reference, strict=True):
            psi, dpsi = got if derivative else (got, None)
            assert psi.dtype == dtype
            assert np.array_equal(psi, ref)
            if derivative:
                assert dpsi.dtype == dtype
                assert np.array_equal(dpsi, dref)


def test_iterator_of_fields_walks_like_the_list():
    n, steps = 31, 20
    params = nontrivial(n)
    fields = sample_disorder(DisorderSpec(DYNAMIC, 0.2, 1, 4), params, 0, steps=steps)
    initial = default_initial_state(n)
    listed = propagate(params, initial, steps, fields, derivative=True)
    streamed = propagate(params, initial, steps, iter(fields + fields[:3]), derivative=True)
    for (psi, dpsi), (ref, dref) in zip(streamed, listed, strict=True):
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
    initial = default_initial_state(n)
    serial = _batch_fields(kind, params, walks, steps)
    if kind == DYNAMIC:
        batched = [CoinField.stack(step) for step in zip(*serial)]
    else:
        batched = CoinField.stack(serial)
    runs = [list(full_ring_walk(params, initial, steps, f)) for f in serial]
    pairs = propagate(params, initial, steps, batched, derivative=True)
    for t, (psi, dpsi) in enumerate(pairs):
        assert psi.shape == (walks, n, 2)
        for b, run in enumerate(runs):
            assert np.array_equal(psi[b], run[t][0])
            assert np.array_equal(dpsi[b], run[t][1])
    series = defect_probability_series(params, initial, steps, batched)
    for b, fields in enumerate(serial):
        assert np.array_equal(series[:, b],
                              defect_probability_series(params, initial, steps, fields))


# --- parameter and state validation ---------------------------------------


def test_wrap_angle_reduces_out_of_range():
    assert wrap_angle(1.2 * PI) == pytest.approx(-0.8 * PI, abs=1e-12)
    assert wrap_angle(-1.2 * PI) == pytest.approx(0.8 * PI, abs=1e-12)
    assert wrap_angle(2 * PI + 0.3) == pytest.approx(0.3, abs=1e-12)


def test_wrap_angle_keeps_both_boundary_angles():
    # R(-pi) = -R(pi): at a defect site the sign is physical, so both
    # endpoints stay representable.
    assert wrap_angle(PI) == PI
    assert wrap_angle(-PI) == -PI


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "x", None])
def test_wrap_angle_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        wrap_angle(bad)


def test_params_wrap_and_validate():
    p = WalkParams(2.2 * PI, 0.1, 0.2, 9)
    assert p.theta1 == pytest.approx(0.2 * PI, abs=1e-12)
    with pytest.raises(ValueError):
        WalkParams(0.1, 0.2, 0.3, 8)  # even
    with pytest.raises(ValueError):
        WalkParams(0.1, 0.2, 0.3, 1)  # too small
    with pytest.raises(ValueError):
        WalkParams(float("nan"), 0.2, 0.3, 9)


@pytest.mark.parametrize("size", [203.7, 9.5, True, np.bool_(True), "9"])
def test_params_reject_non_integral_lattice_size(size):
    with pytest.raises(ValueError, match="integer"):
        WalkParams(0.1, 0.2, 0.3, size)


def test_params_accept_integral_lattice_size_of_any_type():
    for size in (9, 9.0, np.int64(9), np.float64(9.0)):
        assert WalkParams(0.1, 0.2, 0.3, size).lattice_size == 9


def test_state_validation():
    with pytest.raises(ValueError):
        WalkerState(np.ones(18), 9)  # unnormalized
    with pytest.raises(ValueError):
        WalkerState(np.zeros(17), 9)  # wrong length
    with pytest.raises(ValueError):
        WalkerState.from_position(6, "down", 9)  # off lattice
