"""Spectral decomposition of the step operator and defect-bound states."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import full_angles
from test_walk import dense_step_operator

import qwsense
from qwsense import spectral
from qwsense.errors import CapacityError, NumericalError
from qwsense.spectral import (
    build_step_matrix,
    complex_schur,
    conjugate_pairing_max,
    decompose_step_operator,
    find_localized_states,
    fit_localization_length,
)
from qwsense.walk import CoinField, WalkParams

PI = math.pi

BULK = (0.9 * PI, 0.75 * PI)


def paper_params(theta02, n=101):
    return WalkParams(BULK[0], BULK[1], theta02, n)


def step_matrix(params):
    return build_step_matrix(params, CoinField.from_params(params).half_angle_tables())


def pair_profile_length(states):
    """Decay length of the summed pair profile (stable under degeneracy)."""
    avg = np.mean([s.profile for s in states], axis=0)
    return fit_localization_length(avg)


def test_decomposition_invariants_with_defect():
    params = paper_params(-0.55 * PI, n=65)
    decomp = decompose_step_operator(params)
    assert np.abs(np.abs(decomp.eigenvalues) - 1.0).max() < 1e-10
    assert decomp.residuals.max() < 1e-10
    gram = decomp.eigenvectors.conj().T @ decomp.eigenvectors
    assert np.abs(gram - np.eye(2 * 65)).max() < 1e-10
    assert ((decomp.quasi_energies > -PI) & (decomp.quasi_energies <= PI)).all()


@pytest.mark.parametrize("n", [9, 17, 65])
def test_defect_free_spectrum_matches_dispersion(n):
    t1, t2 = BULK
    params = WalkParams(t1, t2, t2, n)
    decomp = decompose_step_operator(params)
    k = 2 * PI * np.arange(n) / n
    c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
    c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
    energy = np.arccos(np.clip(c2 * c1 * np.cos(k) - s2 * s1, -1, 1))
    expected = np.sort(np.concatenate([energy, -energy]))
    np.testing.assert_allclose(np.sort(decomp.quasi_energies), expected, atol=1e-8)


def test_zero_coins_give_pure_shift_spectrum():
    n = 9
    params = WalkParams(0.0, 0.0, 0.0, n)
    decomp = decompose_step_operator(params)
    k = 2 * PI * np.arange(n) / n
    expected = np.sort(np.angle(np.concatenate([np.exp(1j * k), np.exp(-1j * k)])))
    np.testing.assert_allclose(np.sort(np.angle(decomp.eigenvalues)), expected, atol=1e-10)


def test_capacity_cap_enforced():
    with pytest.raises(CapacityError):
        decompose_step_operator(paper_params(-0.55 * PI, n=513))


def test_profiles_normalized_and_ipr_bounded():
    params = paper_params(-0.55 * PI)
    decomp = decompose_step_operator(params)
    profiles = decomp.site_profiles
    np.testing.assert_allclose(profiles.sum(axis=0), 1.0, atol=1e-10)
    ipr = (profiles**2).sum(axis=0)
    assert (ipr >= 1.0 / params.lattice_size - 1e-12).all()
    assert (ipr <= 1.0 + 1e-12).all()


def test_profiles_and_ipr_are_built_once_and_read_only():
    decomp = decompose_step_operator(paper_params(-0.55 * PI, n=21))
    profiles = decomp.site_profiles
    assert decomp.site_profiles is profiles
    assert np.array_equal(decomp.ipr, (profiles**2).sum(axis=0))
    with pytest.raises(ValueError):
        profiles[0, 0] = 0.0
    states = find_localized_states(decomp)
    assert states and all(np.shares_memory(s.profile, profiles) for s in states)


# --- the direct zgees call against scipy.linalg.schur ---------------------


def assert_schur_matches_oracle(mat):
    t_ref, q_ref = scipy.linalg.schur(mat, output="complex")
    a = mat.copy(order="F")
    t_mat, q_mat = complex_schur(a)
    assert np.array_equal(t_mat, t_ref)
    assert np.array_equal(q_mat, q_ref)
    # a Fortran-contiguous complex128 input becomes T in place
    assert np.shares_memory(t_mat, a)


ANGLES = st.floats(-PI, PI, allow_nan=False, allow_infinity=False)
WALKS = st.builds(
    WalkParams,
    theta1=ANGLES,
    theta2=ANGLES,
    theta02=ANGLES | st.just(-PI),  # -pi: the domain wall
    lattice_size=st.integers(1, 20).map(lambda k: 2 * k + 1),
)


@settings(max_examples=60, deadline=None)
@given(params=WALKS)
def test_direct_schur_is_bit_identical_to_scipy(params):
    assert_schur_matches_oracle(step_matrix(params))


def test_direct_schur_is_bit_identical_to_scipy_at_n301():
    assert_schur_matches_oracle(step_matrix(paper_params(-0.55 * PI, 301)))


@settings(max_examples=40, deadline=None)
@given(params=WALKS)
def test_kernel_residuals_equal_the_dense_ones(params):
    # U v through the step kernel against the dense mat @ Q - Q * lambda
    decomp = decompose_step_operator(params)
    q_mat, eigenvalues = decomp.eigenvectors, decomp.eigenvalues
    dense = np.linalg.norm(step_matrix(params) @ q_mat - q_mat * eigenvalues, axis=0)
    np.testing.assert_allclose(decomp.residuals, dense, rtol=0, atol=1e-15)


def test_a_residual_above_the_tolerance_raises(monkeypatch):
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(NumericalError, match="residual .* exceeds"):
        decompose_step_operator(paper_params(-0.55 * PI, n=21))


def test_decomposition_peak_is_under_three_step_matrices():
    # the matrix zgees overwrites, Q, and the kernel's temporaries; a copy of
    # the input, T beside Q, or a dense mat @ Q residual would each add a matrix
    n = 101
    params = paper_params(-0.55 * PI, n)
    decompose_step_operator(params)  # loads the wrapper outside the trace
    tracemalloc.start()
    try:
        decompose_step_operator(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (2 * n) ** 2 * 16


def test_decomposition_peak_is_at_the_schur_floor():
    # zgees needs the matrix it overwrites, Q and its workspace: 2 matrices
    # and a little; the identity or a full-size kernel temporary held beside
    # the matrix while it is built would each add half a matrix or more
    n = 151
    params = paper_params(-0.55 * PI, n)
    decompose_step_operator(params)  # loads the wrapper outside the trace
    tracemalloc.start()
    try:
        decompose_step_operator(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * (2 * n) ** 2 * 16


def one_shot_step_matrix(params):
    """The step of the whole float64 identity at once: the unblocked build."""
    n = params.lattice_size
    out = np.empty((2 * n, n, 2), dtype=np.complex128)
    tables = CoinField.from_params(params).half_angle_tables()
    spectral._step_columns(np.eye(2 * n).reshape(2 * n, n, 2), tables, params, out)
    return out.reshape(2 * n, 2 * n).T


# odd N only, so 2N is 2 mod 4: with the block as it is, 2N sits below it
# (N = 31), just past it (33), just below and past twice it (63, 65) and
# past three times it (97); a drawn block size also puts 2N at one block,
# at two, and one column past or short of one, down to single columns
BLOCK_EDGE_SIZES = st.sampled_from([31, 33, 63, 65, 97])
# a half angle past pi / 2 has a negative cosine, and the matrix negative zeros
EDGE_ANGLES = st.sampled_from([0.0, -0.0, PI, -PI, 0.5 * PI, 1.5 * PI, -3.0 * PI]) | ANGLES


@settings(max_examples=40, deadline=None)
@given(theta1=EDGE_ANGLES, theta2=EDGE_ANGLES, theta02=EDGE_ANGLES, n=BLOCK_EDGE_SIZES,
       data=st.data())
def test_blocked_step_matrix_is_bit_identical_to_the_one_shot_build(theta1, theta2, theta02, n,
                                                                    data):
    # tobytes compares every bit, the sign of every zero included
    params = WalkParams(theta1, theta2, theta02, n)
    block = data.draw(st.sampled_from([spectral.BLOCK, 1, n, 2 * n - 1, 2 * n, 2 * n + 1]))
    with mock.patch.object(spectral, "BLOCK", block):
        built = step_matrix(params)
    assert built.flags.f_contiguous
    assert built.tobytes() == one_shot_step_matrix(params).tobytes()


def test_the_step_matrix_holds_negative_zeros():
    # so the byte comparison above sees the sign of zero
    built = step_matrix(WalkParams(1.5 * PI, 0.75 * PI, -PI, 31))
    assert np.signbit(built.real[built.real == 0]).any()


@pytest.mark.parametrize("theta02", [-0.55 * PI, -PI, 0.75 * PI])
def test_step_matrix_equals_the_dense_oracle(theta02):
    # the bulk step of the basis stack plus the defect coin at the defect
    params = WalkParams(0.9 * PI, 0.75 * PI, theta02, 9)
    dense = dense_step_operator(*full_angles(params))
    np.testing.assert_allclose(step_matrix(params), dense, rtol=0, atol=1e-15)


def test_direct_schur_rejects_non_finite_entries():
    mat = np.eye(4, dtype=np.complex128)
    mat[1, 2] = np.nan
    with pytest.raises(ValueError):
        complex_schur(mat)


def test_direct_schur_reports_a_lapack_failure(monkeypatch):
    def failing_zgees(select, a, lwork, overwrite_a=False, sort_t=0):
        # the workspace query succeeds; the factorization's QR iteration does not
        return a, 0, np.diag(a), a, np.ones(1, dtype=complex), 0 if lwork == -1 else 3

    monkeypatch.setattr(spectral, "_zgees", lambda: failing_zgees)
    with pytest.raises(NumericalError, match="info = 3"):
        complex_schur(np.eye(4, dtype=np.complex128))


IMPORT_ORDER_PROBE = """
import math, sys
import numpy as np
from qwsense import spectral
from qwsense.walk import CoinField, WalkParams

params = WalkParams(0.9 * math.pi, 0.75 * math.pi, -math.pi, 41)
mat = spectral.build_step_matrix(params, CoinField.from_params(params).half_angle_tables())
if sys.argv[1] == "direct-first":
    t_mat, q_mat = spectral.complex_schur(mat.copy(order="F"))
    print("scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules)
    import scipy.linalg
else:
    import scipy.linalg
    t_mat, q_mat = spectral.complex_schur(mat.copy(order="F"))
    print(spectral._zgees() is sys.modules["scipy.linalg._flapack"].zgees)
t_ref, q_ref = scipy.linalg.schur(mat, output="complex")
print(np.array_equal(t_mat, t_ref), np.array_equal(q_mat, q_ref))
print(scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"])
"""


@pytest.mark.parametrize(
    "order, first",
    [("direct-first", "False False"), ("scipy-first", "True")],
)
def test_direct_wrapper_in_either_import_order(order, first):
    # direct first: the wrapper loads without scipy.linalg and leaves no
    # module of that package behind, so a later import of scipy.linalg
    # loads it whole; scipy first: the wrapper is the one scipy.linalg loaded
    package_root = str(Path(qwsense.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_ORDER_PROBE, order],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [first, "True True", "True"]


# --- localized states -------------------------------------------------------


def test_no_defect_no_localized_states():
    t1, t2 = BULK
    params = WalkParams(t1, t2, t2, 101)
    decomp = decompose_step_operator(params)
    assert find_localized_states(decomp) == []


def test_defect_binds_exactly_two_states():
    params = paper_params(-0.55 * PI)
    decomp = decompose_step_operator(params)
    states = find_localized_states(decomp)
    assert len(states) == 2
    e_a, e_b = (s.quasi_energy for s in states)
    assert abs(e_a + e_b) < 1e-8  # equal magnitude, opposite signs
    for s in states:
        assert abs(s.profile.sum() - 1.0) < 1e-10
        assert s.ipr > 5.0 / 101
        assert s.localization_length > 0
        peak = int(np.argmax(s.profile))
        assert abs(peak - params.defect_index) <= 1


def test_domain_wall_localizes_tighter():
    soft = find_localized_states(decompose_step_operator(paper_params(-0.55 * PI)))
    wall = find_localized_states(decompose_step_operator(paper_params(-PI)))
    assert len(wall) == 2
    assert pair_profile_length(wall) < pair_profile_length(soft)


def test_localization_tightens_with_defect_strength():
    lengths = []
    for theta02 in (-0.4 * PI, -0.55 * PI, -0.7 * PI, -0.9 * PI, -PI):
        states = find_localized_states(decompose_step_operator(paper_params(theta02)))
        assert len(states) == 2
        lengths.append(pair_profile_length(states))
    for tighter, looser in zip(lengths[1:], lengths[:-1]):
        assert tighter <= looser + 1e-9


def test_a_fit_with_one_point_per_flank_has_no_length():
    # both points sit at distance 1, so no slope can be regressed: polyfit
    # warned (RankWarning) and returned a min-norm slope, a length of 0.8 or so
    profile = np.array([0.0, 0.0, 1.5e-2, 0.97, 1.5e-3, 0.0, 0.0])
    assert fit_localization_length(profile) == float("inf")
    # a flat band (theta2 = pi): the walk's bound states are compact
    params = WalkParams(0.0, PI, 0.0, 11)
    states = find_localized_states(decompose_step_operator(params))
    assert states and all(s.localization_length > 0 for s in states)


@settings(max_examples=200, deadline=None)
@given(angles=st.lists(st.floats(-PI, PI), min_size=1, max_size=40),
       broken=st.lists(st.floats(-PI, PI), max_size=3))
def test_conjugate_pairing_max_equals_the_all_pairs_distance(angles, broken):
    # a spectrum closed under conjugation, plus a few unit eigenvalues whose
    # conjugates may be missing; the sort reads the neighbours of each angle
    lam = np.exp(1j * np.array(angles + [-a for a in angles] + broken))
    all_pairs = np.abs(np.conj(lam)[:, None] - lam[None, :]).min(axis=1).max()
    assert conjugate_pairing_max(lam) == pytest.approx(all_pairs, rel=1e-12, abs=1e-15)
    if not broken:
        assert conjugate_pairing_max(lam) < 1e-15
