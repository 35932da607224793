"""Spectral decomposition of the step operator and defect-bound states."""

import math

import numpy as np
import pytest

from qwsense.errors import CapacityError
from qwsense.spectral import (
    decompose_step_operator,
    find_localized_states,
    fit_localization_length,
)
from qwsense.walk import WalkParams

PI = math.pi

BULK = (0.9 * PI, 0.75 * PI)


def paper_params(theta02, n=101):
    return WalkParams(BULK[0], BULK[1], theta02, n)


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
    profiles = decomp.site_profiles()
    np.testing.assert_allclose(profiles.sum(axis=0), 1.0, atol=1e-10)
    ipr = (profiles**2).sum(axis=0)
    assert (ipr >= 1.0 / params.lattice_size - 1e-12).all()
    assert (ipr <= 1.0 + 1e-12).all()


def test_profiles_and_ipr_are_built_once_and_read_only():
    decomp = decompose_step_operator(paper_params(-0.55 * PI, n=21))
    profiles = decomp.site_profiles()
    assert decomp.site_profiles() is profiles
    assert np.array_equal(decomp.ipr, (profiles**2).sum(axis=0))
    with pytest.raises(ValueError):
        profiles[0, 0] = 0.0
    states = find_localized_states(decomp)
    assert states and all(np.shares_memory(s.profile, profiles) for s in states)


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
