"""Momentum-space decomposition and winding number quantization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsense import spectral, topology
from qwsense.topology import bloch_components, momentum_grid, phase_diagram, winding_number
from qwsense.walk import WalkParams

PI = math.pi


def test_identity_coins_at_k_zero():
    bloch = bloch_components(0.0, 0.0, momentum_grid(64))
    i0 = int(np.argmin(np.abs(bloch.k)))
    assert bloch.k[i0] == 0.0
    assert bloch.d0[i0] == pytest.approx(1.0, abs=1e-15)
    for comp in (bloch.dx, bloch.dy, bloch.dz):
        assert comp[i0] == pytest.approx(0.0, abs=1e-15)


def test_components_satisfy_unitarity_identity():
    rng = np.random.default_rng(8)
    k = momentum_grid(257)
    for _ in range(20):
        t1, t2 = rng.uniform(-PI, PI, size=2)
        b = bloch_components(t1, t2, k)
        norm = b.d0**2 + b.dx**2 + b.dy**2 + b.dz**2
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)


def test_quasi_energy_branch_and_unit_vector():
    rng = np.random.default_rng(9)
    k = momentum_grid(512)
    for _ in range(10):
        t1, t2 = rng.uniform(-PI, PI, size=2)
        b = bloch_components(t1, t2, k)
        assert ((b.quasi_energy >= 0) & (b.quasi_energy <= PI)).all()
        np.testing.assert_allclose(np.cos(b.quasi_energy), b.d0, atol=1e-12)
        defined = ~np.isnan(b.unit_vector[:, 0])
        norms = np.linalg.norm(b.unit_vector[defined], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_axis_orthogonal_to_bloch_vector():
    rng = np.random.default_rng(10)
    k = momentum_grid(512)
    for _ in range(10):
        t1, t2 = rng.uniform(-PI, PI, size=2)
        b = bloch_components(t1, t2, k)
        defined = ~np.isnan(b.unit_vector[:, 0])
        dots = b.unit_vector[defined] @ b.axis
        assert np.abs(dots).max() < 1e-10


def test_grid_too_small_rejected():
    with pytest.raises(ValueError):
        bloch_components(0.1, 0.2, momentum_grid(4))
    with pytest.raises(ValueError):
        winding_number(0.1, 0.2, n_k=32)
    with pytest.raises(ValueError):
        phase_diagram([0.1], [0.2], n_k=32)


# --- winding anchors -------------------------------------------------------


def test_winding_nontrivial_point():
    point = winding_number(0.9 * PI, 0.75 * PI)
    assert point.status == "gapped"
    assert point.winding == 1
    assert point.residual < 1e-6


def test_winding_trivial_point():
    point = winding_number(0.05 * PI, 0.75 * PI)
    assert point.status == "gapped"
    assert point.winding == 0
    assert point.residual < 1e-6


def test_transition_point_is_gapless():
    point = winding_number(0.75 * PI, 0.75 * PI)
    assert point.status == "gapless"
    assert point.winding is None
    assert point.min_gap < topology.GAP_TOLERANCE


def test_winding_membership_and_quantization():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        t1, t2 = rng.uniform(-0.98 * PI, 0.98 * PI, size=2)
        point = winding_number(t1, t2)
        if point.status == "gapped":
            assert point.winding in (-1, 0, 1)
            if point.min_gap > 0.05:
                # quantization at fixed n_k degrades arbitrarily close to a
                # gap closing; assert it only with a healthy gap margin
                assert point.residual < 1e-6
                checked += 1
    assert checked >= 10


def test_near_critical_residual_improves_with_grid():
    coarse = winding_number(2.2618642802549433, -2.2859203435902113, n_k=2048)
    fine = winding_number(2.2618642802549433, -2.2859203435902113, n_k=8192)
    assert fine.residual < coarse.residual / 10


def test_grid_doubling_convergence():
    for t1, t2 in [(0.9 * PI, 0.75 * PI), (0.05 * PI, 0.75 * PI), (-0.9 * PI, 0.75 * PI)]:
        a = winding_number(t1, t2, n_k=2048)
        b = winding_number(t1, t2, n_k=4096)
        assert a.winding == b.winding
        # pre-rounding integrals differ by at most the two residuals
        assert a.residual + b.residual < 1e-8


def test_phase_diagram_interior_of_phase():
    t1s = (0.9 + 0.01 * np.arange(-1, 2)) * PI
    t2s = (0.75 + 0.01 * np.arange(-1, 2)) * PI
    grid = phase_diagram(t1s, t2s, n_k=1024)
    for row in grid:
        for point in row:
            assert point.status == "gapped"
            assert point.winding == 1


def test_phase_diagram_sweep_crosses_boundary_once():
    t1s = np.linspace(0.05, 0.95, 19) * PI
    grid = phase_diagram(t1s, [0.75 * PI], n_k=1024)
    windings = [row[0].winding for row in grid if row[0].status == "gapped"]
    assert set(windings) == {0, 1}
    changes = [i for i in range(1, len(windings)) if windings[i] != windings[i - 1]]
    assert len(changes) == 1
    # the boundary sits at theta1 = theta2 = 0.75 pi
    gapped_t1 = [row[0].theta1 for row in grid if row[0].status == "gapped"]
    boundary = (gapped_t1[changes[0] - 1] + gapped_t1[changes[0]]) / 2
    assert abs(boundary - 0.75 * PI) < 0.06 * PI


def test_phase_diagram_gapless_line_flagged():
    grid = phase_diagram([0.74 * PI, 0.75 * PI, 0.76 * PI], [0.75 * PI], n_k=1024)
    statuses = [row[0].status for row in grid]
    assert statuses == ["gapped", "gapless", "gapped"]


@settings(max_examples=25, deadline=None)
@given(
    theta1s=st.lists(st.floats(-PI, PI), min_size=1, max_size=3),
    theta2s=st.lists(st.floats(-PI, PI), min_size=1, max_size=3),
    n_k=st.sampled_from([64, 1024]),
)
def test_phase_diagram_matches_quadrature(theta1s, theta2s, n_k):
    grid = phase_diagram(theta1s, theta2s, n_k=n_k)
    for t1, row in zip(theta1s, grid):
        for t2, point in zip(theta2s, row):
            reference = winding_number(t1, t2, n_k)
            assert point.status == reference.status
            assert point.min_gap == reference.min_gap
            if point.min_gap > 0.05:
                # the quadrature rounds correctly only with a healthy gap
                assert point.winding == reference.winding


def test_phase_diagram_holds_one_row_at_a_time():
    grid = np.linspace(-1.0, 1.0, 41) * PI
    tracemalloc.start()
    try:
        phase_diagram(grid, grid, n_k=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (41, 41, 1024) grid at once peaks at ~41 MB
    assert peak < 4e6


def test_phase_diagram_rejects_non_finite_angles():
    with pytest.raises(ValueError, match="finite"):
        phase_diagram([0.5, float("nan")], [0.5], n_k=512)
    with pytest.raises(ValueError, match="finite"):
        phase_diagram([0.5], [float("inf")], n_k=512)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        phase_diagram([], [0.5], n_k=512)


# --- cross-module oracle ----------------------------------------------------


def test_real_space_spectrum_matches_dispersion():
    n = 64 + 1  # odd lattice
    t1, t2 = 0.9 * PI, 0.75 * PI
    params = WalkParams(t1, t2, t2, n)  # defect-free
    decomp = spectral.decompose_step_operator(params)
    k = 2 * PI * np.arange(n) / n
    bloch = bloch_components(t1, t2, np.where(k > PI, k - 2 * PI, k))
    expected = np.sort(np.concatenate([bloch.quasi_energy, -bloch.quasi_energy]))
    np.testing.assert_allclose(np.sort(decomp.quasi_energies), expected, atol=1e-10)
