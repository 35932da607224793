"""Phase labels of the clean walk, held to the quadrature reference in ``bloch_oracle``."""

import math
import tracemalloc

import numpy as np
import pytest
from bloch_oracle import bloch_components, momentum_grid, quadrature_winding
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsense import spectral, topology
from qwsense.topology import phase_diagram
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
    with pytest.raises(ValueError, match="n_k must be even and >= 64"):
        quadrature_winding(0.1, 0.2, n_k=32)


def test_odd_grid_rejected():
    # theta1 = -theta2 closes the gap at k = 0, which only an even grid holds:
    # 1025 points read it as gapped with winding 0
    t1, t2 = 0.3 * PI, -0.3 * PI
    assert phase_diagram(t1, t2)[0][0].status == "gapless"
    assert phase_diagram([t1], [t2])[0][0].status == "gapless"
    assert quadrature_winding(t1, t2, n_k=1024).status == "gapless"
    with pytest.raises(ValueError, match="n_k must be even"):
        quadrature_winding(t1, t2, n_k=1025)


# --- winding anchors -------------------------------------------------------


def test_winding_nontrivial_point():
    point = quadrature_winding(0.9 * PI, 0.75 * PI)
    assert point.status == "gapped"
    assert point.winding == 1
    assert point.residual < 1e-6
    assert phase_diagram(0.9 * PI, 0.75 * PI)[0][0].winding == 1


def test_winding_trivial_point():
    point = quadrature_winding(0.05 * PI, 0.75 * PI)
    assert point.status == "gapped"
    assert point.winding == 0
    assert point.residual < 1e-6
    assert phase_diagram(0.05 * PI, 0.75 * PI)[0][0].winding == 0


def test_transition_point_is_gapless():
    point = phase_diagram(0.75 * PI, 0.75 * PI)[0][0]
    assert point.status == "gapless"
    assert point.winding is None
    assert point.min_gap < topology.GAP_TOLERANCE


@pytest.mark.parametrize("theta1_over_pi, winding", [(0.9, 1), (0.05, 0), (0.8, 1), (0.7, 0),
                                                     (0.75, None)])
def test_winding_number_is_the_phase_diagram_at_one_point(theta1_over_pi, winding):
    # the presets' points at theta2 = 0.75 pi, and the gapless one at theta1 = theta2
    theta1, theta2 = theta1_over_pi * PI, 0.75 * PI
    point = topology.winding_number(theta1, theta2)
    assert point == phase_diagram([theta1], [theta2])[0][0]
    assert point.winding == winding


def test_winding_membership_and_quantization():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        t1, t2 = rng.uniform(-0.98 * PI, 0.98 * PI, size=2)
        point = quadrature_winding(t1, t2)
        if point.status == "gapped":
            assert point.winding in (-1, 0, 1)
            if point.min_gap > 0.05:
                # quantization at fixed n_k degrades arbitrarily close to a
                # gap closing; assert it only with a healthy gap margin
                assert point.residual < 1e-6
                checked += 1
    assert checked >= 10


def test_near_critical_residual_improves_with_grid():
    coarse = quadrature_winding(2.2618642802549433, -2.2859203435902113, n_k=2048)
    fine = quadrature_winding(2.2618642802549433, -2.2859203435902113, n_k=8192)
    assert fine.residual < coarse.residual / 10


def test_grid_doubling_convergence():
    for t1, t2 in [(0.9 * PI, 0.75 * PI), (0.05 * PI, 0.75 * PI), (-0.9 * PI, 0.75 * PI)]:
        a = quadrature_winding(t1, t2, n_k=2048)
        b = quadrature_winding(t1, t2, n_k=4096)
        assert a.winding == b.winding
        # pre-rounding integrals differ by at most the two residuals
        assert a.residual + b.residual < 1e-8


def test_phase_diagram_interior_of_phase():
    t1s = (0.9 + 0.01 * np.arange(-1, 2)) * PI
    t2s = (0.75 + 0.01 * np.arange(-1, 2)) * PI
    grid = phase_diagram(t1s, t2s)
    for row in grid:
        for point in row:
            assert point.status == "gapped"
            assert point.winding == 1


def test_phase_diagram_sweep_crosses_boundary_once():
    t1s = np.linspace(0.05, 0.95, 19) * PI
    grid = phase_diagram(t1s, [0.75 * PI])
    windings = [row[0].winding for row in grid if row[0].status == "gapped"]
    assert set(windings) == {0, 1}
    changes = [i for i in range(1, len(windings)) if windings[i] != windings[i - 1]]
    assert len(changes) == 1
    # the boundary sits at theta1 = theta2 = 0.75 pi
    gapped_t1 = [t1 for t1, row in zip(t1s, grid) if row[0].status == "gapped"]
    boundary = (gapped_t1[changes[0] - 1] + gapped_t1[changes[0]]) / 2
    assert abs(boundary - 0.75 * PI) < 0.06 * PI


def test_phase_diagram_gapless_line_flagged():
    grid = phase_diagram([0.74 * PI, 0.75 * PI, 0.76 * PI], [0.75 * PI])
    statuses = [row[0].status for row in grid]
    assert statuses == ["gapped", "gapless", "gapped"]


@settings(max_examples=25, deadline=None)
@given(
    theta1s=st.lists(st.floats(-3 * PI, 3 * PI), min_size=1, max_size=3),
    theta2s=st.lists(st.floats(-3 * PI, 3 * PI), min_size=1, max_size=3),
    n_k=st.sampled_from([64, 1024, 2048]) | st.integers(32, 1024).map(lambda half: 2 * half),
)
def test_phase_diagram_matches_quadrature(theta1s, theta2s, n_k):
    # a config's phase grid may run past +-pi: theta2 + 2 pi flips c2 but not the winding.
    # The least gap on any even k grid is the one at its band edges k = -pi and 0
    grid = phase_diagram(theta1s, theta2s)
    for t1, row in zip(theta1s, grid):
        for t2, point in zip(theta2s, row):
            reference = quadrature_winding(t1, t2, n_k)
            assert point.status == reference.status
            assert point.min_gap == reference.min_gap
            if point.min_gap > 0.05:
                # the quadrature rounds correctly only with a healthy gap
                assert point.winding == reference.winding


def test_phase_diagram_holds_one_row_at_a_time():
    grid = np.linspace(-1.0, 1.0, 41) * PI
    tracemalloc.start()
    try:
        points = phase_diagram(grid, grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 41
    # past the 1681 points it returns (~0.3 MB), a row's (41, 2) block of band
    # edges needs a few kB; one row of a 1024-point k grid alone is 0.34 MB
    assert peak - kept < 1e5


def test_phase_diagram_rejects_non_finite_angles():
    with pytest.raises(ValueError, match="finite"):
        phase_diagram([0.5, float("nan")], [0.5])
    with pytest.raises(ValueError, match="finite"):
        phase_diagram([0.5], [float("inf")])


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        phase_diagram([], [0.5])


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
