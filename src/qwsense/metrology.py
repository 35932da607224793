"""Fisher information of the defect measurement and its scaling in time.

Three information measures are computed from the exactly propagated
(state, derivative) pair as the walk streams through ``walk.propagate``;
no trajectory is stored, so a series of any length holds O(N) memory
besides O(T) values:

* defect-site FI:  (dP0/dtheta02)^2 / [P0 (1 - P0)] from the binary
  "walker at the defect?" measurement,
* global FI:       sum_i (dPi/dtheta02)^2 / Pi over the position
  distribution,
* quantum FI:      4 (<dpsi|dpsi> - |<dpsi|psi>|^2), the measurement
  optimum for the pure state.

They obey FI <= GFI <= QFI pointwise.  Each of the paper's two passes is
one function returning ``FisherSeries``, for one walk or for the B walks of
B-walk coin fields, each with the values of its own serial pass.
``fisher_at_defect`` gives the defect-site FI, the t^2 signal, from the
defect rows of a defect-only walk, so it holds O(T) memory however wide
the ring; it reduces all steps at once after the walk (elementwise, so with
a per-step reduction's bits).  ``information_values`` gives all three
measures from one pass over the forward cone, for the hierarchy.  GFI and
QFI compute their per-site products on each step's light-cone window and
scatter them into full-size rows that are zero elsewhere, so each sum's
pairwise partition, and with it every bit, depends neither on the window
nor on the batch's memory layout.  The products are real products of the
float64 buffers: P from psi * psi, one psi * dpsi for both dP and QFI's
overlap <dpsi|psi>, and <dpsi|dpsi> from dpsi * dpsi.  The overlap is still
summed as a complex row, since a complex row's pairwise partition differs
from a real row's.  A site's P and dP add its two coin terms with
``walk.coin_total``, which has the bits of ``sum(axis=-1)`` at less cost.
Power-law growth FI ~ t^b is extracted by least squares in log-log
coordinates; b = 2 is the Heisenberg limit, b = 1 the shot-noise limit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShortFitError
from .walk import WalkParams, coin_total, propagate, site_probability

P_FLOOR = 1e-12

DEFECT_SITE_FI = "defect_site_fi"
GLOBAL_FI = "global_fi"
QUANTUM_FI = "quantum_fi"

ALL_POINTS = "all_points"
PEAKS_ONLY = "peaks_only"

DEFAULT_FIT_T_MIN = 10
MIN_FIT_POINTS = 5  # usable points a power-law fit needs


@dataclass
class FisherSeries:
    steps: np.ndarray  # (T,)
    values: np.ndarray  # (T,), or (T, B) for a batch of B walks
    flagged: np.ndarray  # True where P0 was degenerate and FI pinned to 0

    def __post_init__(self):
        self.steps = np.asarray(self.steps)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.flagged is None:
            self.flagged = np.zeros(self.values.shape, dtype=bool)
        self.flagged = np.asarray(self.flagged, dtype=bool)
        if self.steps.shape != self.values.shape[:1] or self.flagged.shape != self.values.shape:
            raise ValueError("values and flagged must match in shape, with one row per step")


@dataclass
class ScalingFit:
    exponent: float
    prefactor: float
    r_squared: float
    t_min: float  # the window the fit read, whatever points it kept
    t_max: float
    mode: str
    n_points: int


def pair_trajectory(params: WalkParams, steps: int, coin_fields, observe,
                    defect_only: bool = False):
    """Stacked ``observe`` of every item of one streamed (psi_t, dpsi_t) walk, t = 0..steps.

    ``observe`` gets the items of ``walk.propagate`` with the derivative,
    whose buffers are reused: it must return a reduction or copy what it
    keeps, not the buffers.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    pairs = propagate(params, steps, coin_fields, derivative=True, defect_only=defect_only)
    return np.array([observe(*pair) for pair in pairs])


def binary_fisher(p0, dp0):
    """FI of the binary "walker at the defect?" outcome: dp0^2 / [p0 (1-p0)].

    Returns (values, degenerate_flags); probabilities within P_FLOOR of 0 or
    1 carry no information and the quotient is singular there, so those
    entries are 0 and flagged.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    dp0 = np.asarray(dp0, dtype=np.float64)
    degenerate = (p0 < P_FLOOR) | (p0 > 1.0 - P_FLOOR)
    safe = np.where(degenerate, 0.5, p0)
    values = np.where(degenerate, 0.0, dp0**2 / (safe * (1.0 - safe)))
    return values, degenerate


def _probability_pair(psi, dpsi):
    """P and dP/dtheta02 at each site of (..., 2) real coin components."""
    return site_probability(psi), 2.0 * coin_total(psi * dpsi)


def _defect_site_fi(steps, defect_rows):
    """The FI series from every step's psi and dpsi defect rows, (2,) + batch + (2,) each."""
    psi_rows, dpsi_rows = np.asarray(defect_rows).swapaxes(0, 1)
    values, flagged = binary_fisher(*_probability_pair(psi_rows, dpsi_rows))
    return FisherSeries(np.arange(steps + 1), values, flagged)


def fisher_at_defect(params: WalkParams, steps: int, coin_fields=None) -> FisherSeries:
    """FI(t) of the defect-site measurement for t = 0..steps, on the causal diamond.

    Values and flags (``binary_fisher``) are (steps + 1,), or (steps + 1, B)
    for B-walk coin fields.
    """
    rows = pair_trajectory(params, steps, coin_fields, lambda psi, dpsi: np.array((psi, dpsi)),
                           defect_only=True)
    return _defect_site_fi(steps, rows)


def information_values(params: WalkParams, steps: int, coin_fields=None) -> dict:
    """{kind: FisherSeries} for FI, GFI and QFI from one streamed walk.

    Shaped and flagged as ``fisher_at_defect``; GFI skips sites with P below P_FLOOR.
    """
    defect = params.defect_index
    n = params.lattice_size
    full_rows = {}  # the zeroed full-size rows the windowed products scatter into

    def row_sum(key, cells, products, cell_count, dtype=np.float64):
        """Sum of a full row of ``cell_count`` cells: ``products`` at ``cells``, zero elsewhere.

        The products go into the row's real part; windows only widen, so a
        row's cells outside today's window are still the zeros it was made
        with.
        """
        row = full_rows.get(key)
        if row is None:
            row = full_rows[key] = np.zeros(products.shape[:-1] + (cell_count,), dtype)
        row.real[..., cells] = products
        return row.sum(axis=-1)

    at_defect = []

    def observe(psi, dpsi, rows):
        at_defect.append(np.array((psi[..., defect, :], dpsi[..., defect, :])))
        psi, dpsi = psi[..., rows, :], dpsi[..., rows, :]
        cross = psi * dpsi
        probs, dprobs = site_probability(psi), 2.0 * coin_total(cross)
        usable = probs >= P_FLOOR
        gfi = row_sum(GLOBAL_FI, rows,
                      np.where(usable, dprobs**2 / np.where(usable, probs, 1.0), 0.0), n)
        cells = slice(2 * rows.start, 2 * rows.stop)
        flat_shape = cross.shape[:-2] + (-1,)
        norm = row_sum("norm", cells, (dpsi * dpsi).reshape(flat_shape), 2 * n)
        overlap = row_sum("overlap", cells, cross.reshape(flat_shape), 2 * n, np.complex128)
        return gfi, 4.0 * (norm - np.abs(overlap) ** 2)

    gfi, qfi = pair_trajectory(params, steps, coin_fields, observe).swapaxes(0, 1)
    return {
        DEFECT_SITE_FI: _defect_site_fi(steps, at_defect),
        GLOBAL_FI: FisherSeries(np.arange(steps + 1), gfi, None),
        QUANTUM_FI: FisherSeries(np.arange(steps + 1), np.maximum(qfi, 0.0), None),
    }


def global_fisher(params: WalkParams, steps: int, coin_fields=None) -> FisherSeries:
    """GFI(t) over the full position distribution, skipping P_i below floor."""
    return information_values(params, steps, coin_fields)[GLOBAL_FI]


def quantum_fisher(params: WalkParams, steps: int, coin_fields=None) -> FisherSeries:
    """QFI(t) = 4(<dpsi|dpsi> - |<dpsi|psi>|^2) from the exact derivative."""
    return information_values(params, steps, coin_fields)[QUANTUM_FI]


def averaged_fisher(series: FisherSeries, window: int, spacing: int) -> FisherSeries:
    """Multi-time average: mean of FI at `window` times spaced by `spacing`.

    Each output point sits at the mean of its constituent times; every start
    step whose full window lies inside the series contributes.  The series'
    steps must be consecutive, so a window is read by position.
    """
    if window < 1 or spacing < 1:
        raise ValueError("window and spacing must be >= 1")
    if (np.diff(series.steps) != 1).any():
        raise ValueError("averaging needs a series of consecutive steps")
    span = (window - 1) * spacing
    starts = len(series.steps) - span
    if starts < 1:
        raise ValueError(f"series too short for window={window}, spacing={spacing} averaging")
    windows = np.arange(starts)[:, np.newaxis] + spacing * np.arange(window)
    return FisherSeries(
        series.steps[:starts] + span / 2.0,
        series.values[windows].mean(axis=1),
        series.flagged[windows].all(axis=1),
    )


def power_law_fit(steps, values, window, mode: str = ALL_POINTS) -> ScalingFit:
    """Least-squares line on (log t, log v) over the steps in ``window`` = (t_min, t_max).

    Returns exponent/prefactor/r^2; ``window`` is checked after ``peaks_only``
    keeps the interior maxima.  Fewer than ``MIN_FIT_POINTS`` usable points
    (in the window, positive step and value) raise ``ShortFitError``.
    """
    steps = np.asarray(steps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if mode == PEAKS_ONLY:
        interior = np.zeros(values.shape, dtype=bool)
        if values.size > 2:
            interior[1:-1] = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        steps, values = steps[interior], values[interior]
    elif mode != ALL_POINTS:
        raise ValueError(f"unknown fit mode {mode!r}")
    usable = (steps >= window[0]) & (steps <= window[1]) & (steps > 0) & (values > 0)
    steps, values = steps[usable], values[usable]
    if steps.size < MIN_FIT_POINTS:
        raise ShortFitError(int(steps.size), MIN_FIT_POINTS)
    log_t = np.log(steps)
    log_v = np.log(values)
    slope, intercept = np.polyfit(log_t, log_v, 1)
    fitted = slope * log_t + intercept
    ss_res = float(((log_v - fitted) ** 2).sum())
    ss_tot = float(((log_v - log_v.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        float(slope), float(np.exp(intercept)), r_squared,
        float(window[0]), float(window[1]), mode, int(steps.size),
    )


def fit_scaling(series: FisherSeries, mode: str = ALL_POINTS) -> ScalingFit:
    """Power-law fit of a Fisher series over the steps DEFAULT_FIT_T_MIN..its
    last; flagged/zero points are excluded."""
    keep = ~series.flagged
    window = (DEFAULT_FIT_T_MIN, float(series.steps[-1]))
    return power_law_fit(series.steps[keep], series.values[keep], window, mode)
