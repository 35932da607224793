"""Fisher information of the defect measurement and its scaling in time.

Three information measures are computed from the exactly propagated
(state, derivative) pair, each reduced to one number per step as the walk
streams through ``walk.propagate``; no trajectory is stored, so a series
of any length holds O(N) memory besides its T + 1 values:

* defect-site FI:  (dP0/dtheta02)^2 / [P0 (1 - P0)] from the binary
  "walker at the defect?" measurement,
* global FI:       sum_i (dPi/dtheta02)^2 / Pi over the position
  distribution,
* quantum FI:      4 (<dpsi|dpsi> - |<dpsi|psi>|^2), the measurement
  optimum for the pure state.

They obey FI <= GFI <= QFI pointwise.  ``information_values`` computes any
set of them in one pass over one walk, or over a batch of B walks when the
coin fields carry (B, N) angles (a disorder ensemble, a theta1 sweep); the
observers reduce over the last axes only, so each walk's values are those
of its own serial pass.  GFI and QFI compute their per-site products on
``walk.light_cone``'s window only, where the state and derivative can be
non-zero, and scatter them into full-size rows that are zero elsewhere; each
sum then runs over the whole row, so its pairwise partition, and with it
every bit, does not depend on the window.  A pass that asks for the
defect-site FI alone reads only the defect row, so it walks the causal
diamond of ``walk.light_cone`` (the sites that can still reach the defect
by the last step) instead of the whole forward cone.  The buffers are real
for the real start state (``walk`` module docstring); the products are then
the real parts of the complex ones, and QFI's overlap <dpsi|psi> is still
summed as a complex row, whose pairwise partition differs from a real
row's.
``fisher_at_defect``, ``global_fisher`` and ``quantum_fisher`` are
single-walk, single-measure wrappers.  Power-law growth FI ~ t^b is
extracted by least squares in log-log coordinates; b = 2 is the Heisenberg
limit, b = 1 the shot-noise limit.
"""

from dataclasses import dataclass

import numpy as np

from .walk import WalkParams, WalkerState, light_cone, propagate

P_FLOOR = 1e-12

DEFECT_SITE_FI = "defect_site_fi"
GLOBAL_FI = "global_fi"
QUANTUM_FI = "quantum_fi"
MEASURES = (DEFECT_SITE_FI, GLOBAL_FI, QUANTUM_FI)  # what one walk's pass computes
AVERAGED_FI = "averaged_fi"

ALL_POINTS = "all_points"
PEAKS_ONLY = "peaks_only"

DEFAULT_FIT_T_MIN = 10


@dataclass
class FisherSeries:
    steps: np.ndarray
    values: np.ndarray
    kind: str
    flagged: np.ndarray  # True where P0 was degenerate and FI pinned to 0

    def __post_init__(self):
        self.steps = np.asarray(self.steps)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.flagged is None:
            self.flagged = np.zeros(self.values.shape, dtype=bool)
        self.flagged = np.asarray(self.flagged, dtype=bool)
        if not (self.steps.shape == self.values.shape == self.flagged.shape):
            raise ValueError("steps, values and flagged must have matching shapes")


@dataclass
class ScalingFit:
    exponent: float
    prefactor: float
    r_squared: float
    fit_window: tuple[float, float]
    mode: str
    n_points: int

    def value_at(self, t) -> float:
        return self.prefactor * np.asarray(t, dtype=np.float64) ** self.exponent


def pair_trajectory(params: WalkParams, initial: WalkerState, steps: int, coin_fields, observe,
                    defect_only: bool = False):
    """Stacked ``observe(psi_t, dpsi_t, rows_t)`` for t = 0..steps over one streamed walk.

    ``observe`` gets the (N, 2) state and theta02-derivative buffers of each
    step, which are zero outside the light-cone rows ``rows_t``; they are
    reused, so it must return a reduction, not the buffers.  With
    ``defect_only`` the walk runs on the causal diamond (``walk`` module
    docstring) and ``observe`` may read the defect row only.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    pairs = propagate(params, initial, steps, coin_fields, derivative=True,
                      defect_only=defect_only)
    cone = light_cone(params, initial, steps if defect_only else None)
    return np.array([observe(psi, dpsi, rows) for (psi, dpsi), rows in zip(pairs, cone)])


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


def information_values(
    params: WalkParams, initial: WalkerState, steps: int, kinds=MEASURES, coin_fields=None
) -> dict:
    """{kind: (values, flagged)} for each requested measure, from one streamed walk.

    Both arrays have shape (steps + 1,), or (steps + 1, B) when the coin
    fields carry (B, N) angles.  Only the defect-site FI flags points: where
    P0 is within P_FLOOR of 0 or 1 the binary measurement carries no
    information and the quotient is singular, so the value is 0 and flagged.
    GFI skips sites whose probability is below P_FLOOR.
    """
    unknown = set(kinds) - set(MEASURES)
    if unknown:
        raise ValueError(f"unknown information measures {sorted(unknown)}; expected {MEASURES}")
    defect = params.defect_index
    n = params.lattice_size
    full_rows = {}  # the zeroed full-size rows the windowed products scatter into

    def row_sum(key, cells, products, cell_count, dtype=np.float64):
        """Sum of a full row of ``cell_count`` cells: ``products`` at ``cells``, zero elsewhere.

        Windows only widen, so a row's cells outside today's window are
        still the zeros it was made with.
        """
        row = full_rows.get(key)
        if row is None:
            row = full_rows[key] = np.zeros(products.shape[:-1] + (cell_count,), dtype)
        row[..., cells] = products
        return row.sum(axis=-1)

    def observe(psi, dpsi, rows):
        terms = []
        if DEFECT_SITE_FI in kinds:
            here, dhere = psi[..., defect, :], dpsi[..., defect, :]
            terms.append((np.abs(here) ** 2).sum(axis=-1))
            terms.append(2.0 * np.real(np.conj(here) * dhere).sum(axis=-1))
        psi, dpsi = psi[..., rows, :], dpsi[..., rows, :]
        if GLOBAL_FI in kinds:
            probs = (np.abs(psi) ** 2).sum(axis=-1)
            dprobs = 2.0 * np.real(np.conj(psi) * dpsi).sum(axis=-1)
            usable = probs >= P_FLOOR
            terms.append(row_sum(
                GLOBAL_FI, rows,
                np.where(usable, dprobs**2 / np.where(usable, probs, 1.0), 0.0), n,
            ))
        if QUANTUM_FI in kinds:
            flat = psi.reshape(psi.shape[:-2] + (-1,))
            dflat = dpsi.reshape(flat.shape)
            cells = slice(2 * rows.start, 2 * rows.stop)
            norm = row_sum("norm", cells, np.abs(dflat) ** 2, 2 * n)
            overlap = row_sum("overlap", cells, np.conj(dflat) * flat, 2 * n, np.complex128)
            terms.append(4.0 * (norm - np.abs(overlap) ** 2))
        return terms

    # the defect-site FI alone reads one row: walk only the sites that reach it
    defect_only = set(kinds) == {DEFECT_SITE_FI}
    terms = iter(
        pair_trajectory(params, initial, steps, coin_fields, observe, defect_only).swapaxes(0, 1)
    )
    measures = {}
    if DEFECT_SITE_FI in kinds:
        measures[DEFECT_SITE_FI] = binary_fisher(next(terms), next(terms))
    if GLOBAL_FI in kinds:
        gfi = next(terms)
        measures[GLOBAL_FI] = gfi, np.zeros(gfi.shape, dtype=bool)
    if QUANTUM_FI in kinds:
        qfi = next(terms)
        measures[QUANTUM_FI] = np.maximum(qfi, 0.0), np.zeros(qfi.shape, dtype=bool)
    return measures


def fisher_series(
    params: WalkParams, initial: WalkerState, steps: int, kinds=MEASURES, coin_fields=None
) -> dict:
    """{kind: FisherSeries} for one walk, every requested measure from one pass."""
    return {
        kind: FisherSeries(np.arange(steps + 1), values, kind, flagged)
        for kind, (values, flagged) in information_values(
            params, initial, steps, kinds, coin_fields
        ).items()
    }


def fisher_at_defect(
    params: WalkParams, initial: WalkerState, steps: int, coin_fields=None
) -> FisherSeries:
    """FI(t) of the defect-site measurement for t = 0..steps; degenerate points flagged."""
    return fisher_series(params, initial, steps, (DEFECT_SITE_FI,), coin_fields)[DEFECT_SITE_FI]


def global_fisher(
    params: WalkParams, initial: WalkerState, steps: int, coin_fields=None
) -> FisherSeries:
    """GFI(t) over the full position distribution, skipping P_i below floor."""
    return fisher_series(params, initial, steps, (GLOBAL_FI,), coin_fields)[GLOBAL_FI]


def quantum_fisher(
    params: WalkParams, initial: WalkerState, steps: int, coin_fields=None
) -> FisherSeries:
    """QFI(t) = 4(<dpsi|dpsi> - |<dpsi|psi>|^2) from the exact derivative."""
    return fisher_series(params, initial, steps, (QUANTUM_FI,), coin_fields)[QUANTUM_FI]


def averaged_fisher(series: FisherSeries, window: int = 5, spacing: int = 5) -> FisherSeries:
    """Multi-time average: mean of FI at `window` times spaced by `spacing`.

    Each output point sits at the mean of its constituent times; every start
    step whose full window lies inside the series contributes.
    """
    if window < 1 or spacing < 1:
        raise ValueError("window and spacing must be >= 1")
    index_of = {int(t): i for i, t in enumerate(series.steps)}
    span = (window - 1) * spacing
    centers, means, flags = [], [], []
    for t in series.steps:
        t = int(t)
        idx = [index_of.get(t + j * spacing) for j in range(window)]
        if any(i is None for i in idx):
            continue
        centers.append(t + span / 2.0)
        means.append(series.values[idx].mean())
        flags.append(bool(series.flagged[idx].all()))
    if not centers:
        raise ValueError(
            f"series too short for window={window}, spacing={spacing} averaging"
        )
    return FisherSeries(
        np.asarray(centers), np.asarray(means), AVERAGED_FI, np.asarray(flags)
    )


def power_law_fit(steps, values, window=None, mode: str = ALL_POINTS) -> ScalingFit:
    """Least-squares line on (log t, log v); returns exponent/prefactor/r^2."""
    steps = np.asarray(steps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if mode == PEAKS_ONLY:
        interior = np.zeros(values.shape, dtype=bool)
        if values.size > 2:
            interior[1:-1] = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        steps, values = steps[interior], values[interior]
    elif mode != ALL_POINTS:
        raise ValueError(f"unknown fit mode {mode!r}")
    if window is None:
        window = (DEFAULT_FIT_T_MIN, float(steps.max()) if steps.size else DEFAULT_FIT_T_MIN)
    usable = (steps >= window[0]) & (steps <= window[1]) & (steps > 0) & (values > 0)
    steps, values = steps[usable], values[usable]
    if steps.size < 5:
        raise ValueError(f"need at least 5 usable points in window, got {steps.size}")
    log_t = np.log(steps)
    log_v = np.log(values)
    slope, intercept = np.polyfit(log_t, log_v, 1)
    fitted = slope * log_t + intercept
    ss_res = float(((log_v - fitted) ** 2).sum())
    ss_tot = float(((log_v - log_v.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        float(slope), float(np.exp(intercept)), r_squared,
        (float(window[0]), float(window[1])), mode, int(steps.size),
    )


def fit_scaling(series: FisherSeries, mode: str = ALL_POINTS, window=None) -> ScalingFit:
    """Power-law fit of a Fisher series; flagged/zero points are excluded."""
    keep = ~series.flagged
    return power_law_fit(series.steps[keep], series.values[keep], window, mode)
