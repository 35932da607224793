"""Split-step quantum walk core: state, parameters, coin fields, propagation.

One step is U = T_down R2 T_up R1 on a periodic 1D lattice of N sites (N odd)
with a two-level coin.  The second coin layer carries a defect angle theta02
at physical position x = 0; everything downstream (Fisher information,
spectra, Bayesian estimation) is a function of this walk and of the exact
derivative of the evolved state with respect to theta02, which is propagated
jointly with the state by the product rule (no finite differences on the
production path).

``propagate`` is the one loop over time steps: it streams the state (and,
on request, its derivative) through two reused full-size buffers, so a run
of any length holds O(N) memory.  The probability and Fisher series consume
it; a single step is ``propagate(params, state, 1, coins)``.

Light-cone window: one step moves amplitude by at most one site, so after t
steps the walk is zero outside the initial support widened by t sites per
side.  ``light_cone`` gives, for each t, that support and the defect plus
one zero row per side, widened a site per side per step until it no longer
fits in the ring (then the whole ring).  ``propagate`` takes step t on
window t (the kernel's periodic wrap then reads zeros, as the ring does),
so rows outside the window are never written and stay exact zeros; the
Fisher observers reduce on the same windows.  The yielded buffers equal the
full-ring walk's bit for bit (up to the sign of zero).

Causal diamond: a series that reads only the defect row up to a horizon H
needs, at step t, only the rows within H - t of the defect (row i of
psi_{t+1} reads rows i - 1..i + 1 of psi_t).  With a horizon, ``light_cone``
switches from the forward window to exactly those rows, the backward window
slice(d - (H - t), d + (H - t) + 1), once the forward one no longer fits
inside it.  A backward window's edge rows hold non-zero amplitudes, so the
kernel's periodic wrap writes wrong values into two cells: the up component
of its first row and the down component of its last row.  The next window
is one row narrower per side and drops exactly those rows, and its rows
read only rows of the window before, which were exact; so every row a later
step reads is exact, and so is the defect row at every t <= H.  The step
into psi_H runs on the three rows around the defect, and the window at
t = H is the defect row alone.  Rows outside the window keep stale values:
``propagate(..., defect_only=True)`` walks the diamond, and only the defect
row of its buffers is meaningful.

Buffer dtype: every coin and shift is real, so a start state with no
imaginary part stays real.  ``propagate`` then steps float64 buffers, whose
values are the real parts of the complex walk's, bit for bit; a complex
start steps complex128.  ``WalkerState`` stays complex.

Coin fields: a run takes None (the clean walk of its params), one CoinField
for every step, or per-step fields as a list or an iterator, read a step at
a time.  ``coin_tables`` turns each form into the steps' half-angle tables,
once per field; ``propagate`` and the candidate walks of ``bayes`` step
from it.

Batch axis: a CoinField with (B, N) angles describes B walks, one per row.
``propagate`` walks all B from the same initial state at once, through
(B, N, 2) buffers and (B, N) coin tables, each walk bit-identical to its own
serial walk; disorder ensembles and parameter sweeps use this.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels

NORM_TOL = 1e-12

UP = 0
DOWN = 1
_COIN_LABELS = {"up": UP, "down": DOWN, UP: UP, DOWN: DOWN}


def _finite_scalar(theta) -> float:
    try:
        value = float(theta)
    except (TypeError, ValueError):
        raise ValueError(f"angle must be a finite scalar, got {theta!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return value


def wrap_angle(theta: float) -> float:
    """Canonicalize an angle into [-pi, pi].

    Angles already in [-pi, pi] are returned unchanged (both endpoints are
    kept: the coin rotation is 2*pi-antiperiodic, so at a defect site -pi and
    +pi are physically distinct).  Angles strictly outside are reduced by
    multiples of 2*pi into (-pi, pi].
    """
    theta = _finite_scalar(theta)
    if -math.pi <= theta <= math.pi:
        return float(theta)
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def _check_lattice_size(n) -> int:
    integral = isinstance(n, numbers.Integral) or (
        isinstance(n, numbers.Real) and float(n).is_integer()
    )
    if isinstance(n, (bool, np.bool_)) or not integral:
        raise ValueError(f"lattice_size must be an integer, got {n!r}")
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"lattice_size must be odd and >= 3, got {n}")
    return n


@dataclass(frozen=True)
class WalkParams:
    """Coin angles and lattice geometry defining the step unitary."""

    theta1: float
    theta2: float
    theta02: float
    lattice_size: int

    def __post_init__(self):
        object.__setattr__(self, "theta1", wrap_angle(self.theta1))
        object.__setattr__(self, "theta2", wrap_angle(self.theta2))
        object.__setattr__(self, "theta02", wrap_angle(self.theta02))
        object.__setattr__(self, "lattice_size", _check_lattice_size(self.lattice_size))

    @property
    def defect_index(self) -> int:
        return (self.lattice_size - 1) // 2


@dataclass(frozen=True)
class WalkerState:
    """Complex amplitudes over the (position, coin) basis.

    ``amplitudes`` has length 2N with the coin pair (up, down) contiguous per
    site; site index i corresponds to physical position i - (N - 1) // 2,
    which puts x = 0 at the defect site.
    """

    amplitudes: np.ndarray
    lattice_size: int

    def __post_init__(self):
        n = _check_lattice_size(self.lattice_size)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 * n,):
            raise ValueError(f"amplitudes must have shape ({2 * n},), got {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_position(cls, x: int, coin, lattice_size: int) -> "WalkerState":
        """Basis state |x, coin> with the defect-centered index convention."""
        n = _check_lattice_size(lattice_size)
        idx = x + (n - 1) // 2
        if not 0 <= idx < n:
            raise ValueError(f"position {x} outside lattice of size {n}")
        amps = np.zeros(2 * n, dtype=np.complex128)
        amps[2 * idx + _COIN_LABELS[coin]] = 1.0
        return cls(amps, n)

    def grid(self) -> np.ndarray:
        """Amplitudes viewed as (N, 2)."""
        return self.amplitudes.reshape(self.lattice_size, 2)


def coin_total(values):
    """``values.sum(axis=-1)`` over a length-2 coin axis, as one addition.

    numpy reduces a length-2 axis as ``values[..., 0] + values[..., 1]``, so
    the bits are the reduction's; the addition skips its per-call set-up,
    which dominates at these sizes.  The operands stay arrays, so a single
    site's terms are the elementwise ones (a numpy scalar's ``** 2`` calls
    ``pow`` and may round differently).
    """
    return values[..., 0] + values[..., 1]


def site_probability(psi):
    """|psi_up|^2 + |psi_down|^2 at each site of (..., 2) coin components."""
    return coin_total(np.abs(psi) ** 2)


def default_initial_state(lattice_size: int) -> WalkerState:
    """|-1, down>, the initial state used throughout."""
    return WalkerState.from_position(-1, DOWN, lattice_size)


@dataclass(frozen=True)
class CoinField:
    """Per-site angles of the two coin layers (layer 2 carries the defect).

    Angles of shape (N,) describe one walk; (B, N) describe B walks, one per
    row, that ``propagate`` steps as one batch.
    """

    angles1: np.ndarray
    angles2: np.ndarray

    def __post_init__(self):
        a1 = np.ascontiguousarray(self.angles1, dtype=np.float64)
        a2 = np.ascontiguousarray(self.angles2, dtype=np.float64)
        if a1.ndim not in (1, 2) or a1.shape != a2.shape:
            raise ValueError("coin layers must be arrays of equal shape, (N,) or (B, N)")
        if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
            raise ValueError("coin angles must be finite")
        object.__setattr__(self, "angles1", a1)
        object.__setattr__(self, "angles2", a2)

    @classmethod
    def from_params(cls, params: WalkParams) -> "CoinField":
        n = params.lattice_size
        a1 = np.full(n, params.theta1)
        a2 = np.full(n, params.theta2)
        a2[params.defect_index] = params.theta02
        return cls(a1, a2)

    @classmethod
    def stack(cls, fields) -> "CoinField":
        """One (B, N) field from B single-walk (N,) fields, in order."""
        return cls(np.stack([f.angles1 for f in fields]), np.stack([f.angles2 for f in fields]))

    @property
    def lattice_size(self) -> int:
        return self.angles1.shape[-1]

    def half_angle_tables(self):
        """cos/sin tables consumed by the step kernels."""
        h1 = 0.5 * self.angles1
        h2 = 0.5 * self.angles2
        return np.cos(h1), np.sin(h1), np.cos(h2), np.sin(h2)


def propagate(params: WalkParams, initial: WalkerState, steps: int, coin_fields=None,
              derivative: bool = False, defect_only: bool = False):
    """Stream psi_t for t = 0..steps, or (psi_t, dpsi_t) with ``derivative``.

    Yields full-size buffers that the next step overwrites: read them, copy
    what must outlive the iteration, never write to them.  They are float64
    when ``initial`` has no imaginary part, complex128 otherwise (module
    docstring), and zero outside ``light_cone``'s window t.  ``coin_fields``
    takes any form ``coin_tables`` accepts; fields with (B, N) angles walk B
    walks from ``initial`` at once and the buffers are (B, N, 2).  dpsi is
    the exact derivative with respect to the layer-2 angle at
    ``params.defect_index``, starting from zero.  Each step runs on the
    light-cone window of the module docstring; with ``defect_only`` it runs
    on the causal diamond of ``light_cone(params, initial, steps)`` instead,
    and only the defect row of the buffers is meaningful.  The step count
    and the initial state are checked when iteration starts, each field
    before its first step.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    n = params.lattice_size
    if initial.lattice_size != n:
        raise ValueError(
            f"initial state lattice size {initial.lattice_size} does not match params ({n})"
        )
    batch, step_tables = coin_tables(params, steps, coin_fields)
    defect = params.defect_index
    grid = initial.grid()
    real = not grid.imag.any()
    # ping-pong buffers must not alias the caller's state, and start all zero:
    # a windowed step leaves the rows outside its window as they are
    current = np.zeros(batch + (n, 2), dtype=np.float64 if real else np.complex128)
    current[...] = grid.real if real else grid
    scratch = np.zeros_like(current)
    dcurrent = np.zeros_like(current) if derivative else None
    dscratch = np.zeros_like(current) if derivative else None
    yield (current, dcurrent) if derivative else current
    for rows, tables in zip(light_cone(params, initial, steps if defect_only else None),
                            step_tables):
        window = [table[..., rows] for table in tables]
        psi, out = current[..., rows, :], scratch[..., rows, :]
        if derivative:
            kernels.split_step_pair(psi, dcurrent[..., rows, :], *window, defect - rows.start,
                                    out, dscratch[..., rows, :])
            dcurrent, dscratch = dscratch, dcurrent
        else:
            kernels.split_step(psi, *window, out)
        current, scratch = scratch, current
        yield (current, dcurrent) if derivative else current


def coin_tables(params: WalkParams, steps: int, coin_fields=None):
    """A run's batch shape and an iterator over its ``steps`` steps' half-angle tables.

    ``coin_fields`` takes the forms of the module docstring.  Consecutive
    steps that share a field share its tables.  The batch shape is the first
    field's, () for no steps.  Each field is checked before its first step.
    """
    if coin_fields is None:
        coin_fields = CoinField.from_params(params)
    if isinstance(coin_fields, CoinField):
        coin_fields = itertools.repeat(coin_fields, steps)
    fields = itertools.islice(coin_fields, steps)
    head = list(itertools.islice(fields, 1))
    batch = head[0].angles1.shape[:-1] if head else ()
    return batch, _step_tables(itertools.chain(head, fields), params.lattice_size, batch, steps)


def _step_tables(fields, n, batch, steps):
    count, field = 0, None
    for count, step_field in enumerate(fields, 1):
        if step_field is not field:
            field = step_field
            if field.lattice_size != n:
                raise ValueError(f"coin field length {field.lattice_size} does not match "
                                 f"lattice size {n}")
            if field.angles1.shape[:-1] != batch:
                raise ValueError(f"coin fields of one run must share one batch shape, got "
                                 f"{field.angles1.shape[:-1]} and {batch}")
            tables = field.half_angle_tables()
        yield tables
    if count < steps:
        raise ValueError(f"need {steps} per-step coin fields, got {count}")


def light_cone(params: WalkParams, initial: WalkerState, horizon: int | None = None):
    """Rows of window t: one slice each, for t = 0, 1, ... endlessly, or t = 0..horizon.

    Window t holds the support of psi_t and dpsi_t from ``initial``: the
    initial support and the defect, widened by t sites plus one zero row per
    side.  It also holds psi_{t+1}, so ``propagate`` takes step t on it.
    With a ``horizon`` H, window t is that forward window while it fits
    inside the backward window slice(d - (H - t), d + (H - t) + 1) around
    the defect d, and the backward window after that (the causal diamond of
    the module docstring); the last one, at t = H, is the defect row alone.
    A window of either kind that does not fit in the ring is the whole ring,
    slice(0, N).
    """
    n = params.lattice_size
    defect = params.defect_index
    occupied = np.flatnonzero(initial.grid().any(axis=1))
    first = min(occupied[0], defect) - 1
    stop = max(occupied[-1], defect) + 2
    for t in itertools.count() if horizon is None else range(horizon + 1):
        rows = _on_ring(first - t, stop + t, n)
        if horizon is not None:
            reach = horizon - t
            backward = _on_ring(defect - reach, defect + reach + 1, n)
            if rows.start < backward.start or rows.stop > backward.stop:
                rows = backward
        yield rows


def _on_ring(lo, hi, n):
    return slice(lo, hi) if lo >= 0 and hi <= n else slice(0, n)


def dynamics_lattice_size(steps: int) -> int:
    """Default wrap-free lattice for a steps-long run: 2*steps + 3 (odd)."""
    return 2 * max(int(steps), 0) + 3
