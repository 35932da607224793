"""Split-step quantum walk core: parameters, coin fields, the start, propagation.

One step is U = T_down R2 T_up R1 on a periodic 1D lattice of N sites (N odd)
with a two-level coin; site i is at physical position x = i - (N - 1) // 2.
The second coin layer carries a defect angle theta02 at x = 0.  Everything
downstream (Fisher information, spectra, Bayesian estimation) is a function
of this walk and of the exact derivative of the evolved state with respect
to theta02, propagated jointly with the state by the product rule.  Every
walk starts at |-1, down>, one site left of the defect with its coin down.

``propagate`` is the one loop over time steps: it streams the state (and,
on request, its derivative) through two reused buffers, so a run of any
length holds O(N) memory.  With the derivative, each buffer stacks psi and
dpsi as (2,) + batch + (N, 2) for ``kernels.split_step_pair``.  The start
and every coin and shift are real, so the buffers are float64, with the
real parts of the complex walk's values.

Light cone: one step moves amplitude by at most one site, so after t steps
the walk is zero outside the start site widened by t sites per side.
``light_cone``'s window t is the start site and the defect widened by t
sites plus one zero row per side, slice(d - 2 - t, d + 2 + t) around the
defect d, or the whole ring once that does not fit.  ``propagate`` takes
step t on window t (the kernels' wrap then reads zeros, as the ring does),
so rows outside the window stay exact zeros, and the yielded buffers equal
the full-ring walk's bit for bit (up to the sign of zero).

Causal diamond: the defect row at a horizon H reads, at step t, only the
rows within H - t of the defect.  With a horizon, ``light_cone`` switches
to that backward window, slice(d - (H - t), d + (H - t) + 1), once the
forward one no longer fits inside it.  A backward window's edge rows hold
amplitudes, so the kernels' wrap writes wrong values into its first row's
up cell and its last row's down cell; the next window is one row narrower
per side and drops exactly those rows, so every row a later step reads is
exact, and so is the defect row at every t <= H.  No window reaches more
than H // 2 + 1 rows from the defect.  ``propagate(..., defect_only=True)``
walks the diamond of horizon H = steps on the ring cut to the smallest odd
width that holds every window, the 2 (H // 2) + 3 rows around the defect
(H + 2 at odd H, H + 3 at even H), or on the whole ring if that is
narrower, and yields the defect row alone, so it holds O(H) memory however
wide the ring.  Every window keeps its place relative to the defect, so
the cut moves no bit.

Coin fields: a run takes None (the clean walk of its params), one
``CoinField`` for every step, or per-step fields as a list or an iterator,
read a step at a time.  The defect coin is params.theta02, in no field.
``coin_tables`` turns each field into half-angle tables once, in the shape
the angles vary (a uniform field costs 4 cos/sin per walk, not 4 N), and
``propagate`` slices a per-site table to the step's window.

Batch axis: a CoinField with (B, 1) or (B, N) angles describes B walks, and
per-walk defect angles on batch-() fields describe one walk per angle.
``propagate`` walks all B at once, each bit-identical to its own serial
walk.  Every batch is allocated batch-innermost: a buffer is a (N, 2, B)
array stepped through its (B, N, 2) view, so each elementwise kernel pass
runs one contiguous loop over the B walks, with a shared coin as a scalar.
The arithmetic is the same in any memory order, so the bits are too.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import kernels

DOWN = 1  # index of the down component on a state's coin axis


def _finite_scalar(theta) -> float:
    try:
        value = float(theta)
    except (TypeError, ValueError):
        raise ValueError(f"angle must be a finite scalar, got {theta!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return value


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
    """Coin angles and lattice geometry defining the step unitary.

    Angles are used as written.  R(theta + 2 pi) = -R(theta): at theta1 that
    is a global sign, but at theta2 or theta02 it flips the defect's coin
    against the rest of the ring, so the walk is 4 pi-periodic in theta02.
    """

    theta1: float
    theta2: float
    theta02: float
    lattice_size: int

    def __post_init__(self):
        object.__setattr__(self, "theta1", _finite_scalar(self.theta1))
        object.__setattr__(self, "theta2", _finite_scalar(self.theta2))
        object.__setattr__(self, "theta02", _finite_scalar(self.theta02))
        object.__setattr__(self, "lattice_size", _check_lattice_size(self.lattice_size))

    @property
    def defect_index(self) -> int:
        return (self.lattice_size - 1) // 2


def coin_total(values):
    """``values.sum(axis=-1)`` over a length-2 coin axis, as one addition.

    numpy reduces a length-2 axis as ``values[..., 0] + values[..., 1]``, so
    the bits are the reduction's, but for two -0.0 terms: they add to -0.0,
    and reduce to 0.0.  The addition skips the reduction's per-call set-up,
    which dominates at these sizes.  The operands stay arrays, so a single
    site's terms are the elementwise ones (a numpy scalar's ``** 2`` calls
    ``pow`` and may round differently).
    """
    return values[..., 0] + values[..., 1]


def site_probability(psi):
    """|psi_up|^2 + |psi_down|^2 at each site of (..., 2) real coin components."""
    return coin_total(psi * psi)


def half_angle(theta):
    """(cos, sin) of theta / 2 by numpy's ufuncs: floats for a scalar angle, arrays for an array.

    numpy's float64 ``cos``/``sin`` give an angle the same bits alone as
    inside a table, so a scalar coin steps as its per-site table would.
    """
    half = 0.5 * np.asarray(theta, dtype=np.float64)
    cos, sin = np.cos(half), np.sin(half)
    return (float(cos), float(sin)) if half.ndim == 0 else (cos, sin)


@dataclass(frozen=True)
class CoinField:
    """Bulk angles of the two coin layers, broadcast against the site axis.

    Angles of shape () give one walk the same coin at every site; (B, 1)
    give B walks one coin each; (N,) and (B, N) give one or B walks one coin
    per site.  A per-site field's layer-2 angle at the defect is never read.
    """

    angles1: np.ndarray
    angles2: np.ndarray

    def __post_init__(self):
        a1 = np.asarray(self.angles1, dtype=np.float64)
        a2 = np.asarray(self.angles2, dtype=np.float64)
        if a1.ndim > 2 or a1.shape != a2.shape:
            raise ValueError("coin layers must be arrays of equal shape: (), (N,), (B, 1) "
                             "or (B, N)")
        if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
            raise ValueError("coin angles must be finite")
        object.__setattr__(self, "angles1", a1)
        object.__setattr__(self, "angles2", a2)

    @classmethod
    def from_params(cls, params: WalkParams) -> "CoinField":
        """The clean walk's bulk coins: one (theta1, theta2) for every site."""
        return cls(params.theta1, params.theta2)

    @classmethod
    def stack(cls, fields) -> "CoinField":
        """One (B, 1) or (B, N) field from B single-walk fields, in order."""
        return cls(np.stack([np.atleast_1d(f.angles1) for f in fields]),
                   np.stack([np.atleast_1d(f.angles2) for f in fields]))

    @property
    def batch(self) -> tuple:
        """The shape of the walks the field describes: () for one walk."""
        return self.angles1.shape[:-1]

    @property
    def sites(self):
        """The length of the site axis of a per-site field; None for a uniform one."""
        if self.angles1.ndim == 0 or self.angles1.shape[-1] == 1:
            return None
        return self.angles1.shape[-1]

    def half_angle_tables(self):
        """cos/sin tables consumed by the step kernels, shaped as the angles (floats for ())."""
        return half_angle(self.angles1) + half_angle(self.angles2)


def propagate(params: WalkParams, steps: int, coin_fields=None, derivative: bool = False,
              defect_only: bool = False, defect_angles=None):
    """Stream psi_t for t = 0..steps, or (psi_t, dpsi_t, rows_t) with ``derivative``.

    Yields views of two buffers that the next step overwrites: read them,
    copy what must outlive the iteration, never write to them.  psi_0 is
    the start.  With ``derivative``, psi and dpsi are the halves of the
    stacked buffer, dpsi starts from zero, and rows_t is ``light_cone``'s
    window t, outside which both are zero.  ``coin_fields`` takes any form
    ``coin_tables`` accepts; B-walk fields make the buffers (B, N, 2).
    ``defect_angles``, a (C,) array, gives C walks one defect coin each on
    batch-() fields, as a batch of C; otherwise every walk's defect coin is
    ``params.theta02``.  With ``defect_only`` the walk runs on the causal
    diamond, on the min(N, 2 (steps // 2) + 3) rows around the defect that
    hold it, and the items are the defect rows alone: batch + (2,) for
    psi_t, (psi_t, dpsi_t) with ``derivative``.  The step count is checked
    when iteration starts, each field before its first step.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    batch, step_tables = coin_tables(params, steps, coin_fields)
    if defect_angles is None:
        cos02, sin02 = half_angle(params.theta02)
    elif batch:
        raise ValueError(f"per-walk defect angles take (N,) coin fields: batch must be (), "
                         f"got {batch}")
    else:
        defect_angles = np.asarray(defect_angles, dtype=np.float64)
        if defect_angles.ndim != 1 or not np.isfinite(defect_angles).all():
            raise ValueError("defect angles must be a (C,) array of finite angles")
        batch = defect_angles.shape
        cos02, sin02 = half_angle(defect_angles)
    width = params.lattice_size
    if defect_only:  # the causal diamond's widest window (module docstring)
        width = min(width, 2 * (steps // 2) + 3)
    start = params.defect_index - (width - 1) // 2  # the ring row at the cut's row 0
    defect = (width - 1) // 2
    cone = light_cone(replace(params, lattice_size=width), steps if defect_only else None)
    lead = (2,) if derivative else ()
    # zeroed buffers, batch innermost in memory (module docstring): a
    # windowed step leaves the rows outside its window as they are
    batch_axes = range(len(lead), len(lead) + len(batch))
    current, scratch = (np.moveaxis(np.zeros(lead + (width, 2) + batch), range(-len(batch), 0),
                                    batch_axes) for _ in range(2))
    # the start |-1, down>: x = -1 is the row left of the defect
    (current[0] if derivative else current)[..., defect - 1, DOWN] = 1.0

    def item(rows):
        if defect_only:
            here = current[..., defect, :]
            return (here[0], here[1]) if derivative else here
        return (current[0], current[1], rows) if derivative else current

    rows = next(cone)
    yield item(rows)
    for c1, s1, c2, s2 in step_tables:
        if not isinstance(c1, float) and c1.shape[-1] != 1:  # per-site tables: on the window
            c1, s1, c2, s2 = (table[..., start + rows.start:start + rows.stop]
                              for table in (c1, s1, c2, s2))
        source, out = current[..., rows, :], scratch[..., rows, :]
        row = defect - rows.start
        if derivative:
            kernels.split_step_pair(source, c1, s1, c2, s2, row, cos02, sin02, out)
        else:
            kernels.split_step(source, c1, s1, c2, s2, out)
            kernels.defect_coin(source, c1, s1, row, cos02, sin02, out)
        current, scratch = scratch, current
        rows = next(cone)
        yield item(rows)


def coin_tables(params: WalkParams, steps: int, coin_fields=None):
    """A run's batch shape and an iterator over its ``steps`` steps' half-angle tables.

    ``coin_fields`` takes the forms of the module docstring.  Consecutive
    steps that share a field share its tables.  The batch shape is the first
    field's (a lone field's at zero steps too), () for no per-step fields.
    Each field is checked before its first step: a per-site field must have
    N sites, and every field the first field's batch shape.
    """
    if coin_fields is None:
        coin_fields = CoinField.from_params(params)
    if isinstance(coin_fields, CoinField):
        head, fields = [coin_fields], itertools.repeat(coin_fields, steps)
    else:
        fields = itertools.islice(coin_fields, steps)
        head = list(itertools.islice(fields, 1))
        fields = itertools.chain(head, fields)
    batch = head[0].batch if head else ()
    return batch, _step_tables(fields, params.lattice_size, batch, steps)


def _step_tables(fields, n, batch, steps):
    count, field = 0, None
    for count, step_field in enumerate(fields, 1):
        if step_field is not field:
            field = step_field
            if field.sites not in (None, n):
                raise ValueError(f"coin field length {field.sites} does not match "
                                 f"lattice size {n}")
            if field.batch != batch:
                raise ValueError(f"coin fields of one run must share one batch shape, got "
                                 f"{field.batch} and {batch}")
            tables = field.half_angle_tables()
        yield tables
    if count < steps:
        raise ValueError(f"need {steps} per-step coin fields, got {count}")


def light_cone(params: WalkParams, horizon: int | None = None):
    """Rows of window t: one slice each, for t = 0, 1, ... endlessly, or t = 0..horizon.

    Window t holds psi_t's and psi_{t+1}'s support, so ``propagate`` takes
    step t on it.  With a ``horizon`` H, window t switches to the backward
    window of the causal diamond (module docstring) once the forward one no
    longer fits inside it; the last one, at t = H, is the defect row alone.
    A window of either kind that does not fit in the ring is slice(0, N).
    """
    n = params.lattice_size
    defect = params.defect_index
    for t in itertools.count() if horizon is None else range(horizon + 1):
        rows = _on_ring(defect - 2 - t, defect + 2 + t, n)
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
