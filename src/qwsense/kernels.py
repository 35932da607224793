"""Hot split-step kernel: one vectorized numpy step body and the defect coin.

``split_step`` applies one step of U = T_down R2 T_up R1 with the bulk
coins to a state or a stack of them; ``defect_coin`` then redoes the two
cells the defect's layer-2 coin writes, for every walker.
``split_step_pair`` steps a state and its theta02-derivative stacked as
one buffer.  For one walk the defect arithmetic runs on Python floats, not
on 0-d arrays.  ``BACKEND`` names the step body, for run records.

Layout: a state is a float64 or complex128 array of shape (N, 2), the
coin pair (up, down) on the last axis, or a batch (B, N, 2); the pair
kernel's buffer puts psi at [0] and dpsi at [1] of a leading axis of
length 2.  A state may be a view with any strides: every pass is an
elementwise ufunc or a slice copy, with the same values in any memory
order.  Coin tables are the half-angle cosines/sines of the two bulk
layers and broadcast against the site axis: a float, a (..., 1) column
(one coin per walk) or a (..., N) table (one per site).  The defect coin
is in no table, and a table's entry at the defect is never read.  A
broadcast coin and a table that holds it give the same bits, and a real
stack's values are the real parts of the same complex stack's, bit for
bit (up to the sign of zero).

Wrap rule: the ring is periodic, so a call on a window of rows wraps
within the window.  Output row i reads input rows i - 1..i + 1, and only
the up cell of the first row and the down cell of the last row read across
the wrap.
"""

import numpy as np

BACKEND = "numpy"


def split_step(amps, cos1, sin1, cos2, sin2, out):
    """One split step with the bulk coins.

    amps/out: (N, 2) or (B, N, 2), complex128 or float64; cos*/sin*: coin
    tables that broadcast against the site axis (module docstring).  Sweeps:
    coin layer 1, shift up (+1) of the up component, coin layer 2, shift
    down (-1) of the down component; periodic wrap.  The shifts are slice
    copies (np.roll costs more per call than a small step).
    """
    a_up, a_down = amps[..., 0], amps[..., 1]
    up = cos1 * a_up - sin1 * a_down
    down = sin1 * a_up + cos1 * a_down
    up = np.concatenate((up[..., -1:], up[..., :-1]), axis=-1)
    out[..., 0] = cos2 * up - sin2 * down
    mixed = sin2 * up + cos2 * down
    out[..., :-1, 1] = mixed[..., 1:]
    out[..., -1, 1] = mixed[..., 0]
    return out


def _at_site(table, site):
    """A coin table's entry at ``site`` for every walk: a float, or one entry per walk.

    A float or a (..., 1) column holds one coin for every site.
    """
    if isinstance(table, float):
        return table
    entry = table[..., 0 if table.shape[-1] == 1 else site]
    return entry if entry.ndim else float(entry)


def defect_coin(amps, cos1, sin1, defect, cos02, sin02, out):
    """Layer 2 at ``defect`` with the defect coin: rewrites the two cells it writes.

    ``out`` is ``split_step`` of ``amps`` on the bulk tables; its up cell at
    ``defect`` and its down cell at ``defect - 1`` become the defect coin
    (cos02, sin02) applied to the two layer-1 outputs it mixes, which are
    returned as (fu, fd): fu is the up amplitude shifted in from
    ``defect - 1`` (periodic), fd the defect's own down amplitude.  amps:
    (..., N, 2), one pair per walk, with tables as in ``split_step``;
    cos02/sin02 are floats, or one entry per walk.  For one (N, 2) walk the
    amplitudes are read with one ``tolist`` and fu, fd are Python floats
    (complex for a complex walk).
    """
    left = defect - 1
    if amps.ndim == 2:
        rows = amps[left:defect + 1] if defect else amps[[left, defect]]
        (up_left, down_left), (up_here, down_here) = rows.tolist()
        walks = ()
    else:
        up_left, down_left = amps[..., left, 0], amps[..., left, 1]
        up_here, down_here = amps[..., defect, 0], amps[..., defect, 1]
        walks = (Ellipsis,)
    fu = _at_site(cos1, left) * up_left - _at_site(sin1, left) * down_left
    fd = _at_site(sin1, defect) * up_here + _at_site(cos1, defect) * down_here
    out[walks + (defect, 0)] = cos02 * fu - sin02 * fd
    out[walks + (left, 1)] = sin02 * fu + cos02 * fd
    return fu, fd


def split_step_pair(pair, cos1, sin1, cos2, sin2, defect, cos02, sin02, out):
    """Joint step of (psi, dpsi/dtheta02) stacked as ``pair``; exact product rule.

    One ``split_step`` call steps both halves, and ``defect_coin`` sets each
    half's defect cells.  The derivative picks up U dpsi plus the defect
    term T_down (dR) phi where phi = T_up R1 psi and dR = dR/dtheta(theta02)
    acts at ``defect`` only, so only two entries of U dpsi are corrected.
    Tables and defect coin as in ``split_step`` and ``defect_coin``.
    """
    split_step(pair, cos1, sin1, cos2, sin2, out)
    fu, fd = defect_coin(pair[0], cos1, sin1, defect, cos02, sin02, out[0])
    dout = out[1]
    defect_coin(pair[1], cos1, sin1, defect, cos02, sin02, dout)
    walks = () if dout.ndim == 2 else (Ellipsis,)
    dout[walks + (defect, 0)] += -0.5 * sin02 * fu - 0.5 * cos02 * fd
    dout[walks + (defect - 1, 1)] += 0.5 * cos02 * fu - 0.5 * sin02 * fd
    return out
