"""Standalone SVG views of CSV data; no computation here.

The CSV header picks the plot: a ``theta02_over_pi`` column a posterior
(one curve per step count), ``theta1_over_pi`` a heatmap (phase diagram or
FI surface), ``std`` a band (ensemble mean with a +/- std ribbon), ``value``
or ``msre`` a scaling plot (log-log, with a power-law guide line).  A plot reads
its CSV's columns once: from the file (``qwsense plot``), or, in a run,
from the ``(header, columns)`` the run has just written to that file.  Either
way each cell reads as the file gives it back: a float as the float its
shortest text parses to (so -0.0 reads 0.0), ``None`` as a blank cell
(nan), a bool as 1 or 0; errors name the same line numbers.  So a run's
SVG equals ``qwsense plot`` on its CSV, byte for byte.  A cell that places
a mark must be a finite number (a ``winding`` blank or an integer), below
AXIS_LIMIT on a linear axis, or PlotSchemaError names its file, column and
line; value cells that are not positive and finite are dropped from log axes
or drawn in the sentinel colour.  The output is a deterministic text document:
re-rendering from the same data reproduces the SVG byte for byte.

A renderer checks every cell it reads before it returns, and returns the
document as a generator of chunks of at most ``BLOCK`` lines, which
``serialize.atomic_write_text`` streams to the file: the per-cell marks (a
heatmap's rects, a scaling plot's circles) and a heatmap's colours are made
a block at a time as the file is written, and the whole text is never held.
"""

import csv
import math
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import PlotSchemaError
from .serialize import atomic_write_text, format_column

WIDTH, HEIGHT = 720, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 24, 28, 56

SENTINEL = "#9a9a9a"  # gapless / flagged cells
AXIS_LIMIT = 1e300  # keeps a linear axis's spans, cell edges and tick steps finite
MAX_LOG_TICKS = 9  # the most decades any preset or benchmark plot labels
BLOCK = 1024  # SVG lines written as one chunk, and heatmap cells coloured per _viridis call
PALETTE = ("#b4232d", "#2959aa", "#2d8a4d", "#b07c1f", "#7b3fa0", "#4a9ba6",
           "#d06b34", "#5d6b1f", "#a03f68", "#3f51a0")
WINDING_COLORS = {-1: "#2959aa", 0: "#f5f2ea", 1: "#b4232d"}
VIRIDIS = (
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
)

_AXES_BOX = (f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_R - MARGIN_L}" '
             f'height="{HEIGHT - MARGIN_B - MARGIN_T}" fill="none" stroke="black"/>')
_NO_DATA = (f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
            'fill="#777777">no data</text>')


def _value_number(value):
    """The float that ``value``'s CSV cell parses back to; a str is the cell's own text."""
    if value is None or isinstance(value, str):
        return float(value) if value else math.nan
    return float(value) + 0.0  # the CSV writes -0.0 as "0"


class _Table:
    """A CSV's columns, from its file or as written to it, with each row's line."""

    def __init__(self, path, header, columns, lines):
        repeated = next((column for i, column in enumerate(header) if column in header[:i]), None)
        if repeated is not None:
            raise PlotSchemaError(f"{path}: the header repeats column '{repeated}'")
        self.path, self.name = path, Path(path).name
        self.columns = dict(zip(header, columns)) if lines else dict.fromkeys(header, ())
        self.lines = lines

    @classmethod
    def read(cls, path):
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise PlotSchemaError(f"{path}: empty file, expected a CSV header row")
            rows, lines = [], []
            for row in reader:
                if row:  # a blank line holds no row; a short row reads blank cells
                    rows.append(row + [""] * (len(header) - len(row)))
                    lines.append(reader.line_num)
        return cls(path, header, zip(*rows), lines)

    @classmethod
    def written(cls, path, header, columns):
        """The table ``serialize.write_csv(path, header, columns)`` writes, without reading it."""
        return cls(path, header, columns, range(2, 2 + (len(columns[0]) if columns else 0)))

    def _column(self, column):
        if column not in self.columns:
            raise PlotSchemaError(f"{self.path}: missing column '{column}'")
        return self.columns[column]

    def text(self, column):
        """The column's cells as the CSV's text."""
        return format_column(self._column(column))

    def numbers(self, column, finite=False):
        """The column as floats, a blank cell read as nan; with ``finite``, every cell finite."""
        cells = self._column(column)
        if set(map(type, cells)) <= {float, int}:  # rows in memory, read as _value_number reads
            values = [cell + 0.0 for cell in cells]
        else:
            values = []
            for i, cell in enumerate(cells):
                try:
                    values.append(_value_number(cell))
                except (TypeError, ValueError):
                    raise self.error(column, i, "a number") from None
        if finite:
            self.finite(column, values, limit=AXIS_LIMIT)
        return values

    def finite(self, column, values, rows=None, integer=False, limit=math.inf):
        """Raise unless ``values`` is finite (and whole) and below ``limit`` in
        magnitude in ``rows``, every row by default."""
        if rows is None and not integer and all(map(limit.__gt__, map(abs, values))):
            return
        for i in range(len(values)) if rows is None else rows:
            if not math.isfinite(values[i]) or (integer and values[i] != int(values[i])):
                raise self.error(column, i, "a finite integer" if integer else "a finite number")
            if abs(values[i]) >= limit:
                raise self.error(column, i, f"a number of magnitude below {limit:g}")

    def error(self, column, row, expected):
        return PlotSchemaError(
            f"{self.path}: column '{column}' line {self.lines[row]}: "
            f"expected {expected}, got {self.text(column)[row]!r}"
        )


def _page(x_label, y_label, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle">{title}</text>',
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{y_label}</text>',
    ]


def _document(parts):
    """The document of ``parts``, an iterable of elements, and the closing tag,
    one a line, as chunks of at most BLOCK lines."""
    parts = chain(parts, ["</svg>"])
    while chunk := list(islice(parts, BLOCK)):
        yield "\n".join(chunk) + "\n"


def _no_data(parts):
    return _document(parts + [_AXES_BOX, _NO_DATA])


class _Scale:
    """Maps data coordinates to the plot box, optionally log10 on both axes."""

    def __init__(self, x_range, y_range, log=False):
        self.log = log
        self.x0, self.x1 = [math.log10(v) for v in x_range] if log else x_range
        self.y0, self.y1 = [math.log10(v) for v in y_range] if log else y_range
        # an empty range gets a width of 1, or of the spacing where 1 is below it
        if self.x1 == self.x0:
            self.x1 = self.x0 + max(1.0, abs(self.x0) * 2.0**-52)
        if self.y1 == self.y0:
            self.y1 = self.y0 + max(1.0, abs(self.y0) * 2.0**-52)

    def _axis(self, values):
        return map(math.log10, values) if self.log else values

    def xs(self, values):
        x0, span, width = self.x0, self.x1 - self.x0, WIDTH - MARGIN_L - MARGIN_R
        return [MARGIN_L + (v - x0) / span * width for v in self._axis(values)]

    def ys(self, values):
        y0, span, height = self.y0, self.y1 - self.y0, HEIGHT - MARGIN_T - MARGIN_B
        return [HEIGHT - MARGIN_B - (v - y0) / span * height for v in self._axis(values)]


def _nice_ticks(lo, hi):
    raw = (hi - lo) / 5
    if not 1e-300 <= raw < math.inf:  # an empty or non-finite range, or a subnormal step
        return [lo]
    exp = math.floor(math.log10(raw))
    mag = 10.0**exp
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        # a tick is a whole multiple of step: rounding a thousandth of its decade
        # below it drops the sum's rounding error and keeps every tick distinct
        ticks.append(round(value, 3 - exp))
        if value + step == value:  # a step below the float spacing moves no further
            break
        value += step
    return ticks


def _log_ticks(lo, hi):
    """A tick on each decade in [lo, hi], or on every k-th decade so that at most
    MAX_LOG_TICKS are labelled."""
    lo_d = max(math.floor(math.log10(lo)), -307)  # 10.0**d is a normal float
    hi_d = min(math.ceil(math.log10(hi)), 308)
    decades = [d for d in range(lo_d, hi_d + 1) if lo <= 10.0**d <= hi]
    stride = -(-len(decades) // MAX_LOG_TICKS)
    return [10.0**d for d in decades if d % stride == 0]


def _tick_labels(ticks):
    """Each tick's label: ``_tick_label``'s default digits where they tell
    neighbouring ticks apart, else the fewest more significant digits that
    do (a narrow linear axis, whose step sits past the sixth digit)."""
    for extra in range(18):  # 17 significant digits tell any two floats apart
        labels = [_tick_label(tick, extra) for tick in ticks]
        if all(map(str.__ne__, labels, labels[1:])):
            break
    return labels


def _tick_label(value, extra=0):
    """``value`` to 6 significant digits, or to a 3-digit mantissa and a
    decimal exponent away from 1e-3..1e4; each with ``extra`` more digits."""
    if value == 0:
        return "0"
    if 1e-3 <= abs(value) < 1e4:
        return f"{value:.{6 + extra}g}"
    if extra:
        # the value's own decimal digits: dividing by 10**exp would round
        mant, exp = f"{value:.{2 + extra}e}".split("e")
        return f"{mant.rstrip('0').rstrip('.')}e{int(exp)}"
    exp = math.floor(math.log10(abs(value)))
    # 10**exp is subnormal or 0 below 1e-307: scale such a value up first
    mant = value / 10**exp if exp > -308 else value * 1e300 / 10**(exp + 300)
    return f"{mant:.3g}e{exp}"


def _draw_ticks(parts, scale, x_ticks, y_ticks):
    y_base = HEIGHT - MARGIN_B
    for px, label in zip(scale.xs(x_ticks), _tick_labels(x_ticks)):
        parts.append(f'<line x1="{px:.2f}" y1="{y_base}" x2="{px:.2f}" y2="{y_base + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{y_base + 20}" text-anchor="middle">{label}</text>')
    for py, label in zip(scale.ys(y_ticks), _tick_labels(y_ticks)):
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end">{label}</text>')


def _coords(points):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


def _joined(xs, ys):
    """``_coords`` of points whose coordinates are already formatted."""
    return " ".join(f"{x},{y}" for x, y in zip(xs, ys))


def _polyline(coords, color, width=1.5, dash=None):
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"{extra}/>'


def _render_scaling(table):
    value_col = "value" if "value" in table.columns else "msre"
    values = table.numbers(value_col)
    ts = table.numbers("t")
    rows = [i for i, v in enumerate(values) if v > 0 and math.isfinite(v)]  # on the log axis
    table.finite("t", ts, rows)
    pts = sorted((ts[i], values[i]) for i in rows if ts[i] > 0)
    parts = _page("t (steps)", value_col, table.name)
    if not pts:
        return _no_data(parts)
    ts, vs = zip(*pts)
    scale = _Scale((min(ts), max(ts)), (min(vs), max(vs)), log=True)
    parts.append(_AXES_BOX)
    _draw_ticks(parts, scale, _log_ticks(min(ts), max(ts)), _log_ticks(min(vs), max(vs)))
    # power-law guide anchored at the last point; +2 for growth, -2 for decay
    exponent = 2.0 if vs[-1] >= vs[0] else -2.0
    t_ref, v_ref = ts[-1], vs[-1]
    # each coordinate is formatted once: the guide, the line and the circles share it
    px = [f"{x:.2f}" for x in scale.xs(ts)]
    # the points where the guide stays a positive float; t <= t_ref, so r <= 1
    guide = [(x, g) for x, t in zip(px, ts)
             if (r := t / t_ref) > 1e-150 and 0 < (g := v_ref * r**exponent) < math.inf]
    gy = [f"{y:.2f}" for y in scale.ys([g for _, g in guide])]
    py = [f"{y:.2f}" for y in scale.ys(vs)]
    parts.append(_polyline(_joined([x for x, _ in guide], gy), "black", 1.0, dash="6 4"))
    parts.append(_polyline(_joined(px, py), PALETTE[0]))
    circles = (f'<circle cx="{x}" cy="{y}" r="2.5" fill="{PALETTE[0]}"/>' for x, y in zip(px, py))
    label = (f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16}" text-anchor="end">'
             f'guide: t^{exponent:+.0f}</text>')
    return _document(chain(parts, circles, [label]))


_HEX = tuple(f"{level:02x}" for level in range(256))


def _viridis(fracs):
    """The colour of each fraction in [0, 1], by the scalar formula's IEEE operations."""
    pos = np.asarray(fracs, dtype=np.float64) * (len(VIRIDIS) - 1)
    i = np.minimum(pos.astype(np.intp), len(VIRIDIS) - 2)  # int() of a fraction >= 0
    w = (pos - i)[:, np.newaxis]
    stops = np.array(VIRIDIS)
    rgb = stops[i] * (1 - w) + stops[i + 1] * w
    levels = np.rint(255 * rgb).astype(np.intp)  # round() ties to even, as np.rint does
    return ["#" + _HEX[r] + _HEX[g] + _HEX[b] for r, g, b in levels.tolist()]


def _shades(values, lo, hi):
    """The ``_viridis`` colour of each value's place in [lo, hi] (the middle
    when hi <= lo), BLOCK values at a time."""
    for start in range(0, len(values), BLOCK):
        yield from _viridis([(v - lo) / (hi - lo) if hi > lo else 0.5
                             for v in values[start:start + BLOCK]])


def _cell_edges(values):
    """Cell boundaries for a sorted list of distinct coordinates."""
    if len(values) == 1:
        return [values[0] - 0.5, values[0] + 0.5]
    edges = [values[0] - (values[1] - values[0]) / 2]
    for a, b in zip(values, values[1:]):
        edges.append((a + b) / 2)
    edges.append(values[-1] + (values[-1] - values[-2]) / 2)
    return edges


def _render_heatmap(table):
    ys = table.numbers("theta1_over_pi", finite=True)
    if "winding" in table.columns:
        x_col, title = "theta2_over_pi", "winding number"
        xs = table.numbers(x_col, finite=True)
        cells, windings = table.text("winding"), table.numbers("winding")
        status = table.text("status")
        table.finite("winding", windings, [i for i, cell in enumerate(cells) if cell], integer=True)
        colors = (
            SENTINEL if s == "gapless" or not cell else WINDING_COLORS.get(int(w), SENTINEL)
            for s, cell, w in zip(status, cells, windings)
        )
    else:
        x_col, title = "t", "log10 value"
        xs = table.numbers(x_col, finite=True)
        logs = [math.log10(v) if v > 0 and math.isfinite(v) else None for v in table.numbers("value")]
        finite = [v for v in logs if v is not None]
        lo = min(finite) if finite else 0.0
        hi = max(finite) if finite else 1.0
        shades = _shades(finite, lo, hi)
        colors = (SENTINEL if v is None else next(shades) for v in logs)
    parts = _page(x_col, "theta1_over_pi", f"{table.name} ({title})")
    if not xs:
        return _no_data(parts)
    x_cells, y_cells = sorted(set(xs)), sorted(set(ys))
    x_edges, y_edges = _cell_edges(x_cells), _cell_edges(y_cells)
    scale = _Scale((x_edges[0], x_edges[-1]), (y_edges[0], y_edges[-1]))
    px, py = scale.xs(x_edges), scale.ys(y_edges)
    # each distinct coordinate's attributes are formatted once, not once per cell
    columns = {x: (f'x="{px[i]:.2f}"', f'width="{px[i + 1] - px[i]:.2f}"')
               for i, x in enumerate(x_cells)}
    rows = {y: (f'y="{py[j + 1]:.2f}"', f'height="{py[j] - py[j + 1]:.2f}"')
            for j, y in enumerate(y_cells)}
    rects = (f'<rect {x_attr} {y_attr} {width} {height} fill="{color}"/>'
             for (x_attr, width), (y_attr, height), color
             in zip(map(columns.__getitem__, xs), map(rows.__getitem__, ys), colors))
    frame = [_AXES_BOX]
    _draw_ticks(frame, scale, _nice_ticks(x_edges[0], x_edges[-1]), _nice_ticks(y_edges[0], y_edges[-1]))
    return _document(chain(parts, rects, frame))


def _render_band(table):
    ts, means, stds = (table.numbers(c) for c in ("t", "mean", "std"))
    rows = [i for i, m in enumerate(means) if m > 0 and math.isfinite(m)]  # on the log axis
    table.finite("t", ts, rows)
    rows = [i for i in rows if ts[i] > 0]
    table.finite("std", stds, rows)
    for i in rows:
        if stds[i] < 0:
            raise table.error("std", i, "a number >= 0")
    pts = sorted((ts[i], means[i], stds[i]) for i in rows)
    parts = _page("t (steps)", "mean +/- std", table.name)
    if not pts:
        return _no_data(parts)
    floor = min(p[1] for p in pts) / 10.0 or 5e-324  # a tenth of a subnormal may be 0
    uppers = [min(m + s, 1e308) for _, m, s in pts]  # m + s may overflow
    lowers = [max(m - s, floor) for _, m, s in pts]
    scale = _Scale((pts[0][0], pts[-1][0]), (min(lowers), max(uppers)), log=True)
    px = scale.xs([t for t, _, _ in pts])
    band = list(zip(px, scale.ys(uppers))) + list(zip(px, scale.ys(lowers)))[::-1]
    parts.append(f'<polygon points="{_coords(band)}" fill="#e8b4b8" stroke="none"/>')
    parts.append(_polyline(_coords(zip(px, scale.ys([m for _, m, _ in pts]))), PALETTE[0]))
    parts.append(_AXES_BOX)
    x_ticks, y_ticks = _log_ticks(pts[0][0], pts[-1][0]), _log_ticks(min(lowers), max(uppers))
    _draw_ticks(parts, scale, x_ticks, y_ticks)
    return _document(parts)


def _render_posterior(table):
    labels, steps = table.text("t"), table.numbers("t", finite=True)
    xs = table.numbers("theta02_over_pi", finite=True)
    ws = table.numbers("weight", finite=True)
    parts = _page("theta02 / pi", "posterior weight", table.name)
    if not xs:
        return _no_data(parts)
    groups = {}  # each curve's row indices, by its t label
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    scale = _Scale((min(xs), max(xs)), (0.0, max(max(ws), 1e-300)))
    parts.append(_AXES_BOX)
    _draw_ticks(parts, scale, _nice_ticks(min(xs), max(xs)), _nice_ticks(0.0, max(ws)))
    distinct = list(set(xs))  # the curves share x: format each once
    px = {x: f"{v:.2f}" for x, v in zip(distinct, scale.xs(distinct))}
    for i, (label, rows) in enumerate(sorted(groups.items(), key=lambda kv: steps[kv[1][0]])):
        color = PALETTE[i % len(PALETTE)]
        rows.sort(key=lambda r: (xs[r], ws[r]))
        py = scale.ys([ws[r] for r in rows])
        parts.append(_polyline(" ".join([f"{px[xs[r]]},{y:.2f}" for r, y in zip(rows, py)]),
                               color))
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16 + 14 * i}" '
            f'text-anchor="end" fill="{color}">t={label}</text>'
        )
    return _document(parts)


# the column that picks each renderer, in order: fi_surface.csv's theta1_over_pi outranks value
_RENDERERS = {"theta02_over_pi": _render_posterior, "theta1_over_pi": _render_heatmap,
              "std": _render_band, "value": _render_scaling, "msre": _render_scaling}


def render_plot(data_path, out_path, written=None) -> Path:
    """Render one CSV data file to the standalone SVG document its header selects.

    ``written`` is the ``(header, columns)`` that ``serialize.write_csv``
    wrote to ``data_path``; given, the plot reads those columns instead of
    the file, with the same bytes as a result.  A header that selects no plot, or that
    repeats a column, raises PlotSchemaError.
    """
    table = _Table.read(data_path) if written is None else _Table.written(data_path, *written)
    for column, render in _RENDERERS.items():
        if column in table.columns:
            return atomic_write_text(out_path, render(table))
    raise PlotSchemaError(f"{data_path}: no plot for header {','.join(table.columns)}; "
                          f"expected a column of {', '.join(_RENDERERS)}")
