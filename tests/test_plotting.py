"""SVG rendering: pinned bytes for every plot kind, in-memory rows against their CSV, and
cells that cannot place a mark."""

import hashlib
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsense import cli, plotting, serialize
from qwsense.errors import PlotSchemaError

SCALING_GROWTH = (  # t = 0 and a blank value are dropped from the log axes
    "t,value,flagged\n" + "".join(f"{t},{t * t * 0.37},0\n" for t in range(0, 31)) + "31,,1\n"
)
SCALING_DECAY = "t,M,m,msre\n" + "".join(
    f"{t},10,{t % 7},{0.5 / t**2}\n" for t in (6, 9, 14, 22, 30)
)
HEATMAP_WINDING = "theta1_over_pi,theta2_over_pi,winding,min_gap,status\n" + "".join(
    f"{t1},{t2},{'' if t1 == t2 else (1 if t1 > t2 else -1 if t1 < -t2 else 0)},0.1,"
    f"{'gapless' if t1 == t2 else 'gapped'}\n"
    for t1 in (-1.0, -0.5, 0.0, 0.5, 1.0) for t2 in (-1.0, -0.25, 0.5, 1.0)
)
HEATMAP_VALUE = (  # zero, blank, negative and infinite values draw the sentinel colour
    "theta1_over_pi,t,value,flagged\n"
    + "".join(f"{t1},{t},{(t * (1.5 + t1)) ** 2 if t else 0},0\n"
              for t1 in (-0.5, 0.0, 0.5) for t in range(0, 6))
    + "1.0,0,,1\n1.0,1,-2.0,1\n1.0,2,inf,1\n1.0,3,4.5,0\n1.0,4,8.0,0\n1.0,5,12.5,0\n"
)
BAND = "t,mean,std,n_realizations\n" + "".join(
    f"{t},{0.8 * t * t},{0.3 * t * t if t % 3 else 0.9 * t * t},10\n" for t in range(0, 41)
)
POSTERIOR = "t,theta02_over_pi,weight\n" + "".join(
    f"{t},{-0.556 + 0.0012 * i},{(1 + i) * (11 - i) / (100 * t)}\n"
    for t in (20, 6, 100) for i in range(11)
)

# sha256 of each rendered SVG, recorded from the renderer that parsed every cell per row
PINNED = {
    "scaling-growth": ("scaling", SCALING_GROWTH,
                       "b5099d01ef54d03fcaf98e2ccd56a3af57d5fe5c96f545d2abe85490b13c0f5c"),
    "scaling-decay": ("scaling", SCALING_DECAY,
                      "7779d3f8ac4fdc614663ff9c94d7c5216181169a5b4d12d86ecf24953b83c418"),
    "heatmap-winding": ("heatmap", HEATMAP_WINDING,
                        "b5ba39c5aa30ac355e80b5fb6997c94f771c85efdac651378fca73e833a0ac00"),
    "heatmap-value": ("heatmap", HEATMAP_VALUE,
                      "4e04e8bde7d53ef679a30b97ea89fe3dd8aa45b643a464483edd55ed5fda3257"),
    "band": ("band", BAND,
             "14acce92ece6336ad0125d28687260f27d772aa3c27aad8a0dff41a15522c107"),
    "posterior": ("posterior", POSTERIOR,
                  "5172fa95672a8bc47040abe81083bcaa50ebf86c170b2fefb06da48e4104bf85"),
    "empty-scaling": ("scaling", "t,value,flagged\n",
                      "6b631b9a86da68d980bb993a95644d6c76a1cc9fa1b9967dce3a8b038f23d039"),
    "empty-heatmap": ("heatmap", "theta1_over_pi,t,value,flagged\n",
                      "3fe1b9a9fdd0c731290da56bcb730eade7a98475759824604240d0c736c646eb"),
    "empty-band": ("band", "t,mean,std,n_realizations\n",
                   "f52a668888001f2b1d3c88d1ae3073654e43405837a088dc44e7d929ba16a4df"),
    "empty-posterior": ("posterior", "t,theta02_over_pi,weight\n",
                        "73d3eb762185dba5f79e2b399139cf78e70f7834d4ec168c40fae69ea43234b4"),
}


def plot(tmp_path, kind, text):
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "plot.svg"
    return cli.main(["plot", "--data", str(data), "--kind", kind, "--out", str(out)]), out


@pytest.mark.parametrize("name", PINNED)
def test_svg_bytes_are_pinned(tmp_path, name):
    kind, text, digest = PINNED[name]
    rc, out = plot(tmp_path, kind, text)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


BAD_CELLS = [
    # (id, kind, csv text, the column and line the error must name)
    ("heatmap-blank-theta1", "heatmap",
     "theta1_over_pi,theta2_over_pi,winding,min_gap,status\n"
     "0.7,0.75,0,0.1,gapped\n,0.75,1,0.1,gapped\n", "column 'theta1_over_pi' line 3"),
    ("heatmap-nan-winding", "heatmap",
     "theta1_over_pi,theta2_over_pi,winding,min_gap,status\n"
     "0.7,0.75,nan,0.1,gapped\n", "column 'winding' line 2"),
    ("heatmap-fractional-winding", "heatmap",
     "theta1_over_pi,theta2_over_pi,winding,min_gap,status\n"
     "0.7,0.75,0,0.1,gapped\n0.8,0.75,0.5,0.1,gapped\n", "column 'winding' line 3"),
    ("heatmap-infinite-t", "heatmap",
     "theta1_over_pi,t,value,flagged\n0.5,1,2.0,0\n0.5,inf,3.0,0\n", "column 't' line 3"),
    ("posterior-nan-theta02", "posterior",
     "t,theta02_over_pi,weight\n10,-0.55,0.5\n10,nan,0.5\n", "column 'theta02_over_pi' line 3"),
    ("posterior-blank-weight", "posterior",
     "t,theta02_over_pi,weight\n10,-0.55,\n", "column 'weight' line 2"),
    ("band-blank-std", "band",
     "t,mean,std,n_realizations\n1,2.0,0.5,10\n2,4.0,,10\n", "column 'std' line 3"),
    ("band-negative-std", "band",
     "t,mean,std,n_realizations\n1,2.0,0.5,10\n2,4.0,-5.0,10\n", "column 'std' line 3"),
    ("band-blank-t", "band",
     "t,mean,std,n_realizations\n1,2.0,0.5,10\n\n,4.0,0.5,10\n", "column 't' line 4"),
    ("scaling-nan-t", "scaling",
     "t,value,flagged\n1,1.0,0\nnan,4.0,0\n", "column 't' line 3"),
    ("scaling-text-value", "scaling",
     "t,value,flagged\n1,1.0,0\n2,big,0\n", "column 'value' line 3"),
]


@pytest.mark.parametrize("kind, text, where", [case[1:] for case in BAD_CELLS],
                         ids=[case[0] for case in BAD_CELLS])
def test_a_cell_that_cannot_place_its_mark_is_named(tmp_path, capsys, kind, text, where):
    rc, out = plot(tmp_path, kind, text)
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


def test_value_cells_off_the_log_axis_are_still_dropped(tmp_path):
    # a blank or non-positive value places no mark, so its row's t is not read
    rc, out = plot(tmp_path, "scaling", "t,value,flagged\n1,1.0,0\n,,1\n3,-1.0,0\n4,16.0,0\n")
    assert rc == 0
    assert out.read_text().count("<circle") == 2
    rc, out = plot(tmp_path, "band", "t,mean,std,n_realizations\n1,2.0,0.5,10\n2,nan,,10\n")
    assert rc == 0
    assert "nan" not in out.read_text()


def test_ticks_stop_where_the_step_is_below_the_float_spacing(tmp_path):
    # floats near 1e16 are 2 apart, so the tick step 1.0 adds nothing: the
    # tick loop never ended.  A subprocess keeps a regression from hanging the suite.
    data = tmp_path / "data.csv"
    data.write_text("t,theta02_over_pi,weight\n10,1e16,0.5\n10,10000000000000004,0.25\n")
    out = tmp_path / "plot.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "qwsense", "plot", "--data", str(data), "--kind", "posterior",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '<text x="80.00" y="484" text-anchor="middle">1e16</text>' in out.read_text()


FLOAT_EDGES = [
    # (id, kind, csv text, None where the table draws, else the column and line the error names)
    ("scaling-subnormal-value", "scaling", "t,value,flagged\n1,5e-324,0\n2,1.0,0\n", None),
    ("scaling-value-near-max", "scaling",
     "t,value,flagged\n1,1.0,0\n2,1e308,0\n3,1.7e308,0\n", None),
    ("scaling-guide-underflows", "scaling", "t,value,flagged\n1e-300,1.0,0\n0.5,2.0,0\n", None),
    ("heatmap-coordinate-near-max", "heatmap",
     "theta1_over_pi,t,value,flagged\n0.5,1,2.0,0\n1.7e308,2,3.0,0\n",
     "column 'theta1_over_pi' line 3"),
    ("band-upper-overflows", "band",
     "t,mean,std,n_realizations\n1,1.7e308,1.7e308,10\n2,1e-323,0,10\n", None),
    ("posterior-subnormal-weight", "posterior",
     "t,theta02_over_pi,weight\n10,-0.55,5e-324\n10,-0.54,0\n", None),
]


@pytest.mark.parametrize("kind, text, where", [case[1:] for case in FLOAT_EDGES],
                         ids=[case[0] for case in FLOAT_EDGES])
def test_finite_values_at_the_ends_of_the_float_range_draw_or_are_named(
    tmp_path, kind, text, where
):
    # each of these exited 1 with a traceback, or 2 with a bare "math domain error"
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "plot.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "qwsense", "plot", "--data", str(data), "--kind", kind,
         "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    if where is None:
        assert proc.returncode == 0, proc.stderr
        svg = out.read_text()
        assert "nan" not in svg and "inf" not in svg
    else:
        assert proc.returncode == 2
        assert f"{data}: {where}: expected a number of magnitude below 1e+300" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def scalar_viridis(frac):
    """Reference: one cell's colour by the per-cell formula."""
    stops = plotting.VIRIDIS
    pos = frac * (len(stops) - 1)
    i = min(int(pos), len(stops) - 2)
    w = pos - i
    rgb = [stops[i][c] * (1 - w) + stops[i + 1][c] * w for c in range(3)]
    return "#" + "".join(f"{int(round(255 * v)):02x}" for v in rgb)


@settings(max_examples=50, deadline=None)
@given(fracs=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([k / 10 for k in range(11)])),
                      max_size=40))
def test_viridis_matches_the_per_cell_formula(fracs):
    assert plotting._viridis(fracs) == [scalar_viridis(frac) for frac in fracs]


# --- in-memory rows read as their CSV reads ------------------------------------

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, -1e-300, 0.1, 3.0]
# a value cell: any float, a special one, an int, a bool or None (a blank cell)
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL),
    st.integers(-5, 100), st.booleans(), st.none(),
)
# a mark coordinate: a few distinct grid values, so the heatmap cells repeat
COORDS = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2, True, 1e-300, 5e-324, 1e300, -1.7e308]),
    st.sampled_from([math.nan, math.inf, -math.inf, None]),
)
WINDINGS = st.one_of(st.none(), st.sampled_from([-1, 0, 1, 1.0, -0.0, 0.5, True, math.nan]))
STATUS = st.sampled_from(["gapped", "gapless"])

TABLES = {
    "scaling": (("t", "value", "flagged"), (COORDS, VALUES, st.booleans())),
    "scaling-msre": (("t", "M", "m", "msre"), (COORDS, st.integers(1, 9), st.integers(0, 9),
                                               VALUES)),
    "heatmap-winding": (("theta1_over_pi", "theta2_over_pi", "winding", "min_gap", "status"),
                        (COORDS, COORDS, WINDINGS, VALUES, STATUS)),
    "heatmap-value": (("theta1_over_pi", "t", "value", "flagged"),
                      (COORDS, COORDS, VALUES, st.booleans())),
    "band": (("t", "mean", "std", "n_realizations"), (COORDS, VALUES, VALUES, st.integers(1, 9))),
    "posterior": (("t", "theta02_over_pi", "weight"),
                  (st.sampled_from([6, 20, 100, True]), COORDS, VALUES)),
}


def render(*args):
    """The SVG text, or the PlotSchemaError the renderer raised: no other error."""
    try:
        return plotting.render_plot(*args).read_text()
    except PlotSchemaError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("table", TABLES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rows_in_memory_render_as_their_csv(tmp_path_factory, table, data):
    header, cells = TABLES[table]
    rows = data.draw(st.lists(st.tuples(*cells), max_size=24))
    kind = table.split("-")[0]
    work = tmp_path_factory.mktemp(table)
    path = serialize.write_csv(work / "data.csv", header, rows)
    from_file = render(path, kind, work / "file.svg")
    assert render(path, kind, work / "memory.svg", (header, rows)) == from_file


def test_a_non_finite_mark_reads_the_same_error_in_memory(tmp_path):
    header = ("t", "theta02_over_pi", "weight")
    rows = [(10, -0.55, 0.5), (10, math.inf, 0.5), (10, None, 0.5)]
    path = serialize.write_csv(tmp_path / "posterior.csv", header, rows)
    errors = []
    for written in (None, (header, rows)):
        with pytest.raises(PlotSchemaError) as caught:
            plotting.render_plot(path, "posterior", tmp_path / "plot.svg", written)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert errors[0].endswith(
        "column 'theta02_over_pi' line 3: expected a finite number, got 'inf'")
