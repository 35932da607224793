"""SVG rendering: the plot each header picks, pinned bytes for every plot, in-memory rows
against their CSV, and cells that cannot place a mark."""

import hashlib
import math
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
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
POSTERIOR_RESPELLED_STEP = "t,theta02_over_pi,weight\n" + "".join(
    f"{t},{-0.556 + 0.0012 * i},{(1 + i) * (11 - i) / (100 * len(t))}\n"
    for t in ("20", "20.0") for i in range(11)
)

# sha256 of each rendered SVG, recorded from the renderer that parsed every cell per row
PINNED = {
    "scaling-growth": (SCALING_GROWTH,
                       "b5099d01ef54d03fcaf98e2ccd56a3af57d5fe5c96f545d2abe85490b13c0f5c"),
    "scaling-decay": (SCALING_DECAY,
                      "7779d3f8ac4fdc614663ff9c94d7c5216181169a5b4d12d86ecf24953b83c418"),
    "heatmap-winding": (HEATMAP_WINDING,
                        "b5ba39c5aa30ac355e80b5fb6997c94f771c85efdac651378fca73e833a0ac00"),
    "heatmap-value": (HEATMAP_VALUE,
                      "4e04e8bde7d53ef679a30b97ea89fe3dd8aa45b643a464483edd55ed5fda3257"),
    "band": (BAND,
             "14acce92ece6336ad0125d28687260f27d772aa3c27aad8a0dff41a15522c107"),
    "posterior": (POSTERIOR,
                  "5172fa95672a8bc47040abe81083bcaa50ebf86c170b2fefb06da48e4104bf85"),
    "posterior-respelled-step": (POSTERIOR_RESPELLED_STEP,
                                 "d41d61e08120ad9af08d0fa7bb4d3d8ef0a88342ec0cc94284914a03ababa0ff"),
    # one constant value: its y range is one decade wide, so the t^2 guide
    # falls below the points by the box height per decade
    "scaling-constant": ("t,value,flagged\n1,1000.0,0\n2,1000.0,0\n4,1000.0,0\n",
                         "0b4ca24661d5e396de9e2b25297f109cc40cb0c25ec7857cf013bed6d175eeb4"),
    "empty-scaling": ("t,value,flagged\n",
                      "6b631b9a86da68d980bb993a95644d6c76a1cc9fa1b9967dce3a8b038f23d039"),
    "empty-heatmap": ("theta1_over_pi,t,value,flagged\n",
                      "3fe1b9a9fdd0c731290da56bcb730eade7a98475759824604240d0c736c646eb"),
    "empty-band": ("t,mean,std,n_realizations\n",
                   "f52a668888001f2b1d3c88d1ae3073654e43405837a088dc44e7d929ba16a4df"),
    "empty-posterior": ("t,theta02_over_pi,weight\n",
                        "73d3eb762185dba5f79e2b399139cf78e70f7834d4ec168c40fae69ea43234b4"),
}


def plot(tmp_path, text):
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "plot.svg"
    return cli.main(["plot", "--data", str(data), "--out", str(out)]), out


@pytest.mark.parametrize("name", PINNED)
def test_svg_bytes_are_pinned(tmp_path, name):
    text, digest = PINNED[name]
    rc, out = plot(tmp_path, text)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_posterior_curves_group_by_cell_text(tmp_path):
    # "20" and "20.0" name the same step, but the file spells them apart
    rc, out = plot(tmp_path, POSTERIOR_RESPELLED_STEP)
    assert rc == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 2
    assert ">t=20</text>" in svg and ">t=20.0</text>" in svg


# (header, the plot's y-axis label, which names the plot the header picks)
HEADERS = [
    ("t,theta02_over_pi,weight", "posterior weight"),
    ("theta1_over_pi,theta2_over_pi,winding,min_gap,status", "theta1_over_pi"),
    ("theta1_over_pi,t,value,flagged", "theta1_over_pi"),  # theta1_over_pi outranks value
    ("t,mean,std,n_realizations", "mean +/- std"),
    ("t,value,flagged", "value"),
    ("t,M,m,msre", "msre"),
]


@pytest.mark.parametrize("header, y_label", HEADERS, ids=[h.replace(",", "-") for h, _ in HEADERS])
def test_the_header_picks_the_plot(tmp_path, header, y_label):
    rc, out = plot(tmp_path, header + "\n")
    assert rc == 0
    assert f'rotate(-90 16 {plotting.HEIGHT / 2:.1f})">{y_label}</text>' in out.read_text()


@pytest.mark.parametrize("header, error", [
    # a spectrum run writes no SVG: its header picks no plot
    ("index,quasi_energy,ipr,is_localized", "no plot for header index,quasi_energy,ipr,"),
    # the last column used to win, unseen
    ("t,value,value", "the header repeats column 'value'"),
    ("t,mean,std,std,n_realizations", "the header repeats column 'std'"),
], ids=["spectrum", "repeated-value", "repeated-std"])
def test_a_header_that_picks_no_plot_or_repeats_a_column_is_named(tmp_path, capsys,
                                                                   header, error):
    rc, out = plot(tmp_path, header + "\n1,2,3,4,5\n")
    assert rc == 2
    assert f"{tmp_path / 'data.csv'}: {error}" in capsys.readouterr().err
    assert not out.exists()
    columns = header.split(",")
    with pytest.raises(PlotSchemaError, match=re.escape(error)):  # so do columns in memory
        plotting.render_plot(tmp_path / "data.csv", out, (columns, [[i] for i in range(len(columns))]))


BAD_CELLS = [
    # (id, csv text, the column and line the error must name)
    ("heatmap-blank-theta1",
     "theta1_over_pi,theta2_over_pi,winding,min_gap,status\n"
     "0.7,0.75,0,0.1,gapped\n,0.75,1,0.1,gapped\n", "column 'theta1_over_pi' line 3"),
    ("heatmap-nan-winding",
     "theta1_over_pi,theta2_over_pi,winding,min_gap,status\n"
     "0.7,0.75,nan,0.1,gapped\n", "column 'winding' line 2"),
    ("heatmap-fractional-winding",
     "theta1_over_pi,theta2_over_pi,winding,min_gap,status\n"
     "0.7,0.75,0,0.1,gapped\n0.8,0.75,0.5,0.1,gapped\n", "column 'winding' line 3"),
    ("heatmap-infinite-t",
     "theta1_over_pi,t,value,flagged\n0.5,1,2.0,0\n0.5,inf,3.0,0\n", "column 't' line 3"),
    ("posterior-nan-theta02",
     "t,theta02_over_pi,weight\n10,-0.55,0.5\n10,nan,0.5\n", "column 'theta02_over_pi' line 3"),
    ("posterior-blank-weight",
     "t,theta02_over_pi,weight\n10,-0.55,\n", "column 'weight' line 2"),
    ("band-blank-std",
     "t,mean,std,n_realizations\n1,2.0,0.5,10\n2,4.0,,10\n", "column 'std' line 3"),
    ("band-negative-std",
     "t,mean,std,n_realizations\n1,2.0,0.5,10\n2,4.0,-5.0,10\n", "column 'std' line 3"),
    ("band-blank-t",
     "t,mean,std,n_realizations\n1,2.0,0.5,10\n\n,4.0,0.5,10\n", "column 't' line 4"),
    ("scaling-nan-t",
     "t,value,flagged\n1,1.0,0\nnan,4.0,0\n", "column 't' line 3"),
    ("scaling-text-value",
     "t,value,flagged\n1,1.0,0\n2,big,0\n", "column 'value' line 3"),
]


@pytest.mark.parametrize("text, where", [case[1:] for case in BAD_CELLS],
                         ids=[case[0] for case in BAD_CELLS])
def test_a_cell_that_cannot_place_its_mark_is_named(tmp_path, capsys, text, where):
    rc, out = plot(tmp_path, text)
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


def test_value_cells_off_the_log_axis_are_still_dropped(tmp_path):
    # a blank or non-positive value places no mark, so its row's t is not read
    rc, out = plot(tmp_path, "t,value,flagged\n1,1.0,0\n,,1\n3,-1.0,0\n4,16.0,0\n")
    assert rc == 0
    assert out.read_text().count("<circle") == 2
    rc, out = plot(tmp_path, "t,mean,std,n_realizations\n1,2.0,0.5,10\n2,nan,,10\n")
    assert rc == 0
    assert "nan" not in out.read_text()


def test_ticks_stop_where_the_step_is_below_the_float_spacing(tmp_path):
    # floats near 1e16 are 2 apart, so the tick step 1.0 adds nothing: the
    # tick loop never ended.  A subprocess keeps a regression from hanging the suite.
    data = tmp_path / "data.csv"
    data.write_text("t,theta02_over_pi,weight\n10,1e16,0.5\n10,10000000000000004,0.25\n")
    out = tmp_path / "plot.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "qwsense", "plot", "--data", str(data), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '<text x="80.00" y="484" text-anchor="middle">1e16</text>' in out.read_text()


FLOAT_EDGES = [
    # (id, csv text, None where the table draws, else the column and line the error names)
    ("scaling-subnormal-value", "t,value,flagged\n1,5e-324,0\n2,1.0,0\n", None),
    ("scaling-value-near-max",
     "t,value,flagged\n1,1.0,0\n2,1e308,0\n3,1.7e308,0\n", None),
    ("scaling-guide-underflows", "t,value,flagged\n1e-300,1.0,0\n0.5,2.0,0\n", None),
    ("heatmap-coordinate-near-max",
     "theta1_over_pi,t,value,flagged\n0.5,1,2.0,0\n1.7e308,2,3.0,0\n",
     "column 'theta1_over_pi' line 3"),
    ("band-upper-overflows",
     "t,mean,std,n_realizations\n1,1.7e308,1.7e308,10\n2,1e-323,0,10\n", None),
    ("posterior-subnormal-weight",
     "t,theta02_over_pi,weight\n10,-0.55,5e-324\n10,-0.54,0\n", None),
]


@pytest.mark.parametrize("text, where", [case[1:] for case in FLOAT_EDGES],
                         ids=[case[0] for case in FLOAT_EDGES])
def test_finite_values_at_the_ends_of_the_float_range_draw_or_are_named(tmp_path, text, where):
    # each of these exited 1 with a traceback, or 2 with a bare "math domain error"
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "plot.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "qwsense", "plot", "--data", str(data), "--out", str(out)],
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


@pytest.mark.parametrize("lo, hi", [(1e-14, 2e-14), (1.0, 1.0 + 1e-13)])
def test_ticks_of_a_span_far_below_one_are_distinct(lo, hi):
    # rounding to 12 decimals made every tick 0.0 or 1.0
    ticks = plotting._nice_ticks(lo, hi)
    assert len(ticks) >= 2 and len(set(ticks)) == len(ticks)
    assert all(lo <= tick <= hi for tick in ticks)


def test_ticks_of_a_huge_axis_are_distinct_floats():
    # int ticks (a step of 10**149) used to collapse: five ticks, two floats
    lo, hi = -2.7811093648039228e+165, -2.7811093648039223e+165
    ticks = plotting._nice_ticks(lo, hi)
    assert all(type(tick) is float for tick in ticks)
    assert ticks == sorted(set(ticks))
    assert all(lo <= tick <= hi for tick in ticks)


# six significant digits labelled every tick of the first two axes "2544.74" or "1"
@pytest.mark.parametrize("lo, hi, labels", [
    (2544.740221747166, 2544.7451700861284,
     ["2544.741", "2544.742", "2544.743", "2544.744", "2544.745"]),
    (1.0, 1.0 + 1e-13, ["1", "1.00000000000002", "1.00000000000004", "1.00000000000006",
                        "1.00000000000008", "1.0000000000001"]),
    (25447.40, 25447.45, ["2.54474e4", "2.544741e4", "2.544742e4", "2.544743e4",
                          "2.544744e4", "2.544745e4"]),
    # labels that six digits already tell apart keep their text
    (0.0, 1.0, ["0", "0.2", "0.4", "0.6", "0.8", "1"]),
    (-0.556, -0.544, ["-0.555", "-0.55", "-0.545"]),
])
def test_tick_labels_carry_the_digits_their_step_needs(lo, hi, labels):
    assert plotting._tick_labels(plotting._nice_ticks(lo, hi)) == labels


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1e299, 1e299), width=st.floats(1e-17, 1.0))
def test_neighbouring_tick_labels_differ(lo, width):
    hi = lo + max(abs(lo), 1e-300) * width
    assume(hi > lo)
    ticks = plotting._nice_ticks(lo, hi)
    assert len(set(map(float, ticks))) == len(ticks)
    labels = plotting._tick_labels(ticks)
    assert all(a != b for a, b in zip(labels, labels[1:]))


def test_a_log_axis_over_every_decade_labels_a_stride_of_them(tmp_path):
    text = next(case[1] for case in FLOAT_EDGES if case[0] == "scaling-subnormal-value")
    rc, out = plot(tmp_path, text)
    assert rc == 0
    # the value labels stand left of the y axis: one on each of 308 decades, before
    labels = out.read_text().count(f'<text x="{plotting.MARGIN_L - 8}" ')
    assert 2 <= labels <= plotting.MAX_LOG_TICKS
    assert plotting._log_ticks(5e-324, 1.0)[-1] == 1.0


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
    height = data.draw(st.integers(0, 24))
    columns = [data.draw(st.lists(cell, min_size=height, max_size=height)) for cell in cells]
    work = tmp_path_factory.mktemp(table)
    path = serialize.write_csv(work / "data.csv", header, columns)
    from_file = render(path, work / "file.svg")
    assert render(path, work / "memory.svg", (header, columns)) == from_file


def test_a_non_finite_mark_reads_the_same_error_in_memory(tmp_path):
    header = ("t", "theta02_over_pi", "weight")
    columns = [[10, 10, 10], [-0.55, math.inf, None], [0.5, 0.5, 0.5]]
    path = serialize.write_csv(tmp_path / "posterior.csv", header, columns)
    errors = []
    for written in (None, (header, columns)):
        with pytest.raises(PlotSchemaError) as caught:
            plotting.render_plot(path, tmp_path / "plot.svg", written)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert errors[0].endswith(
        "column 'theta02_over_pi' line 3: expected a finite number, got 'inf'")


def test_emission_peak_is_under_twice_the_rows(tmp_path):
    # an fi-surface-sized heatmap, 81 theta1 x 61 steps: the CSV and the SVG
    # are streamed in blocks, so neither file's text is held whole.  Joining
    # every line and every rect held each file about three times over, and
    # render_plot's peak stood at 3.2 times the table passed as rows.  As
    # columns the table takes 0.69 of the rows' bytes (no tuple per row), and
    # the peak measures 1.84 times the columns (0.96 MB; 1.12 MB from rows)
    header = ("theta1_over_pi", "t", "value", "flagged")
    tracemalloc.start()
    try:
        columns = [[-1.0 + i / 40 for i in range(81) for _ in range(61)],
                   [float(t) for _ in range(81) for t in range(61)],
                   [(t * (i + 1)) ** 2 / 7.0 + 0.1 for i in range(81) for t in range(61)],
                   [t == 0 for _ in range(81) for t in range(61)]]
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        path = serialize.write_csv(tmp_path / "fi_surface.csv", header, columns)
        plotting.render_plot(path, tmp_path / "fi_surface.svg", (header, columns))
        peak = tracemalloc.get_traced_memory()[1] - size
    finally:
        tracemalloc.stop()
    assert peak < 2 * size
