"""SVG rendering: pinned bytes for every plot kind, and cells that cannot place a mark."""

import hashlib

import pytest

from qwsense import cli

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
