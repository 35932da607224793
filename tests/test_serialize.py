"""CSV writing: a table passed as columns gets every cell format_value's bytes, block
by block, and a failed write leaves no partial file."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsense.serialize import CSV_BLOCK, atomic_write_text, format_value, write_csv

FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -3.0, 1e15, 9999999999999998.0, 1e16, -1e16, 1e300, 5e-324]
)
CELLS = st.one_of(FLOATS, st.integers(-(10**20), 10**20), st.booleans(), st.none(),
                  st.text("abc_-", max_size=3))
# few values, so cells repeat: a column of one type formats each distinct value
# once, and equal values of different types (1, 1.0, True; 1e16 and 10**16)
# must keep their own bytes.  float("nan") and float("-0.0") are new objects.
REPEATS = [
    st.sampled_from([0.0, -0.0, 1.0, 9999999999999998.0, 1e16, -1e16, 2e16, math.inf,
                     -math.inf, math.nan, 0.1]) | st.builds(float, st.sampled_from(["nan", "-0.0"])),
    st.sampled_from([0, 1, -7, 10**16, 10**20]),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 10**16, 1e16, math.nan, None,
                     np.float64(1.0), np.float64(-0.0), np.int64(1), np.bool_(True), "1"]),
    st.sampled_from([np.float64(0.5), np.float64(-0.0), np.float64(1e16), np.float64(3.0)]),
]
# a column of one kind takes its type's formatter; a mixed one, format_value
COLUMNS = st.sampled_from([FLOATS, st.integers(-(10**20), 10**20), st.booleans(), CELLS,
                           *REPEATS])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(1, 5), height=st.integers(0, 12))
def test_columns_keep_each_cells_bytes(tmp_path_factory, data, width, height):
    kinds = [data.draw(COLUMNS) for _ in range(width)]
    columns = [[data.draw(kind) for _ in range(height)] for kind in kinds]
    header = [f"c{i}" for i in range(width)]
    path = write_csv(tmp_path_factory.mktemp("csv") / "out.csv", header, columns)
    expected = [",".join(header)] + [",".join(map(format_value, row)) for row in zip(*columns)]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


# (numpy scalar, its Python equivalent): a column of one kind writes its
# Python twin through that type's column formatter, a mixed one cell by cell
NUMPY_KINDS = [
    FLOATS.map(lambda v: (np.float64(v), v)),
    st.floats(width=32).map(lambda v: (np.float32(v), v)),
    st.integers(-(2**63), 2**63 - 1).map(lambda v: (np.int64(v), v)),
    st.integers(0, 255).map(lambda v: (np.uint8(v), v)),
    st.booleans().map(lambda v: (np.bool_(v), v)),
]
NUMPY_COLUMNS = st.sampled_from([*NUMPY_KINDS, st.one_of(NUMPY_KINDS)])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), height=st.integers(0, 6))
def test_numpy_scalars_format_like_their_python_values(tmp_path_factory, data, width, height):
    kinds = [data.draw(NUMPY_COLUMNS) for _ in range(width)]
    pairs = [[data.draw(kind) for _ in range(height)] for kind in kinds]
    for numpy_value, python_value in (pair for column in pairs for pair in column):
        assert format_value(numpy_value) == format_value(python_value)
    header = [f"c{i}" for i in range(width)]
    folder = tmp_path_factory.mktemp("csv")
    as_numpy = write_csv(folder / "numpy.csv", header, [[n for n, _ in col] for col in pairs])
    as_python = write_csv(folder / "python.csv", header, [[v for _, v in col] for col in pairs])
    assert as_numpy.read_bytes() == as_python.read_bytes()


def test_integral_floats_below_1e16_are_written_as_integers(tmp_path):
    # 9999999999999998.0 is the largest float below 1e16
    assert format_value(1e16) == "1e+16"
    assert format_value(9999999999999998.0) == "9999999999999998"
    path = write_csv(tmp_path / "out.csv", ["x"], [[1e16, 9999999999999998.0]])
    assert path.read_text() == "x\n1e+16\n9999999999999998\n"


def test_rows_of_different_lengths_are_rejected(tmp_path):
    # the table's columns must hold one cell per row each
    with pytest.raises(ValueError, match="column 1 has 1 cells, column 0 has 2"):
        write_csv(tmp_path / "out.csv", ("a", "b"), [[1, 3], [2.5]])


def one_string_csv(header, rows):
    """Reference: the whole file as one string, each cell ``format_value``'s bytes."""
    lines = [",".join(header)] + [",".join(map(format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("height", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                                    2 * CSV_BLOCK + 1])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), width=st.integers(1, 4))
def test_block_boundaries_keep_the_bytes(tmp_path_factory, height, data, width):
    # a few values per column, so that each block formats repeated values once
    pools = [data.draw(st.lists(data.draw(st.sampled_from(REPEATS)), min_size=1, max_size=4))
             for _ in range(width)]
    rng = data.draw(st.randoms(use_true_random=True))  # seeded by hypothesis
    columns = [[rng.choice(pool) for _ in range(height)] for pool in pools]
    header = [f"c{i}" for i in range(width)]
    path = write_csv(tmp_path_factory.mktemp("csv") / "out.csv", header, columns)
    assert path.read_text(encoding="utf-8") == one_string_csv(header, zip(*columns))


@pytest.mark.parametrize("ragged", [CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK])
def test_rows_that_differ_across_a_block_boundary_are_rejected(tmp_path, ragged):
    # the short column runs out only past a block boundary: the check before
    # the first block sees it, and no block is written
    columns = [[1] * (2 * CSV_BLOCK + 1), [2.5] * ragged]
    with pytest.raises(ValueError, match=f"column 1 has {ragged} cells, column 0 has "
                                         f"{2 * CSV_BLOCK + 1}"):
        write_csv(tmp_path / "out.csv", ("a", "b"), columns)
    assert list(tmp_path.iterdir()) == []


def failing_chunks():
    yield "first chunk\n"
    raise RuntimeError("the chunk source failed")


@pytest.mark.parametrize("existing", [None, b"old,bytes\n"])
def test_a_failed_stream_leaves_nothing_partial(tmp_path, existing):
    target = tmp_path / "out.csv"
    if existing is not None:
        target.write_bytes(existing)
    with pytest.raises(RuntimeError, match="the chunk source failed"):
        atomic_write_text(target, failing_chunks())
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["out.csv"])
    if existing is not None:
        assert target.read_bytes() == existing


def test_a_str_and_its_chunks_write_the_same_bytes(tmp_path):
    text = "a,b\n1,\u00e9\n" * 3
    whole = atomic_write_text(tmp_path / "whole.csv", text)
    chunks = atomic_write_text(tmp_path / "chunks.csv", iter(text.splitlines(keepends=True)))
    assert whole.read_bytes() == chunks.read_bytes() == text.encode("utf-8")
