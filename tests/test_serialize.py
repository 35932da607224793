"""CSV writing: column-wise formatting gives every cell format_value's bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsense.serialize import format_value, write_csv

FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -3.0, 1e15, 9999999999999998.0, 1e16, -1e16, 1e300, 5e-324]
)
CELLS = st.one_of(FLOATS, st.integers(-(10**20), 10**20), st.booleans(), st.none(),
                  st.text("abc_-", max_size=3))
# a column of one kind takes its type's formatter; a mixed one, format_value
COLUMNS = st.sampled_from([FLOATS, st.integers(-(10**20), 10**20), st.booleans(), CELLS])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), width=st.integers(1, 5), height=st.integers(0, 8))
def test_columns_keep_each_cells_bytes(tmp_path_factory, data, width, height):
    kinds = [data.draw(COLUMNS) for _ in range(width)]
    rows = [tuple(data.draw(kind) for kind in kinds) for _ in range(height)]
    header = [f"c{i}" for i in range(width)]
    path = write_csv(tmp_path_factory.mktemp("csv") / "out.csv", header, rows)
    expected = [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_rows_of_different_lengths_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", ("a", "b"), [(1, 2.5), (3,)])
