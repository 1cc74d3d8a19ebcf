"""csv_lines against the "%.17g" reference writer on drawn tables."""

import numpy as np
import pytest

from gainlab import modelio
from gainlab.modelio import csv_lines
from gainlab_testkit import assert_same_text, reference_csv_lines

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Finite values at the edges of the exponent range and of the fixed layout.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
         1e-310, 1e-300, -1e-300, 1e-301, 1e300, -1e300, 1e299, 1.7976931348623157e308,
         1e-5, 1e-4, 9.999999999999999e16, 1e16, 1e17, 0.1, 0.5, 1.0, 123456.0]


@st.composite
def tables(draw):
    """A (rows, columns) table: the row count just under, at or over the
    smallest table _g17_lines prints, one chunk or two, or any up to three
    chunks; values of every binary exponent, subnormals included, with
    drawn finite floats and EDGES placed among them."""
    columns = draw(st.integers(1, 8))
    cut, chunk = -(-modelio._CSV_ARRAY_VALUES // columns), modelio._CSV_CHUNK // columns
    near = [base + d for base in (cut, chunk, 2 * chunk) for d in (-1, 0, 1)]
    rows = draw(st.one_of(st.sampled_from([0, 1, *near]), st.integers(0, 3 * chunk)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = rows * columns
    values = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-1074, 1024, size))
    values *= rng.choice([-1.0, 1.0], size)
    finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
    planted = draw(st.lists(finite, max_size=20))
    if size:
        values[rng.integers(0, size, len(planted))] = planted
    return values.reshape(rows, columns)


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(tables())
def test_csv_lines_matches_percent_reference(table):
    header = [f"c{i}" for i in range(table.shape[1])]
    assert_same_text(csv_lines(header, table), reference_csv_lines(header, table))
