"""Property test: the Koszul chase bounds the explicit h1 of product grids.

A product grid with k - 1 distinct values on each of n axes is the
complete intersection of n forms of degree k - 1, so the chase over
their Koszul resolution bounds h1 of its ideal sheaf at every twist
d >= 0, and the evaluation rank gives that h1 exactly.  The bound must
never fall below it, and an exact value the chase certifies must equal
it.  Examples are derandomised, so every run checks the same cases.
"""

import pytest

from nodalic import bott, points

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    derandomize=True, database=None, deadline=None, max_examples=80
)
values = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def grids(draw):
    """(n, k, per-axis values, twist) with at most 64 grid points."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(2, 5 if n < 3 else 4))
    axis = st.lists(values, min_size=k - 1, max_size=k - 1, unique=True)
    axes = [draw(axis) for _ in range(n)]
    d = draw(st.integers(0, n * (k - 2) + 2))
    return n, k, axes, d


@SETTINGS
@hypothesis.given(grids())
def test_chase_bounds_the_explicit_h1(case):
    n, k, axes, d = case
    h1 = points.conditions_report(points.grid_nodes(n, k, axes), d).h1_ideal
    verdict = bott.h1_vanishing_chase(bott.koszul_resolution(n, [k - 1] * n), d)
    assert verdict.upper_bound >= h1
    assert verdict.exact_h1 in (None, h1)
