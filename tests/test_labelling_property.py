"""Property test: the node labelling against a Fraction oracle, on both key paths.

``points._node_labelling`` keys each ratio x_i/h by the int x_i * (L // h),
L the lcm of the set's nonzero h, and past ``points._MAX_SCALE_BITS``
bits of L by the reduced ``(p, q)``.  Both must give the nodes, runs and
point order of :func:`helpers.ratio_labelling`.  The documents mix h < 0,
h = 0 and x_i = 0, and literals such as "2/4" and "1/2" whose ratios are
equal only once read.  Examples are derandomised, so every run checks the
same cases.
"""

from fractions import Fraction

import pytest

from nodalic import points

from helpers import ratio_labelling

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    derandomize=True, database=None, deadline=None, max_examples=150
)
LITERALS = (0, 1, -1, 2, -3, "0/5", "1/2", "2/4", "-3/6", "3/2", "-2/3", "4/6", "5")
LAST = (0, 0, 1, -1, 2, -2, "1/2", "-4/2", "3/9")


@st.composite
def documents(draw):
    """A point-set document of 1 to 30 distinct points of P^n, n <= 3."""
    n = draw(st.integers(1, 3))
    point = st.tuples(
        st.lists(st.sampled_from(LITERALS), min_size=n, max_size=n), st.sampled_from(LAST)
    )
    distinct = {}
    for xs, h in draw(st.lists(point, min_size=1, max_size=30)):
        vector = [Fraction(x) for x in (*xs, h)]
        if any(vector):
            lead = next(x for x in vector if x)
            distinct.setdefault(tuple(x / lead for x in vector), [*xs, h])
    return {"ambient_dim": n, "points": list(distinct.values())}


def check(doc):
    pts = points.ProjectivePointSet.from_json(doc)
    assert points._node_labelling(pts) == ratio_labelling(pts)


@SETTINGS
@hypothesis.given(documents())
def test_int_keys_match_the_oracle(doc):
    check(doc)


@SETTINGS
@hypothesis.given(documents())
def test_reduced_pair_keys_match_the_oracle(doc):
    # no lcm fits in 0 bits, so every set takes the (p, q) keys
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(points, "_MAX_SCALE_BITS", 0)
        check(doc)
