"""Property tests: stalk reports do not depend on how the data is written.

Scaling the pairing by one nonzero rational, each cycle by its own, or
moving the cycles by a symplectic map of the pairing changes no rank,
skewness or orthogonality, so the failure names of ``validate``, the
report (or the precondition it fails) and the shape of the complex must all be
unchanged.  Examples are derandomised, so every run checks the same
cases.
"""

import random
from fractions import Fraction

import pytest

from nodalic import linalg, monodromy
from nodalic.errors import PreconditionError
from nodalic.monodromy import MonodromyData

from helpers import (
    random_monodromy_data,
    rational_cycles,
    rational_pairing,
    transvection,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    derandomize=True, database=None, deadline=None, max_examples=60
)
factors = st.fractions(min_value=-7, max_value=7, max_denominator=6).filter(bool)


@st.composite
def instances(draw):
    """Valid random data, sometimes with one arbitrary extra cycle."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    data = random_monodromy_data(rng, max_half_dim=3, max_delta=4)
    cycles = list(rational_cycles(data))
    if draw(st.booleans()):
        cycles.append(
            tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(data.dim))
        )
    return MonodromyData.from_rationals(
        dim=data.dim,
        pairing=rational_pairing(data),
        cycles=cycles,
        h_ambient=data.h_ambient,
    )


def outcome(data):
    """Everything a caller can observe, or the precondition that fails."""
    try:
        report = monodromy.ic_stalk(data)._asdict()
    except PreconditionError as err:
        report = str(err)
    try:
        complex_ = monodromy.build_stalk_complex(data)
        dims = (complex_.dim, complex_.delta, len(complex_.d0))
    except PreconditionError as err:
        dims = str(err)
    return monodromy.validate(data), report, dims


def rewritten(data, pairing, cycles):
    return MonodromyData.from_rationals(
        dim=data.dim, pairing=pairing, cycles=cycles, h_ambient=data.h_ambient
    )


@SETTINGS
@hypothesis.given(instances(), factors, st.lists(factors, min_size=5, max_size=5))
def test_rescaling_changes_nothing(data, pairing_factor, cycle_factors):
    pairing = [[pairing_factor * x for x in row] for row in rational_pairing(data)]
    cycles = [[t * x for x in c] for c, t in zip(rational_cycles(data), cycle_factors)]
    assert outcome(rewritten(data, pairing, cycles)) == outcome(data)


@SETTINGS
@hypothesis.given(
    instances(),
    st.lists(
        st.tuples(factors, st.lists(st.integers(-2, 2), min_size=6, max_size=6)),
        min_size=1,
        max_size=3,
    ),
)
def test_symplectic_change_of_basis_changes_nothing(data, moves):
    # each move is the transvection x -> x + t^2 <x, u> u, which keeps the
    # skew pairing; their product moves every cycle
    pairing = rational_pairing(data)
    cycles = [list(c) for c in rational_cycles(data)]
    for t, u in moves:
        u = [t * x for x in u[: data.dim]]
        move = transvection(pairing, u, 1)
        assert linalg.matmul(
            [list(column) for column in zip(*move)], linalg.matmul(pairing, move)
        ) == pairing
        cycles = [
            [sum(a * b for a, b in zip(row, c)) for row in move] for c in cycles
        ]
    assert outcome(rewritten(data, pairing, cycles)) == outcome(data)
