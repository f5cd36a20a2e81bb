"""The records the engines return: named tuples, frozen, with stable reprs.

Every record class is a ``collections.namedtuple`` subclass.  Its repr
is the one the earlier dataclass records printed, field by field, so
the expected strings below were recorded from those.  The one exception
is ``CompleteIntersectionThreshold``, which holds its bound as two ints
in lowest terms instead of a Fraction.  A record is a tuple: it can be
iterated and compares equal to a plain tuple of its values.
"""

import pytest

from nodalic import bott, cli, monodromy, points
from nodalic.errors import InputError, PreconditionError

STALK_DOC = {
    "dim": 2,
    "pairing": [[0, "1/2"], ["-1/2", 0]],
    "cycles": [[2, 0]],
    "h_ambient": 1,
}
POINTS_DOC = {"ambient_dim": 2, "points": [[1, 2, 1], ["1/2", 0, 1], [0, 1, 0]]}


def records():
    """One instance of each record class, with its expected repr."""
    resolution = bott.koszul_resolution(2, [2, 3])
    data = monodromy.MonodromyData.from_json(STALK_DOC)
    pts = points.ProjectivePointSet.from_json(POINTS_DOC)
    severi = (
        "({'N': 3, 'delta': 1, 'expected_dim': 2}, {'N': 4, 'delta': 0, 'expected_dim': 4}, "
        "{'N': 4, 'delta': 4, 'expected_dim': 0}, {'N': 5, 'delta': 2, 'expected_dim': 3}, "
        "{'N': 7, 'delta': 3, 'expected_dim': 4}, {'N': 9, 'delta': 4, 'expected_dim': 5})"
    )
    ci_cell = (
        "'chase_vanishes': True, 'exact_h1': 0, 'grid_h1': None, 'consistent': None, "
        "'expected_vanishes': True, 'matches': True}"
    )
    return [
        (
            bott.LineBundleSum.of([(-2, 2), (-3, 1)]),
            "LineBundleSum(summands=((-3, 1), (-2, 2)))",
        ),
        (
            resolution,
            "Resolution(ambient_dim=2, resolved_twist=0, terms=(LineBundleSum(summands="
            "((-3, 1), (-2, 1))), LineBundleSum(summands=((-5, 1),))))",
        ),
        (
            bott.h1_vanishing_chase(resolution, 3),
            "ChaseVerdict(target_twist=3, upper_bound=0, vanishes=True, exact_h1=0, "
            "obstructions=())",
        ),
        (
            bott.ci_threshold(3),
            "CompleteIntersectionThreshold(numerator=7, denominator=2, admissible_k=(2, 3))",
        ),
        (
            cli.paper_examples(max_n=2, max_k=3, max_h=1, grid_cap=0),
            "PaperExamplesReport(ci_table=({'n': 2, 'k': 2, 'delta': 1, " + ci_cell
            + ", {'n': 2, 'k': 3, 'delta': 4, " + ci_cell + "), en_table=({'n': 2, "
            "'h': 1, 'node_count': 3, 'chase_vanishes': True, 'expected_vanishes': True, "
            "'matches': True},), severi_samples=" + severi + ", all_match=True)",
        ),
        (
            data,
            "MonodromyData(dim=2, int_pairing=((0, 1), (-1, 0)), scale=2, "
            "int_cycles=((2, 0),), cycle_scales=(1,), functionals=((0, -2),), "
            "gram=((0,),), h_ambient=1, fiber_dim=None)",
        ),
        (
            monodromy.validate(data),
            "Diagnostics(skew=True, nondegenerate=True, cycles_nonzero=True, "
            "pairwise_orthogonal=True, failures=())",
        ),
        (
            monodromy.build_stalk_complex(data),
            "StalkComplex(dim=2, delta=1, d0=((0, 2),))",
        ),
        (
            monodromy.ic_stalk(data),
            "IcStalkReport(h0=1, h1=0, higher=(), span_dim=1, excision_rank=1, "
            "h_top_singular=1, defect=0, filtration=(0, 1))",
        ),
        (pts, "ProjectivePointSet(ambient_dim=2, vectors=((1, 2, 1), (1, 0, 2), (0, 1, 0)))"),
        (
            points.conditions_report(pts, 2),
            "ConditionsReport(delta=3, degree=2, h0_ambient=6, rank=3, h0_ideal=3, "
            "h1_ideal=0, independent=True)",
        ),
        (
            points.normal_crossing_check(pts),
            "NormalCrossingCheck(independent_branches=True, tangent_intersection_dim=-1, "
            "span_dim=2)",
        ),
    ]


def test_one_record_of_each_class():
    assert len({type(record) for record, _ in records()}) == 12


@pytest.mark.parametrize("index", range(12))
def test_repr(index):
    record, expected = records()[index]
    assert repr(record) == expected


@pytest.mark.parametrize("index", range(12))
def test_records_are_frozen(index):
    record, _ = records()[index]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == record[0]
    # every record class declares empty __slots__, so no instance holds
    # state beside its fields
    assert not hasattr(record, "__dict__")


def test_records_are_tuples():
    report = points.conditions_report(points.ProjectivePointSet.from_json(POINTS_DOC), 2)
    assert report == (3, 2, 6, 3, 3, 0, True)
    delta, *_, independent = report
    assert (delta, independent) == (3, True)


def test_optional_field_defaults_to_none():
    data = monodromy.MonodromyData.from_json(STALK_DOC)
    assert monodromy.MonodromyData(*data[:-1]) == data
    assert data.fiber_dim is None


def test_threshold_bound_is_in_lowest_terms():
    # (2n + 1) / (n - 1) is 9/3 at n = 4
    record = bott.ci_threshold(4)
    assert record == (3, 1, (2,))


class TestResolutionChecks:
    """``Resolution.__new__`` checks ambient_dim, then resolved_twist; the
    terms are LineBundleSum values, which check their own."""

    TERM = bott.LineBundleSum.of([(-2, 1)])

    def test_ambient_dim_before_terms(self):
        with pytest.raises(InputError, match="ambient_dim"):
            bott.Resolution(0, bott.MAX_TWIST + 1, ())

    def test_make_and_replace_check_too(self):
        with pytest.raises(InputError, match="^ambient_dim must be at least 1, got 0$"):
            bott.Resolution._make((0, 0, (self.TERM,)))
        with pytest.raises(PreconditionError, match="^twist out of range"):
            bott.Resolution(2, 0, (self.TERM,))._replace(resolved_twist=bott.MAX_TWIST + 1)

    def test_keywords_and_positions_agree(self):
        assert bott.Resolution(2, 0, (self.TERM,)) == bott.Resolution(
            terms=(self.TERM,), resolved_twist=0, ambient_dim=2
        )
