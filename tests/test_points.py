import json
import random
import time
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest

from nodalic import cli, linalg, points
from nodalic.errors import InputError, PreconditionError

from helpers import (
    NoFraction,
    kernel_rank,
    lead_one,
    monomial_basis,
    primitive_vectors,
    random_invertible,
    rational_grid,
)

COLLINEAR = [(1, 0, 0), (1, 1, 0), (1, 2, 0)]


def point_set(ambient_dim, coords):
    return points.ProjectivePointSet.from_coordinates(ambient_dim, coords)


class TestPointSet:
    def test_normalization(self):
        pts = point_set(2, [(0, 3, 6), (2, 4, 8)])
        assert pts.vectors == ((0, 1, 2), (1, 2, 4))

    def test_duplicates_rejected(self):
        with pytest.raises(InputError, match="coincide"):
            point_set(2, [(1, 1, 1), (2, 2, 2)])

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError, match="zero vector"):
            point_set(2, [(0, 0, 0)])

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError):
            point_set(2, [(1, 0)])

    def test_delta_counts_points(self):
        assert point_set(3, [(1, 0, 0, 0), (0, 1, 0, 0)]).delta == 2

    def test_json_round_trip(self):
        pts = point_set(2, [(1, Fraction(1, 2), 3), (0, 0, 5)])
        doc = pts.to_json()
        assert doc["points"][0] == [1, "1/2", 3]
        assert points.ProjectivePointSet.from_json(doc) == pts

    def test_json_matches_the_fraction_form(self):
        rng = random.Random(331)
        values = [0, 0, 1, -1, 2, -6, Fraction(1, 2), Fraction(-3, 4), Fraction(10, 9)]
        for _ in range(60):
            n = rng.randint(1, 4)
            coords = {}
            while len(coords) < rng.randint(1, 12):
                vector = [rng.choice(values) for _ in range(n + 1)]
                if any(vector):
                    lead = next(x for x in vector if x)
                    coords.setdefault(tuple(x / lead for x in vector), vector)
            pts = point_set(n, list(coords.values()))
            expected = [[linalg.rational_to_json(x) for x in p] for p in lead_one(pts)]
            assert pts.to_json() == {"ambient_dim": n, "points": expected}
        # a lead that is not the first coordinate, and entries it does not divide
        pts = point_set(2, [(0, 6, -4), (0, 0, -3), (0, Fraction(-4, 3), 2)])
        assert pts.to_json()["points"] == [[0, 1, "-2/3"], [0, 0, 1], [0, 1, "-3/2"]]

    def test_json_exact_keys(self):
        doc = point_set(1, [(1, 0)]).to_json()
        doc["note"] = "x"
        with pytest.raises(InputError):
            points.ProjectivePointSet.from_json(doc)

    def test_vectors_are_primitive_with_positive_lead(self):
        pts = point_set(2, [(0, -3, 6), (Fraction(-1, 2), 1, Fraction(3, 4))])
        assert pts.vectors == ((0, 1, -2), (2, -4, -3))

    def test_rescaling_gives_equal_sets(self):
        rng = random.Random(313)
        factors = [-1, -3, Fraction(1, 2), Fraction(-5, 7), Fraction(7, 3)]
        for _ in range(20):
            n = rng.randint(1, 3)
            coords = {
                tuple(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n + 1)
                )
                for _ in range(rng.randint(1, 6))
            }
            coords.discard((0,) * (n + 1))
            try:
                pts = point_set(n, sorted(coords))
            except InputError:
                continue  # two of the vectors are proportional
            scaled = []
            for p in sorted(coords):
                factor = rng.choice(factors)
                scaled.append([factor * x for x in p])
            again = point_set(n, scaled)
            assert again == pts
            doc = {
                "ambient_dim": n,
                "points": [[linalg.rational_to_json(x) for x in p] for p in scaled],
            }
            parsed = points.ProjectivePointSet.from_json(doc)
            assert parsed == pts

    @pytest.mark.parametrize(
        "coords, message",
        [
            ([[0, "0/3", 0]], "point 0 is the zero vector"),
            ([[1, "1/0", 1]], "zero denominator: '1/0'"),
            (
                [[1, 1, 1], [-2, "-2", "-6/3"]],
                "points 0 and 1 coincide as projective points",
            ),
            ([[1, 1.5, 1]], 'expected an integer or "a/b" string, got float: 1.5'),
            # every literal is parsed before any point is checked
            (
                [[0, 0, 0], [1, 1.5, 1]],
                'expected an integer or "a/b" string, got float: 1.5',
            ),
            ([[1, 2], [1, "1/0", 1]], "zero denominator: '1/0'"),
            # literals are parsed once each, but true never passes for 1
            # nor 1.0 for 1, and a list is no literal
            ([[1, 1, 1], [1, True, 2]], 'expected an integer or "a/b" string, got bool: True'),
            ([[1, 2, 1], [2, 1.0, 1]], 'expected an integer or "a/b" string, got float: 1.0'),
            ([[True, 1, 1], [1, 1, 1]], 'expected an integer or "a/b" string, got bool: True'),
            (
                [["1/2", 1, 1], [1, ["1/2"], 1]],
                "expected an integer or \"a/b\" string, got list: ['1/2']",
            ),
            ([[1, 2, 3], [1, 2, None]], 'expected an integer or "a/b" string, got NoneType: None'),
            # then point by point: not an array, wrong length, zero, repeated
            ([[1, 2, 3], [0, "0/5", 0], [1, 1, 1], [1, 2]], "point 1 is the zero vector"),
            (
                [[1, 2, 3], [4, 5, 6], ["2/2", "4/2", 3], [7, 8, 9], [0, 0, 0]],
                "points 0 and 2 coincide as projective points",
            ),
            ([[1, 2, 3], [1, 2], [-2, -4, "-6"]], "point 1 has 2 coordinates, expected 3"),
            ([[1, 2], [0, 0, 0], [1, 2, 3]], "point 0 has 2 coordinates, expected 3"),
            ([[1, 2, 3], [0, 0, 0], [2, 4, 6]], "point 1 is the zero vector"),
            # a point that is not an array stops the literal scan
            ([[1, 2, 3], 5, [1, 1.5, 1]], "point 1 is not an array"),
            ([[1, "x", 1], "abc", [1, 2, 3]], "not a rational literal: 'x'"),
            ([[0, 0, 0], [1, 2], {"x": 1}], "point 2 is not an array"),
        ],
    )
    def test_document_error_messages(self, coords, message):
        doc = {"ambient_dim": 2, "points": coords}
        with pytest.raises(InputError) as err:
            points.ProjectivePointSet.from_json(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "coords, message",
        [
            ([(1, 2, 3), (0, 0, 0), (1, 1, 1), (1, 2)], "point 1 is the zero vector"),
            (
                [(1, 2, 3), (4, 5, 6), (Fraction(1, 2), 1, Fraction(3, 2)), (7, 8, 9), (0, 0, 0)],
                "points 0 and 2 coincide as projective points",
            ),
            ([(1, 2, 3), (1, 2), (-2, -4, -6)], "point 1 has 2 coordinates, expected 3"),
            ([(1, 2, 3), 5, (1, 1.5, 1)], "point 1 is not a coordinate vector"),
            ([(1, 1.5, 1), 5], "expected an int or Fraction, got float: 1.5"),
            # an entry's type is checked after the earlier points
            ([(0, 0, 0), (1, 1.5, 1)], "point 0 is the zero vector"),
            ([(1, 2, 3), (2, 4, 6), (1, True, 1)], "points 0 and 1 coincide as projective points"),
            ([(1, 2, 3), (1, 2, 1.5), (0, 0, 0)], "expected an int or Fraction, got float: 1.5"),
            # point order, not column order
            ([(1, 2, 3), (1, 2, 1.5), ("x", 1, 1)], "expected an int or Fraction, got float: 1.5"),
            ([(1, 2, 3), (1, 2, 4), (1, 2)], "point 2 has 2 coordinates, expected 3"),
        ],
    )
    def test_coordinate_error_order(self, coords, message):
        with pytest.raises(InputError) as err:
            point_set(2, coords)
        assert str(err.value) == message

    def test_coordinate_error_messages(self):
        with pytest.raises(InputError) as err:
            point_set(2, [(1, 2, 3), (1, 1.5, 1)])
        assert str(err.value) == "expected an int or Fraction, got float: 1.5"
        with pytest.raises(InputError) as err:
            point_set(2, [(1, 2), (1, 1.5, 1)])
        assert str(err.value) == "point 0 has 2 coordinates, expected 3"


class TestColumnBuild:
    """The column-wise build of all three constructors against a per-point oracle.

    :func:`helpers.primitive_vectors` applies the textbook lcm, content
    and sign rule point by point, and raises the first zero or repeated
    point; the constructors must give the same vectors or the same error.
    """

    VALUES = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))

    @staticmethod
    def matches_oracle(build, coordinates):
        """Assert that ``build()`` agrees with the oracle; True if it built a set."""
        try:
            expected = primitive_vectors(coordinates)
        except InputError as err:
            with pytest.raises(InputError) as got:
                build()
            assert str(got.value) == str(err)
            return False
        assert build().vectors == expected
        return True

    def value(self, rng):
        if rng.random() < 0.7:
            return rng.choice(self.VALUES)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def random_set(self, rng):
        n = rng.randint(1, 4)
        delta = rng.choice((0, 1, 2, 5, 9, 14, 40))
        return n, [[self.value(rng) for _ in range(n + 1)] for _ in range(delta)]

    def test_from_coordinates(self):
        rng = random.Random(1901)
        built = 0
        for _ in range(250):
            n, coords = self.random_set(rng)
            # ints as ints, and as Fractions with denominator 1
            coords = [[rng.choice((x, Fraction(x))) for x in point] for point in coords]
            built += self.matches_oracle(lambda: point_set(n, coords), coords)
        # both outcomes occur: sets built, and zero or repeated points
        assert 20 <= built <= 230

    def test_from_json(self):
        rng = random.Random(1903)

        def spelling(x):
            m = rng.choice((1, 1, 2, 3))
            forms = [f"{x.numerator * m}/{x.denominator * m}"]
            if x.denominator == 1:
                forms += [x.numerator, x.numerator, str(x.numerator), f"{x.numerator:+d}"]
            return rng.choice(forms)

        built = 0
        for _ in range(250):
            n, coords = self.random_set(rng)
            doc = {"ambient_dim": n, "points": [[spelling(Fraction(x)) for x in p] for p in coords]}
            built += self.matches_oracle(
                lambda: points.ProjectivePointSet.from_json(doc), doc["points"]
            )
        # both outcomes occur: sets built, and zero or repeated points
        assert 20 <= built <= 230

    def test_grid_nodes(self):
        rng = random.Random(1907)
        for _ in range(120):
            n, k = rng.randint(1, 3), rng.randint(2, 5)
            axes = []
            while len(axes) < n:
                axis = {self.value(rng) for _ in range(k - 1)}
                if len(axis) == k - 1:
                    axes.append([rng.choice((x, Fraction(x))) for x in axis])
            coords = [list(choice) + [1] for choice in product(*axes)]
            assert self.matches_oracle(lambda: rational_grid(n, axes), coords)
        default = list(product([1, 2, 3], [1, 2, 3], [1, 2, 3], [1]))
        assert self.matches_oracle(lambda: points.grid_nodes(3, 4), default)


class TestMonomialBasis:
    def test_counts(self):
        assert len(monomial_basis(2, 1)) == 3
        assert len(monomial_basis(2, 4)) == 15
        assert len(monomial_basis(3, 2)) == 10

    def test_count_formula(self):
        for n in range(1, 5):
            for d in range(0, 6):
                assert len(monomial_basis(n, d)) == comb(n + d, n)

    def test_degrees_and_order(self):
        for n in range(1, 4):
            for d in range(0, 5):
                mons = monomial_basis(n, d)
                assert all(sum(e) == d for e in mons)
                assert mons == sorted(mons)
                assert len(set(mons)) == len(mons)

    def test_degree_zero(self):
        assert monomial_basis(3, 0) == [(0, 0, 0, 0)]


class TestEvaluationMatrix:
    def test_single_point_degree_zero(self):
        pts = point_set(2, [(1, 2, 3)])
        matrix = points.evaluation_matrix(pts, 0)
        assert matrix == [[Fraction(1)]]
        assert linalg.rank(matrix, 1) == 1

    def test_entries_are_the_monomials_in_basis_order(self):
        rng = random.Random(809)
        for n in range(1, 5):
            for d in range(0, 6):
                # one point per projective class, keyed by its lead-1 form
                distinct = {}
                for _ in range(6):
                    c = [rng.randint(-7, 7) for _ in range(n + 1)]
                    if any(c):
                        lead = next(x for x in c if x)
                        distinct.setdefault(tuple(Fraction(x, lead) for x in c), c)
                pts = point_set(n, list(distinct.values()))
                expected = [
                    [prod(x**e for x, e in zip(vector, mon)) for mon in monomial_basis(n, d)]
                    for vector in pts.vectors
                ]
                assert points.evaluation_matrix(pts, d) == expected

    def test_collinear_points_drop_rank(self):
        pts = point_set(2, COLLINEAR)
        assert linalg.rank(points.evaluation_matrix(pts, 1), 3) == 2

    def test_coordinate_points_full_rank(self):
        pts = point_set(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert linalg.rank(points.evaluation_matrix(pts, 1), 3) == 3

    def test_rank_invariances(self):
        rng = random.Random(808)
        for _ in range(15):
            n = rng.randint(1, 3)
            delta = rng.randint(1, 5)
            d = rng.randint(1, 3)
            while True:
                try:
                    pts = point_set(
                        n,
                        [
                            [rng.randint(-3, 3) for _ in range(n + 1)]
                            for _ in range(delta)
                        ],
                    )
                    break
                except InputError:
                    continue
            width = comb(n + d, n)
            base = linalg.rank(points.evaluation_matrix(pts, d), width)

            shuffled = list(pts.vectors)
            rng.shuffle(shuffled)
            scaled = []
            for p in shuffled:
                factor = Fraction(rng.choice([1, 2, -1, 5]))
                scaled.append([factor * x for x in p])
            again = point_set(n, scaled)
            assert linalg.rank(points.evaluation_matrix(again, d), width) == base

            change = random_invertible(rng, n + 1)
            moved = point_set(
                n,
                [
                    [
                        sum(change[i][j] * p[j] for j in range(n + 1))
                        for i in range(n + 1)
                    ]
                    for p in pts.vectors
                ],
            )
            assert linalg.rank(points.evaluation_matrix(moved, d), width) == base


class TestConditionsReport:
    def test_collinear_dependent(self):
        report = points.conditions_report(point_set(2, COLLINEAR), 1)
        assert report.rank == 2
        assert report.h1_ideal == 1
        assert not report.independent
        assert report.h0_ideal == 1

    def test_grid_nine_points_degree_four(self):
        report = points.conditions_report(points.grid_nodes(2, 4), 4)
        assert report.delta == 9
        assert report.rank == 9
        assert report.h1_ideal == 0
        assert report.independent

    def test_grid_sixteen_points_degree_five(self):
        report = points.conditions_report(points.grid_nodes(2, 5), 5)
        assert report.delta == 16
        assert report.h0_ambient == 21
        assert report.rank == 15
        assert report.h1_ideal == 1
        assert not report.independent

    def test_bookkeeping_identities(self):
        rng = random.Random(909)
        for _ in range(20):
            n = rng.randint(1, 3)
            while True:
                try:
                    pts = point_set(
                        n,
                        [
                            [rng.randint(-2, 2) for _ in range(n + 1)]
                            for _ in range(rng.randint(1, 6))
                        ],
                    )
                    break
                except InputError:
                    continue
            d = rng.randint(0, 3)
            report = points.conditions_report(pts, d)
            assert report.h0_ideal + report.rank == report.h0_ambient
            assert report.h1_ideal >= 0
            assert report.independent == (report.h1_ideal == 0)
            assert report.independent == (report.rank == report.delta)
            if report.independent:
                assert report.h0_ideal == report.h0_ambient - report.delta

    def test_json_fields(self):
        doc = points.conditions_report(points.grid_nodes(2, 3), 2)._asdict()
        assert set(doc) == {
            "delta", "degree", "h0_ambient", "rank",
            "h0_ideal", "h1_ideal", "independent",
        }


class TestSpanAndCrossing:
    def test_collinear_span_line(self):
        pts = point_set(3, [(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)])
        assert points.node_span_dim(pts) == 1

    def test_coordinate_points_span(self):
        for delta in range(1, 5):
            coords = [
                [1 if j == i else 0 for j in range(5)] for i in range(delta)
            ]
            assert points.node_span_dim(point_set(4, coords)) == delta - 1

    def test_grid_spans_plane(self):
        assert points.node_span_dim(points.grid_nodes(2, 3)) == 2

    def test_node_span_dim_names_itself_in_its_type_error(self):
        # node_span_dim has no type guard of its own: a value that is no
        # point set fails on the first field it reads, from inside the call
        for run in (points.node_span_dim, points.normal_crossing_check):
            with pytest.raises(AttributeError, match="delta") as err:
                run([(1, 0)])
            assert run.__name__ in {entry.name for entry in err.traceback}

    def test_point_reports_checks_in_the_order_of_conditions_report(self):
        pts = point_set(2, COLLINEAR)
        with pytest.raises(InputError, match="d must be"):
            points.point_reports(pts, True)
        with pytest.raises(PreconditionError) as err:
            points.point_reports(pts, 140)
        assert str(err.value) == points.FAIL_MONOMIALS
        # a value that is no point set has no fields to read
        for run in (points.point_reports, points.conditions_report):
            with pytest.raises(AttributeError, match="ambient_dim"):
                run([(1, 0)], 2)

    def test_two_coordinate_points_cross_normally(self):
        pts = point_set(3, [(1, 0, 0, 0), (0, 1, 0, 0)])
        check = points.normal_crossing_check(pts)
        assert check.independent_branches
        assert check.tangent_intersection_dim == 1

    def test_collinear_branches_dependent(self):
        pts = point_set(3, [(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)])
        check = points.normal_crossing_check(pts)
        assert not check.independent_branches
        assert check.tangent_intersection_dim == 1

    def test_single_point(self):
        for big_n in range(1, 5):
            pts = point_set(big_n, [[1] * (big_n + 1)])
            check = points.normal_crossing_check(pts)
            assert check.independent_branches
            assert check.tangent_intersection_dim == big_n - 1

    def test_crossing_matches_degree_one_conditions(self):
        rng = random.Random(111)
        for _ in range(25):
            big_n = rng.randint(1, 5)
            while True:
                try:
                    pts = point_set(
                        big_n,
                        [
                            [rng.randint(-2, 2) for _ in range(big_n + 1)]
                            for _ in range(rng.randint(1, big_n))
                        ],
                    )
                    break
                except InputError:
                    continue
            crossing = points.normal_crossing_check(pts)
            report = points.conditions_report(pts, 1)
            assert crossing.independent_branches == report.independent
            assert crossing.tangent_intersection_dim == big_n - report.rank


class TestSeveriDim:
    def test_samples(self):
        assert points.severi_expected_dim(5, 2) == 3
        assert points.severi_expected_dim(7, 0) == 7
        assert points.severi_expected_dim(4, 4) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            points.severi_expected_dim(3, 4)
        with pytest.raises(InputError):
            points.severi_expected_dim(3, -1)


class TestGridNodes:
    def test_minimal_grid(self):
        pts = points.grid_nodes(2, 2)
        assert pts.vectors == ((1, 1, 1),)

    def test_counts(self):
        assert points.grid_nodes(2, 4).delta == 9
        assert points.grid_nodes(3, 3).delta == 8
        for n in range(1, 4):
            for k in range(2, 5):
                assert points.grid_nodes(n, k).delta == (k - 1) ** n
                assert points.grid_nodes(n, k).delta == points.node_count_ci(n, k)

    def test_default_coordinates(self):
        # stored in product order; the JSON scales each first coordinate to 1
        pts = points.grid_nodes(2, 3)
        assert pts.vectors == ((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1))
        assert pts.to_json()["points"] == [
            [1, 1, 1], [1, 2, 1], [1, "1/2", "1/2"], [1, 1, "1/2"],
        ]

    def test_points_lie_on_default_grid(self):
        n, k = 3, 3
        for p in points.grid_nodes(n, k).vectors:
            assert p[-1] == 1
            assert all(x in range(1, k) for x in p[:-1])

    def test_default_grid_builds_no_fraction(self, monkeypatch):
        shapes = [(1, 2), (1, 5), (2, 4), (3, 3), (4, 4)]
        expected = {
            (n, k): points.ProjectivePointSet.from_coordinates(
                n,
                [list(c) + [1] for c in product(range(1, k), repeat=n)],
            ).vectors
            for n, k in shapes
        }
        assert not hasattr(points, "Fraction")
        monkeypatch.setattr(linalg, "Fraction", NoFraction)
        for n, k in shapes:
            assert points.grid_nodes(n, k).vectors == expected[n, k]

    def test_k_below_two_rejected(self):
        with pytest.raises(InputError):
            points.grid_nodes(2, 1)

    def test_h1_monotone_in_degree(self):
        # observed regularity of the grid family, not asserted in general
        for k in range(2, 6):
            pts = points.grid_nodes(2, k)
            values = [
                points.conditions_report(pts, d).h1_ideal
                for d in range(1, k + 3)
            ]
            assert values == sorted(values, reverse=True)
            assert values[-1] == 0


class TestNodeCounts:
    def test_quadric_counts(self):
        for n in range(1, 6):
            assert points.node_count_quadrics(n, 1) == n + 1
            assert points.node_count_quadrics(n, 2) == (n + 1) * (n + 2) // 2
        assert points.node_count_quadrics(3, 2) == 10

    def test_ci_counts(self):
        assert points.node_count_ci(2, 4) == 9
        assert points.node_count_ci(3, 3) == 8
        assert points.node_count_ci(5, 2) == 1

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            points.node_count_ci(2, 1)
        with pytest.raises(InputError):
            points.node_count_quadrics(2, 0)


class TestSizeBounds:
    # the oversized requests are checked by arithmetic on n, k and d, so
    # these tests build nothing of their size
    def test_monomial_bound_is_inclusive(self):
        assert len(monomial_basis(1, points.MAX_MONOMIALS - 1)) == (
            points.MAX_MONOMIALS
        )
        with pytest.raises(PreconditionError) as err:
            monomial_basis(1, points.MAX_MONOMIALS)
        assert str(err.value) == points.FAIL_MONOMIALS

    def test_huge_degree_fails_by_name(self):
        pts = point_set(2, [(1, 2, 3)])
        for n, d in ((10**9, 10**9), (2, 10**12), (10**12, 1)):
            with pytest.raises(PreconditionError, match="too many monomials"):
                monomial_basis(n, d)
        with pytest.raises(PreconditionError, match="too many monomials"):
            points.conditions_report(pts, 10**9)

    def test_grid_bound_is_inclusive(self, monkeypatch):
        # 4 points of 3 coordinates, and 1 point of 12
        monkeypatch.setattr(points, "MAX_GRID_COORDINATES", 12)
        assert points.grid_nodes(2, 3).delta == 4
        assert points.grid_nodes(11, 2).delta == 1
        with pytest.raises(PreconditionError) as err:
            points.grid_nodes(2, 4)
        assert str(err.value) == points.FAIL_GRID_SIZE
        with pytest.raises(PreconditionError):
            points.grid_nodes(12, 2)

    def test_huge_grid_fails_by_name(self):
        for n, k in ((10**9, 2), (10**9, 3), (2, 10**12), (60, 3)):
            with pytest.raises(PreconditionError, match="grid too large"):
                points.grid_nodes(n, k)

    def test_paper_example_sizes_pass(self):
        # the largest default paper-examples grid, 625 points on 210 monomials
        assert len(monomial_basis(4, 6)) == 210
        assert points.grid_nodes(4, 6).delta == 625


def monomial_rows(pts, d):
    """Point-major evaluation, one product per entry, from monomial_basis."""
    basis = monomial_basis(pts.ambient_dim, d)
    return [[prod(map(pow, vector, mon)) for mon in basis] for vector in pts.vectors]


def random_point_set(rng, n, delta, bound):
    """``delta`` distinct points with coordinates in [-bound, bound]."""
    seen = {}
    while len(seen) < delta:
        vector = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if any(vector):
            lead = next(x for x in vector if x)
            seen.setdefault(tuple(Fraction(x, lead) for x in vector), vector)
    return point_set(n, list(seen.values()))


class TestEvaluationColumns:
    def test_columns_are_the_transposed_monomial_values(self):
        rng = random.Random(1811)
        for n in range(1, 5):
            for d in range(0, 5):
                pts = random_point_set(rng, n, rng.randint(1, 9), 4)
                columns = points.evaluation_columns(pts, d)
                expected = monomial_rows(pts, d)
                assert columns == [list(c) for c in zip(*expected)]
                assert points.evaluation_matrix(pts, d) == expected
                assert len({id(row) for row in columns}) == len(columns)

    def test_empty_point_set(self):
        pts = point_set(2, [])
        assert points.evaluation_columns(pts, 2) == [[]] * 6
        assert points.evaluation_matrix(pts, 2) == []
        report = points.conditions_report(pts, 2)
        assert (report.rank, report.h0_ideal, report.h1_ideal) == (0, 6, 0)
        assert report.independent
        assert points.node_span_dim(pts) == -1
        assert points.normal_crossing_check(pts).tangent_intersection_dim == 2

    def test_rank_matches_the_validated_rank_on_every_shape(self):
        rng = random.Random(1812)
        shapes = {"tall": 0, "wide": 0, "square": 0}
        # (n, d, delta): width comb(n + d, n) against delta points
        cases = [(1, 0, 1), (1, 3, 4), (2, 0, 1), (2, 1, 3), (2, 2, 6), (3, 1, 4)]
        for _ in range(60):
            n = rng.randint(1, 4)
            d = rng.randint(0, 4)
            cases.append((n, d, rng.randint(1, 2 * comb(n + d, n) + 1)))
        for n, d, delta in cases:
            width = comb(n + d, n)
            bound = rng.choice((1, 2, 9, 2**40) if width < 10 else (1, 2, 9))
            delta = min(delta, (2 * bound + 1) ** (n + 1) // 3)
            pts = random_point_set(rng, n, delta, bound)
            report = points.conditions_report(pts, d)
            expected = kernel_rank(monomial_rows(pts, d), width)
            assert report.rank == expected
            assert linalg.rank(points.evaluation_matrix(pts, d), width) == expected
            assert report.h1_ideal == pts.delta - expected
            shapes["tall" if delta > width else "wide" if delta < width else "square"] += 1
        assert min(shapes.values()) >= 3

    # base**fits < 2^63 <= base**(fits + 1): the entries fit a signed
    # 64-bit word at d = fits and pass it at fits + 1
    @pytest.mark.parametrize("base, fits", [(2**21 - 1, 3), (55108, 4)])
    def test_word_edge_takes_both_paths(self, base, fits):
        assert base**fits < 2**63 <= base ** (fits + 1)
        # no ratio x/z or y/z repeats, so the Newton rows are the monomial
        # ones, and 12 points are more than the separator theorem covers
        xs = (-base, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, base)
        pts = point_set(2, [(x, y, 1) for x, y in zip(xs, xs[3:] + xs[:3])])
        labelling = points._node_labelling(pts)
        for d in (fits, fits + 1):
            assert points._newton_rows(pts, d, labelling) == points.evaluation_columns(pts, d)
            report = points.conditions_report(pts, d)
            assert report.rank == kernel_rank(monomial_rows(pts, d), comb(d + 2, 2))

    def test_reports_validate_nothing_again(self, monkeypatch):
        calls = []
        validate = linalg._int_rows

        def counted(matrix, ncols=None):
            calls.append(len(matrix))
            return validate(matrix, ncols)

        monkeypatch.setattr(linalg, "_int_rows", counted)
        values = [Fraction(p, q) for p, q in ((1, 1), (-5, 2), (7, 3), (-8, 3))]
        for grid, d in ((rational_grid(3, [values] * 3), 4), (point_set(2, []), 1)):
            points.conditions_report(grid, d)
            points.normal_crossing_check(grid)
        assert calls == []

    def test_entries_past_a_word_rank_exactly(self):
        rng = random.Random(1813)
        for n, delta, d in ((2, 12, 3), (1, 10, 9), (3, 9, 2)):
            pts = random_point_set(rng, n, delta, 2**70)
            report = points.conditions_report(pts, d)
            assert report.rank == kernel_rank(monomial_rows(pts, d), comb(n + d, n))


def grid_points(rng, sizes, scale=True):
    """Product grid of random distinct rationals, ``sizes[i]`` per axis.

    The homogenising coordinate is 1 unless ``scale``, which rescales
    each point by a random nonzero rational (the same projective point).
    """
    axes = []
    for size in sizes:
        values = set()
        while len(values) < size:
            values.add(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        axes.append(sorted(values))
    coords = []
    for choice in product(*axes):
        factor = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) if scale else 1
        coords.append([factor * x for x in (*choice, 1)])
    return coords


def hilbert_count(sizes, d):
    """#{a : 0 <= a_i < sizes[i], |a| <= d}, the rank of a complete grid."""
    return sum(sum(a) <= d for a in product(*(range(size) for size in sizes)))


def newton_rank_agrees(pts, d):
    """The report's rank against the list kernel on the monomial rows."""
    report = points.conditions_report(pts, d)
    assert report.rank == kernel_rank(monomial_rows(pts, d), comb(pts.ambient_dim + d, d))
    return report.rank


class TestNewtonRank:
    def test_complete_partial_and_shuffled_grids(self):
        rng = random.Random(2001)
        newton = 0
        for sizes in ((3, 3), (4, 2), (5, 5), (2, 3, 4), (3, 3, 3), (2, 2, 2, 3), (6,), (1, 4)):
            n = len(sizes)
            coords = grid_points(rng, sizes)
            for d in range(0, sum(sizes)):
                rank = newton_rank_agrees(point_set(n, coords), d)
                assert rank == hilbert_count(sizes, d)
                shuffled = rng.sample(coords, len(coords))
                assert newton_rank_agrees(point_set(n, shuffled), d) == rank
                partial = rng.sample(coords, rng.randint(1, len(coords)))
                newton_rank_agrees(point_set(n, partial), d)
                newton += len(partial) > d + 1
        assert newton >= 20

    def test_points_at_infinity_and_zero_coordinates(self):
        rng = random.Random(2002)
        for _ in range(40):
            n = rng.randint(1, 3)
            sizes = [rng.randint(1, 4) for _ in range(n)]
            coords = grid_points(rng, sizes, scale=rng.random() < 0.5)
            # zero coordinates: the grid's own zeros and the hyperplanes x_i = 0
            coords += [[0] * i + [1] + [0] * (n - i) for i in range(n + 1)]
            # points at infinity, x_h = 0, some of them sharing coordinates
            for _ in range(rng.randint(1, 5)):
                coords.append([rng.choice((0, 1, 2, -3)) for _ in range(n)] + [0])
            distinct = {}
            for c in coords:
                if any(c):
                    lead = next(x for x in c if x)
                    distinct.setdefault(tuple(Fraction(x, lead) for x in c), c)
            pts = point_set(n, list(distinct.values()))
            for d in rng.sample(range(0, 6), 3):
                newton_rank_agrees(pts, d)

    def test_ratios_repeated_in_some_coordinates_only(self):
        rng = random.Random(2003)
        for _ in range(30):
            n = rng.randint(2, 4)
            repeated = rng.sample(range(n), rng.randint(1, n - 1))
            coords = set()
            for _ in range(rng.randint(4, 30)):
                coords.add(tuple(
                    rng.randint(-2, 2) if i in repeated else rng.randint(-10**6, 10**6)
                    for i in range(n)
                ) + (rng.choice((1, 1, 2, -3)),))
            distinct = {}
            for c in coords:
                lead = next(x for x in c if x)
                distinct.setdefault(tuple(Fraction(x, lead) for x in c), c)
            pts = point_set(n, list(distinct.values()))
            for d in range(0, 5):
                newton_rank_agrees(pts, d)

    def test_random_sets_and_small_cases(self):
        rng = random.Random(2004)
        for _ in range(40):
            n = rng.randint(1, 4)
            d = rng.randint(0, 4)
            bound = rng.choice((1, 2, 5, 2**40))
            delta = min(rng.randint(1, 25), (2 * bound + 1) ** (n + 1) // 3)
            pts = random_point_set(rng, n, delta, bound)
            newton_rank_agrees(pts, d)
        # degree zero, at most one point and no point at all
        for coords, d, rank in (
            ([(1, 2, 3), (1, 2, 4), (5, 2, 3)], 0, 1),
            ([(1, 2, 3)], 0, 1),
            ([(1, 2, 3)], 4, 1),
            ([(0, 0, 1)], 2, 1),
            ([], 0, 0),
            ([], 3, 0),
        ):
            assert newton_rank_agrees(point_set(2, coords), d) == rank

    @pytest.mark.parametrize("n, k, d", [(1, 6, 3), (2, 4, 2), (2, 5, 3), (2, 5, 5), (3, 4, 2), (3, 6, 6), (4, 4, 4), (4, 5, 3)])
    def test_complete_grids_rank_with_no_elimination(self, monkeypatch, tmp_path, capsys, n, k, d):
        def refuse(*args):
            raise AssertionError("a complete grid reached the elimination")

        monkeypatch.setattr(linalg, "reduce_int_rows", refuse)
        count = hilbert_count([k - 1] * n, d)
        values = [Fraction(p, q) for p, q in ((7, 3), (-5, 2), (9, 1), (-8, 3), (5, 2))]
        rational = rational_grid(n, [values[:k - 1]] * n)
        shuffled = random.Random(n * k * d).sample(rational.vectors, rational.delta)
        path = tmp_path / "grid.json"
        for grid in (points.grid_nodes(n, k), rational, point_set(n, shuffled)):
            assert grid.delta > d + 1
            path.write_text(json.dumps(grid.to_json()), encoding="utf-8")
            # the support masks certify the rank and the degree-1 leads the
            # span: no row is built or ranked, here or in a points request
            with monkeypatch.context() as patch:
                patch.setattr(points, "_newton_rows", refuse)
                patch.setattr(linalg, "rank_int_rows", refuse)
                assert points.conditions_report(grid, d).rank == count
                assert points.node_span_dim(grid) == n
                argv = ["points", "--input", str(path), "--degree", str(d), "--json"]
                assert cli.run(argv) == 0
            report = json.loads(capsys.readouterr().out)
            assert (report["conditions"]["rank"], report["node_span_dim"]) == (count, n)
            # a product zero at every point is dropped with its descendants
            assert len(points._newton_rows(grid, d, points._node_labelling(grid))) == count

    def test_newton_rows_without_repeats_are_the_monomial_rows(self):
        rng = random.Random(2005)
        for _ in range(20):
            n = rng.randint(1, 3)
            d = rng.randint(0, 4)
            # distinct nonzero ratios in every coordinate, so no nodes
            ratios = rng.sample(range(1, 10**4), 12 * n)
            coords = [
                [ratios[i * n + j] for j in range(n)] + [rng.choice((1, 2, 3))]
                for i in range(12)
            ]
            pts = point_set(n, coords)
            labelling = points._node_labelling(pts)
            assert points._newton_rows(pts, d, labelling) == points.evaluation_columns(pts, d)


def newton_values(pts, d, labelling):
    """Each Newton basis element at each point, one product per entry.

    The nodes and the point order are the labelling's, of which element
    k uses the first k_i nodes of coordinate i; rows come in the order
    of ``monomial_basis``, zero rows included.
    """
    hs, coordinates, nodes, _ = labelling
    rows = []
    for k in monomial_basis(pts.ambient_dim, d):
        row = []
        for c, h in enumerate(hs):
            value = h ** k[-1]
            for xs, axis, e in zip(coordinates, nodes, k):
                for j in range(e):
                    # past the nodes the factor is x_i itself
                    p, q = axis[j] if j < len(axis) else (0, 1)
                    value *= q * xs[c] - p * h
            row.append(value)
        rows.append(row)
    return rows


def degenerate_grid(rng, n):
    """A product grid, complete, shuffled or partial, some with odd points.

    The axes may hold 0; the odd points are points at infinity (x_h = 0,
    some with x_i = 0 too), points with zero coordinates, and points
    whose ratios repeat off the grid, so that nodes beyond the degree's
    cut are repeated ratios that are no node.  Every point is rescaled
    by a random nonzero rational.  Returns the set and whether it is a
    complete grid whose axis values all repeat, that is one with two or
    more values on two or more axes.
    """
    values = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]
    axes = [rng.sample(values, rng.randint(1, 4)) for _ in range(n)]
    coords = [[*choice, 1] for choice in product(*axes)]
    kind = rng.choice(("complete", "shuffled", "partial", "odd"))
    if kind != "complete":
        rng.shuffle(coords)
    if kind == "partial":
        coords = coords[:rng.randint(1, len(coords))]
    if kind == "odd":
        coords = coords[:rng.randint(1, len(coords))]
        for _ in range(rng.randint(1, 6)):
            point = [rng.choice((0, 0, 1, -2, Fraction(9, 2))) for _ in range(n + 1)]
            point[-1] = rng.choice((0, 0, 1, 3))
            coords.append(point)
    distinct = {}
    for c in coords:
        if any(c):
            lead = next(x for x in c if x)
            scale = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
            distinct.setdefault(tuple(x / lead for x in c), [scale * x for x in c])
    repeats = sum(len(axis) > 1 for axis in axes) >= 2
    return point_set(n, list(distinct.values())), repeats and kind in ("complete", "shuffled")


class TestSupportMasks:
    def test_masks_are_the_nonzero_pattern_of_the_rows(self, monkeypatch):
        rng = random.Random(2301)
        built = []
        newton_rows = points._newton_rows

        def recorded(pts, d, labelling):
            built.append((pts, d))
            return newton_rows(pts, d, labelling)

        monkeypatch.setattr(points, "_newton_rows", recorded)
        ranked = []
        rank_int_rows = linalg.rank_int_rows

        def counted(rows, ncols):
            ranked.append((rows, ncols))
            return rank_int_rows(rows, ncols)

        monkeypatch.setattr(linalg, "rank_int_rows", counted)
        outcomes = {"certified": 0, "fallback": 0}
        for _ in range(250):
            n = rng.randint(2, 3)
            pts, complete = degenerate_grid(rng, n)
            # one labelling for every degree, below, at and above the node
            # counts of the axes
            labelling = points._node_labelling(pts)
            assert points._node_labelling(pts) == labelling
            for d in range(0, 6):
                masks = points._support_masks(labelling, d)
                rows = newton_values(pts, d, labelling)
                assert masks == [sum(1 << c for c, x in enumerate(row) if x) for row in rows]
                built_rows = newton_rows(pts, d, labelling)
                assert [r for r in built_rows if any(r)] == [r for r in rows if any(r)]
                assert all(map(any, built_rows))
                if pts.delta <= d + 1:
                    continue
                nonzero = [mask for mask in masks if mask]
                certified = len({mask & -mask for mask in nonzero}) == len(nonzero)
                assert certified or not complete
                expected = kernel_rank(monomial_rows(pts, d), comb(n + d, n))
                if certified:
                    assert len(nonzero) == expected
                built.clear()
                ranked.clear()
                assert points.conditions_report(pts, d).rank == expected
                if d == 1:
                    # the degree-1 fallback hands the point vectors, n + 1
                    # columns, to the rank core exactly when two masks
                    # share a lead, and builds no Newton row
                    assert built == []
                    assert ranked == ([] if certified else [(pts.vectors, n + 1)])
                else:
                    # the rows are built exactly when two masks share a lead
                    assert built == ([] if certified else [(pts, d)])
                outcomes["certified" if certified else "fallback"] += 1
        assert min(outcomes.values()) >= 20


def span_sets(rng):
    """``(pts, complete)`` for the span certificate's differential test.

    Complete, shuffled and partial grids; the odd sets of
    :func:`degenerate_grid`; sets all at infinity, grids with one
    constant axis and points on a hyperplane; every set of 0 to 3 points
    and sets on the line.  ``complete`` marks a complete grid with two
    or more values on two or more axes.
    """
    for sizes in ((2, 2), (3, 2), (4, 3), (2, 2, 2), (3, 1, 2), (2, 3, 1, 2), (1, 3, 3)):
        n = len(sizes)
        coords = grid_points(rng, sizes)
        yield point_set(n, coords), True
        yield point_set(n, rng.sample(coords, len(coords))), True
        for _ in range(3):
            yield point_set(n, rng.sample(coords, rng.randint(1, len(coords)))), False
    for _ in range(60):
        yield degenerate_grid(rng, rng.randint(2, 3))
    def distinct(n, coords):
        vectors = {}
        for c in coords:
            if any(c):
                vectors.setdefault(primitive_vectors([c])[0], c)
        return point_set(n, list(vectors.values()))

    for n in (2, 3, 4):
        for _ in range(4):
            # all at infinity: x_h = 0 everywhere
            coords = [[rng.randint(-3, 3) for _ in range(n)] + [0] for _ in range(8)]
            yield distinct(n, coords), False
            # on the hyperplane sum_i a_i x_i = 0 with a_j = 1
            a = [rng.randint(-2, 2) for _ in range(n + 1)]
            j = rng.randrange(n + 1)
            a[j] = 1
            coords = []
            for _ in range(rng.randint(3, 9)):
                c = [rng.randint(-4, 4) for _ in range(n + 1)]
                c[j] = -sum(x * y for i, (x, y) in enumerate(zip(a, c)) if i != j)
                coords.append(c)
            yield distinct(n, coords), False
    for n in (1, 2, 3, 4):
        for delta in range(0, 4):
            yield random_point_set(rng, n, delta, 3), False
    for delta in (4, 7, 12):
        yield random_point_set(rng, 1, delta, 9), False


class TestSpanCertificate:
    def test_span_rank_matches_the_kernel_on_the_coordinate_matrix(self, monkeypatch):
        rng = random.Random(2401)
        calls = []
        rank_int_rows = linalg.rank_int_rows

        def recorded(rows, ncols):
            calls.append((rows, ncols))
            return rank_int_rows(rows, ncols)

        def refuse(*args):
            raise AssertionError("a complete grid eliminated its coordinate matrix")

        def refuse_walk(*args):
            raise AssertionError("a rank at degree 0 or 1 walked the monomials")

        outcomes = {"closed form": 0, "certified": 0, "fallback": 0}
        for pts, complete in span_sets(rng):
            n = pts.ambient_dim
            expected = kernel_rank(pts.vectors, n + 1)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "rank_int_rows", refuse if complete else recorded)
                patch.setattr(points, "_graded_products", refuse_walk)
                check = points.normal_crossing_check(pts)
                span_calls = list(calls)
                # the degree-1 evaluation is the coordinate matrix
                assert points.conditions_report(pts, 1).rank == expected
                assert points.conditions_report(pts, 0).rank == min(pts.delta, 1)
            # degree 1 takes the span's certificate or its fallback
            assert calls == span_calls * 2
            assert check.span_dim == expected - 1
            assert check.tangent_intersection_dim == n - expected
            assert check.independent_branches == (expected == pts.delta)
            if pts.delta <= 2 or n == 1:
                outcome = "closed form"
            else:
                outcome = "fallback" if span_calls else "certified"
            assert span_calls in ([], [(pts.vectors, n + 1)])
            outcomes[outcome] += 1
        assert outcomes["certified"] >= 20
        assert outcomes["fallback"] >= 20
        assert outcomes["closed form"] >= 10


class TestLowDegreesBuildNoPlan:
    def test_huge_ambient_spaces_rank_with_no_plan(self, tmp_path, monkeypatch, capsys):
        # comb(9999 + 1, 1) = 10^4 is the bound's edge at degree 1, and
        # degree 0 admits any ambient dimension; a rank there takes a
        # closed form or the degree-1 leads, and builds no monomial row
        def refuse(*args):
            raise AssertionError("walked the monomials")

        monkeypatch.setattr(points, "_graded_products", refuse)
        rng = random.Random(2601)
        for n, delta, d in ((9999, 3, 1), (20000, 4, 0)):
            path = tmp_path / f"points-{n}.json"
            pts = random_point_set(rng, n, delta, 9)
            path.write_text(json.dumps(pts.to_json()), encoding="utf-8")
            capsys.readouterr()
            argv = ["points", "--input", str(path), "--degree", str(d), "--json"]
            assert cli.run(argv) == 0
            report = json.loads(capsys.readouterr().out)
            rank = report["conditions"]["rank"]
            if d == 1:
                assert rank == report["node_span_dim"] + 1
                assert rank == kernel_rank(pts.vectors, n + 1)
            else:
                assert rank == 1


class TestOneProductPerMonomial:
    @pytest.mark.parametrize("n, d", [(200, 1), (1, 300), (40, 2)])
    def test_each_build_makes_one_product_per_monomial(self, monkeypatch, n, d):
        # a row is its parent's product times one factor, then times a
        # power of the last coordinate, and the d powers come on top
        bound = 2 * comb(n + d, d) + d
        counts = {"rows": 0, "masks": 0}

        def counted(name, times):
            def wrapped(a, b):
                counts[name] += 1
                return times(a, b)

            return wrapped

        monkeypatch.setattr(points, "_vector_product", counted("rows", points._vector_product))
        monkeypatch.setattr(points, "and_", counted("masks", points.and_))
        pts = random_point_set(random.Random(2701 + n), n, 5, 2)
        columns = points.evaluation_columns(pts, d)
        assert counts["rows"] <= bound
        assert columns == [list(c) for c in zip(*monomial_rows(pts, d))]
        # a rank builds masks and Newton rows only at d >= 2 off the line
        if d < 2 or n == 1:
            return
        counts["rows"] = 0
        labelling = points._node_labelling(pts)
        rows = points._newton_rows(pts, d, labelling)
        assert counts["rows"] <= bound
        assert rows and all(map(any, rows))
        masks = points._support_masks(labelling, d)
        assert counts["masks"] <= bound
        assert len(masks) == comb(n + d, d)

    def test_the_walk_does_not_recurse_on_the_degree(self):
        # 3000 is past the default recursion limit; on the line every row
        # is the next turn of one loop
        d = 3000
        columns = points.evaluation_columns(point_set(1, [(2, 3), (1, -5)]), d)
        assert columns == [[2**k * 3 ** (d - k), (-5) ** (d - k)] for k in range(d + 1)]


class TestOneLabelling:
    def test_a_points_request_labels_its_set_once(self, tmp_path, monkeypatch):
        calls = []
        node_labelling = points._node_labelling

        def counted(pts):
            calls.append(pts.delta)
            return node_labelling(pts)

        monkeypatch.setattr(points, "_node_labelling", counted)
        ranked = []
        rank_int_rows = linalg.rank_int_rows

        def recorded(rows, ncols):
            ranked.append(ncols)
            return rank_int_rows(rows, ncols)

        monkeypatch.setattr(linalg, "rank_int_rows", recorded)
        rng = random.Random(2501)
        shuffled = rng.sample(grid_points(rng, (3, 4, 2)), 24)
        partial = rng.sample(grid_points(rng, (3, 3)), 6)
        # no ratio repeats, so every degree-1 row leads at the first point
        # and the coordinate matrix goes to the rank core
        scattered = [[rng.randint(1, 10**9) for _ in range(10)] for _ in range(3)]
        assert not any(node_labelling(point_set(9, scattered))[2])
        inputs = ((3, shuffled), (2, partial), (2, COLLINEAR + [(1, 3, 1)]), (9, scattered))
        for n, coords in inputs:
            path = tmp_path / "points.json"
            path.write_text(json.dumps(point_set(n, coords).to_json()), encoding="utf-8")
            for d in ("1", "2"):
                calls.clear()
                ranked.clear()
                assert cli.run(["points", "--input", str(path), "--degree", d]) == 0
                assert calls == [len(coords)]
                # at most one rank per distinct degree, d and 1
                assert len(ranked) <= len({int(d), 1})
                if n == 9:
                    assert ranked == [n + 1]

    def test_reports_from_one_labelling_match_a_fresh_set(self):
        rng = random.Random(2502)
        sets = [point_set(3, grid_points(rng, (3, 2, 4))), point_set(2, COLLINEAR + [(0, 1, 1)])]
        sets += [degenerate_grid(rng, rng.randint(2, 3))[0] for _ in range(30)]
        for pts in sets:
            degrees = [*range(0, 7), *range(6, -1, -1)]
            crossing = points.normal_crossing_check(pts)
            for d in degrees:
                fresh = points.ProjectivePointSet(pts.ambient_dim, pts.vectors)
                assert points.conditions_report(pts, d) == points.conditions_report(fresh, d)
                assert points.point_reports(fresh, d) == (points.conditions_report(pts, d), crossing)
            fresh = points.ProjectivePointSet(pts.ambient_dim, pts.vectors)
            assert crossing == points.normal_crossing_check(fresh)
            # the labelling is no field
            assert fresh == pts and hash(fresh) == hash(pts) and repr(fresh) == repr(pts)


class TestSeparatorTheorem:
    def test_at_most_d_plus_one_points_need_no_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a matrix")

        rng = random.Random(2101)
        pts = random_point_set(rng, 2, 50, 10**6)
        monkeypatch.setattr(points, "_newton_rows", refuse)
        monkeypatch.setattr(linalg, "rank_int_rows", refuse)
        start = time.perf_counter()
        report = points.conditions_report(pts, 139)
        assert time.perf_counter() - start < 0.5
        assert (report.rank, report.h0_ambient, report.h1_ideal) == (50, comb(141, 2), 0)
        assert report.independent
        with pytest.raises(PreconditionError) as err:
            points.conditions_report(pts, 140)
        assert str(err.value) == points.FAIL_MONOMIALS
        with pytest.raises(InputError, match="d must be"):
            points.conditions_report(pts, True)

    def test_agrees_with_the_kernel_around_d_equal_delta_minus_one(self):
        rng = random.Random(2102)
        for delta in range(1, 8):
            for n in (1, 2, 3):
                for pts in (random_point_set(rng, n, delta, 3), random_point_set(rng, n, delta, 9)):
                    for d in range(max(0, delta - 3), delta + 2):
                        rank = newton_rank_agrees(pts, d)
                        if d >= delta - 1:
                            assert rank == delta
                # points on a line impose min(delta, d + 1) conditions
                line = point_set(n, [[1, t] + [0] * (n - 1) for t in range(delta)])
                for d in range(max(0, delta - 3), delta + 2):
                    assert newton_rank_agrees(line, d) == min(delta, d + 1)


class TestProjectiveLine:
    def test_closed_form_agrees_with_the_kernel(self):
        rng = random.Random(2201)
        for delta in range(1, 13):
            for bound in (3, 2**40):
                pts = random_point_set(rng, 1, delta, bound)
                for d in range(0, delta + 2):
                    expected = kernel_rank(monomial_rows(pts, d), d + 1)
                    assert expected == min(delta, d + 1)
                    assert points.conditions_report(pts, d).rank == expected

    def test_many_points_need_no_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a matrix")

        pts = point_set(1, [(t, 1) for t in range(400)])
        monkeypatch.setattr(points, "_newton_rows", refuse)
        monkeypatch.setattr(linalg, "rank_int_rows", refuse)
        start = time.perf_counter()
        report = points.conditions_report(pts, 150)
        assert time.perf_counter() - start < 0.5
        assert (report.rank, report.h0_ambient, report.h1_ideal) == (151, 151, 249)
        assert not report.independent
        with pytest.raises(PreconditionError) as err:
            points.conditions_report(pts, points.MAX_MONOMIALS)
        assert str(err.value) == points.FAIL_MONOMIALS
        with pytest.raises(InputError, match="d must be"):
            points.conditions_report(pts, True)
