import random
from fractions import Fraction
from math import comb

import pytest

from nodalic import linalg, points
from nodalic.errors import InputError, PreconditionError

from helpers import random_invertible

COLLINEAR = [(1, 0, 0), (1, 1, 0), (1, 2, 0)]


def point_set(ambient_dim, coords):
    return points.ProjectivePointSet.from_coordinates(ambient_dim, coords)


class TestPointSet:
    def test_normalization(self):
        pts = point_set(2, [(0, 3, 6), (2, 4, 8)])
        assert pts.points[0] == (0, 1, 2)
        assert pts.points[1] == (1, 2, 4)

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

    def test_json_exact_keys(self):
        doc = point_set(1, [(1, 0)]).to_json()
        doc["note"] = "x"
        with pytest.raises(InputError):
            points.ProjectivePointSet.from_json(doc)

    def test_vectors_are_primitive_with_positive_lead(self):
        pts = point_set(2, [(0, -3, 6), (Fraction(-1, 2), 1, Fraction(3, 4))])
        assert pts.vectors == ((0, 1, -2), (2, -4, -3))
        assert pts.points == (
            (0, 1, -2),
            (1, -2, Fraction(-3, 2)),
        )

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
            assert again.points == pts.points
            doc = {
                "ambient_dim": n,
                "points": [[linalg.rational_to_json(x) for x in p] for p in scaled],
            }
            parsed = points.ProjectivePointSet.from_json(doc)
            assert parsed == pts
            assert parsed.points == pts.points

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
        ],
    )
    def test_document_error_messages(self, coords, message):
        doc = {"ambient_dim": 2, "points": coords}
        with pytest.raises(InputError) as err:
            points.ProjectivePointSet.from_json(doc)
        assert str(err.value) == message

    def test_coordinate_error_messages(self):
        with pytest.raises(InputError) as err:
            point_set(2, [(1, 2, 3), (1, 1.5, 1)])
        assert str(err.value) == "expected an int or Fraction, got float: 1.5"
        with pytest.raises(InputError) as err:
            point_set(2, [(1, 2), (1, 1.5, 1)])
        assert str(err.value) == "point 0 has 2 coordinates, expected 3"


class TestMonomialBasis:
    def test_counts(self):
        assert len(points.monomial_basis(2, 1)) == 3
        assert len(points.monomial_basis(2, 4)) == 15
        assert len(points.monomial_basis(3, 2)) == 10

    def test_count_formula(self):
        for n in range(1, 5):
            for d in range(0, 6):
                assert len(points.monomial_basis(n, d)) == comb(n + d, n)

    def test_degrees_and_order(self):
        for n in range(1, 4):
            for d in range(0, 5):
                mons = points.monomial_basis(n, d)
                assert all(sum(e) == d for e in mons)
                assert mons == sorted(mons)
                assert len(set(mons)) == len(mons)

    def test_degree_zero(self):
        assert points.monomial_basis(3, 0) == [(0, 0, 0, 0)]


class TestEvaluationMatrix:
    def test_single_point_degree_zero(self):
        pts = point_set(2, [(1, 2, 3)])
        matrix = points.evaluation_matrix(pts, 0)
        assert matrix == [[Fraction(1)]]
        assert linalg.rank(matrix, 1) == 1

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

            shuffled = list(pts.points)
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
                    for p in pts.points
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
        doc = points.conditions_report(points.grid_nodes(2, 3), 2).to_json()
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
        assert pts.delta == 1
        assert pts.points == ((1, 1, 1),)

    def test_counts(self):
        assert points.grid_nodes(2, 4).delta == 9
        assert points.grid_nodes(3, 3).delta == 8
        for n in range(1, 4):
            for k in range(2, 5):
                assert points.grid_nodes(n, k).delta == (k - 1) ** n
                assert points.grid_nodes(n, k).delta == points.node_count_ci(n, k)

    def test_default_coordinates(self):
        # stored points are rescaled so the first nonzero coordinate is 1
        pts = points.grid_nodes(2, 3)
        assert set(pts.points) == {
            (1, 1, 1),
            (1, 2, 1),
            (1, Fraction(1, 2), Fraction(1, 2)),
            (1, 1, Fraction(1, 2)),
        }

    def test_points_lie_on_default_grid(self):
        n, k = 3, 3
        values = {Fraction(j) for j in range(1, k)}
        for p in points.grid_nodes(n, k).points:
            assert p[-1] != 0
            affine = [x / p[-1] for x in p[:-1]]
            assert all(x in values for x in affine)

    def test_custom_flat_parameters(self):
        pts = points.grid_nodes(1, 3, [Fraction(1, 2), 5])
        assert set(pts.points) == {(1, 2), (1, Fraction(1, 5))}

    def test_custom_per_axis_parameters(self):
        pts = points.grid_nodes(2, 2, [[3], [7]])
        assert pts.points == ((Fraction(1), Fraction(7, 3), Fraction(1, 3)),)

    def test_repeated_parameters_rejected(self):
        with pytest.raises(InputError, match="repeated"):
            points.grid_nodes(2, 3, [1, 1])

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(InputError):
            points.grid_nodes(2, 3, [1, 2, 3])
        with pytest.raises(InputError):
            points.grid_nodes(2, 3, [[1, 2]])

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
        assert len(points.monomial_basis(1, points.MAX_MONOMIALS - 1)) == (
            points.MAX_MONOMIALS
        )
        with pytest.raises(PreconditionError) as err:
            points.monomial_basis(1, points.MAX_MONOMIALS)
        assert str(err.value) == points.FAIL_MONOMIALS

    def test_huge_degree_fails_by_name(self):
        pts = point_set(2, [(1, 2, 3)])
        for n, d in ((10**9, 10**9), (2, 10**12), (10**12, 1)):
            with pytest.raises(PreconditionError, match="too many monomials"):
                points.monomial_basis(n, d)
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
        assert len(points.monomial_basis(4, 6)) == 210
        assert points.grid_nodes(4, 6).delta == 625
