import random
import time
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest

from nodalic import linalg, points
from nodalic.errors import InputError, PreconditionError

from helpers import NoFraction, monomial_basis, random_invertible

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

    def test_default_grid_builds_no_fraction(self, monkeypatch):
        shapes = [(1, 2), (1, 5), (2, 4), (3, 3), (4, 4)]
        expected = {
            (n, k): points.ProjectivePointSet.from_coordinates(
                n,
                [list(c) + [1] for c in product(range(1, k), repeat=n)],
            ).vectors
            for n, k in shapes
        }
        with monkeypatch.context() as patch:
            for module in (points, linalg):
                patch.setattr(module, "Fraction", NoFraction)
            for n, k in shapes:
                assert points.grid_nodes(n, k).vectors == expected[n, k]
        # parameters are compared as rationals, however they are written
        with pytest.raises(InputError, match="repeated"):
            points.grid_nodes(1, 3, [Fraction(1, 2), Fraction(2, 4)])

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


def kernel_rank(rows, ncols):
    if len(rows) > ncols:
        rows, ncols = list(zip(*rows)), len(rows)
    return len(linalg.reduce_int_rows([list(row) for row in rows], ncols))


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
        for d in (fits, fits + 1):
            assert points._newton_rows(pts, d) == points.evaluation_columns(pts, d)
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
        for grid, d in ((points.grid_nodes(3, 5, [values] * 3), 4), (point_set(2, []), 1)):
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
    def test_complete_grids_rank_with_no_elimination(self, monkeypatch, n, k, d):
        def refuse(*args):
            raise AssertionError("a complete grid reached the elimination")

        monkeypatch.setattr(linalg, "reduce_int_rows", refuse)
        count = hilbert_count([k - 1] * n, d)
        values = [Fraction(p, q) for p, q in ((7, 3), (-5, 2), (9, 1), (-8, 3), (5, 2))]
        rational = points.grid_nodes(n, k, values[:k - 1])
        shuffled = random.Random(n * k * d).sample(rational.vectors, rational.delta)
        for grid in (points.grid_nodes(n, k), rational, point_set(n, shuffled)):
            assert grid.delta > d + 1
            assert points.conditions_report(grid, d).rank == count
            # the running products stop at zero, so no zero row is built
            assert len(points._newton_rows(grid, d)) == count

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
            assert points._newton_rows(pts, d) == points.evaluation_columns(pts, d)


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
