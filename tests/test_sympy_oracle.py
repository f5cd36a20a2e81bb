"""Differential tests of nodalic.linalg and helpers.rref against sympy.

sympy is an independent exact implementation, used here only as an
oracle; the package itself never imports it.
"""

import random
from fractions import Fraction

import pytest

from nodalic import linalg, points

from helpers import kernel_basis, rational_grid, rref, solve

sympy = pytest.importorskip("sympy")


def to_sympy(matrix):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix]
    )


def from_sympy(matrix):
    return [
        [Fraction(int(x.p), int(x.q)) for x in matrix.row(i)]
        for i in range(matrix.rows)
    ]


def random_entry(rng, rational):
    if rational:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.randint(-9, 9)


def random_matrix(rng, rows, cols, rational, rank=None):
    """Random matrix of Fractions or of plain ints.

    With ``rank`` given, the matrix is a product of that inner size, so
    its rank is at most ``rank``.
    """
    if rank is None:
        return [[random_entry(rng, rational) for _ in range(cols)] for _ in range(rows)]
    if rank == 0:
        return [[0] * cols for _ in range(rows)]
    left = random_matrix(rng, rows, rank, rational)
    right = random_matrix(rng, rank, cols, rational)
    product = linalg.matmul(left, right)
    if rational:
        return product
    return [[int(x) for x in row] for row in product]


def matrices(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.randint(0, min(rows, cols) - 1) if i % 2 else None
        yield random_matrix(rng, rows, cols, i % 4 >= 2, rank)


def grid_matrices():
    rng = random.Random(919)
    values = sorted({Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 3)})
    for n, k, d in ((2, 5, 4), (2, 5, 5), (3, 4, 3), (2, 7, 6)):
        axes = [rng.sample(values, k - 1) for _ in range(n)]
        yield points.evaluation_matrix(rational_grid(n, axes), d)


def test_rank_and_rref_match():
    for matrix in matrices(1201, 80):
        expected, pivots = to_sympy(matrix).rref()
        reduced, rank, ours = rref(matrix)
        assert reduced == from_sympy(expected)
        assert ours == list(pivots)
        assert rank == linalg.rank(matrix) == len(pivots)


def test_kernel_basis_matches():
    # both bases put a 1 in one free column and zeros in the other free columns
    for matrix in matrices(1202, 80):
        expected = to_sympy(matrix).nullspace()
        basis = kernel_basis(matrix)
        columns = [[row[j] for row in basis] for j in range(len(basis[0]))]
        assert columns == [[row[0] for row in from_sympy(v)] for v in expected]


def test_solve_exact_matches():
    rng = random.Random(1203)
    solved = 0
    while solved < 30:
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n, rational=solved % 2 == 1)
        b = random_matrix(rng, n, rng.randint(1, 3), rational=True)
        if to_sympy(a).rank() < n:
            continue
        expected = to_sympy(a).LUsolve(to_sympy(b))
        assert solve(a, b) == from_sympy(expected)
        solved += 1


def test_grid_evaluation_rank_matches():
    for matrix in grid_matrices():
        expected, pivots = sympy.Matrix(matrix).rref()
        reduced, rank, ours = rref(matrix)
        assert rank == linalg.rank(matrix) == len(pivots)
        assert ours == list(pivots)
        assert reduced == from_sympy(expected)


def test_rank_matches_in_every_orientation():
    # tall matrices are ranked through their transpose, wide ones as they are
    rng = random.Random(1204)
    # sympy's own rank is slow on dense squares past about 20 x 20
    shapes = [(40, 12), (12, 40), (12, 12), (30, 3), (3, 30), (17, 9), (9, 17)]
    for i in range(56):
        rows, cols = shapes[i % len(shapes)]
        rank = rng.randint(0, min(rows, cols) - 1) if i % 2 else None
        matrix = random_matrix(rng, rows, cols, rational=i % 4 >= 2, rank=rank)
        expected = to_sympy(
            [[Fraction(x) for x in row] for row in matrix]
        ).rank()
        assert linalg.rank(matrix) == expected
        assert linalg.rank([list(c) for c in zip(*matrix)], rows) == expected
        if rank is not None:
            assert expected <= rank


def test_ranks_with_word_entries_match():
    # entries up to the 64-bit edges and past them, dense and of low rank
    rng = random.Random(1205)
    word = 2**63
    for i in range(24):
        rows = rng.randint(7, 13)
        cols = rng.randint(rows, 18)
        bound = (9, 2**31, word - 1, word)[i % 4]
        if i % 3:
            inner = rng.randint(1, rows - 1)
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-bound, bound) // 3 for _ in range(cols)] for _ in range(inner)]
            matrix = [[int(x) for x in row] for row in linalg.matmul(left, right)]
        else:
            matrix = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        matrix[0][-1] = -word if bound >= word - 1 else matrix[0][-1]
        expected = sympy.Matrix(matrix).rank()
        assert linalg.rank(matrix) == expected
        assert linalg.rank([list(c) for c in zip(*matrix)], rows) == expected


def off_grid_points(rng, n, delta, height, denominator):
    """``delta`` distinct points (p/q, ..., 1), |p| <= height, q <= denominator."""
    coords = set()
    while len(coords) < delta:
        coords.add(tuple(
            Fraction(rng.randint(-height, height), rng.randint(1, denominator))
            for _ in range(n)
        ))
    return points.ProjectivePointSet.from_coordinates(n, [[*c, 1] for c in sorted(coords)])


@pytest.mark.parametrize("n, delta, d", [(2, 30, 6), (3, 60, 4), (4, 40, 3)])
def test_off_grid_conditions_match(n, delta, d):
    # more points than monomials, so h1 > 0: small coordinates repeat
    # ratios and go through the Newton rows, large ones pass a word;
    # sympy ranks through its domain matrices, as Matrix.rank is slow here
    rng = random.Random(1206 + n)
    for height, denominator in ((9, 4), (10**4, 100)):
        pts = off_grid_points(rng, n, delta, height, denominator)
        expected = sympy.Matrix(points.evaluation_matrix(pts, d)).to_DM().rank()
        report = points.conditions_report(pts, d)
        assert report.rank == expected
        assert report.h1_ideal > 0
