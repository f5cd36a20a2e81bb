import random
from fractions import Fraction
from math import gcd

import pytest

from nodalic import linalg
from nodalic.errors import InputError, PreconditionError


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


class TestRref:
    def test_identity(self):
        reduced, rank, pivots = linalg.rref(linalg.identity(2))
        assert reduced == linalg.identity(2)
        assert rank == 2
        assert pivots == [0, 1]

    def test_zero_matrix(self):
        matrix = [[0] * 4 for _ in range(3)]
        reduced, rank, pivots = linalg.rref(matrix)
        assert rank == 0
        assert pivots == []
        assert reduced == frac_matrix([[0] * 4] * 3)

    def test_proportional_rows(self):
        _, rank, _ = linalg.rref([[1, 2], [2, 4]])
        assert rank == 1

    def test_idempotent(self):
        rng = random.Random(101)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            matrix = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
            once, rank1, piv1 = linalg.rref(matrix)
            twice, rank2, piv2 = linalg.rref(once)
            assert once == twice
            assert (rank1, piv1) == (rank2, piv2)

    def test_rank_invariant_under_row_scaling_and_permutation(self):
        rng = random.Random(202)
        for _ in range(25):
            rows = rng.randint(2, 5)
            cols = rng.randint(1, 6)
            matrix = [
                [Fraction(rng.randint(-4, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
            base = linalg.rank(matrix, cols)
            scaled = []
            for row in matrix:
                factor = Fraction(rng.choice([1, 2, -3, 5]))
                scaled.append([factor * x for x in row])
            rng.shuffle(scaled)
            assert linalg.rank(scaled, cols) == base
            assert linalg.rref(scaled, cols)[0] == linalg.rref(matrix, cols)[0]

    def test_rank_at_most_min_dim(self):
        matrix = [[1, 2, 3], [4, 5, 6]]
        _, rank, _ = linalg.rref(matrix)
        assert rank <= 2

    def test_deterministic_repeats(self):
        matrix = [[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]]
        first = linalg.rref(matrix)
        for _ in range(3):
            assert linalg.rref(matrix) == first


class TestKernel:
    def test_identity_kernel_empty(self):
        basis = linalg.kernel_basis(linalg.identity(3))
        assert basis == [[], [], []]

    def test_zero_matrix_kernel_full(self):
        basis = linalg.kernel_basis([[0, 0, 0], [0, 0, 0]])
        assert basis == linalg.identity(3)

    def test_single_row(self):
        matrix = [[1, 1, 0]]
        basis = linalg.kernel_basis(matrix)
        assert len(basis[0]) == 2
        for col in range(2):
            vec = [[basis[r][col]] for r in range(3)]
            assert linalg.matmul(matrix, vec) == [[0]]

    def test_rank_nullity(self):
        rng = random.Random(303)
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            matrix = [
                [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
            rank = linalg.rank(matrix, cols)
            basis = linalg.kernel_basis(matrix, cols)
            nullity = len(basis[0]) if basis else cols
            assert rank + nullity == cols
            if nullity:
                product = linalg.matmul(matrix, basis)
                assert all(all(x == 0 for x in row) for row in product)


class TestEliminationKernel:
    def test_forward_pass_leaves_primitive_rows(self):
        rng = random.Random(313)
        for _ in range(40):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            # rows with a common factor, so content has to be removed
            rows = []
            for _ in range(nrows):
                factor = rng.choice([1, 2, 6])
                rows.append([factor * rng.randint(-9, 9) for _ in range(ncols)])
            pivots = linalg.reduce_int_rows(rows, ncols, False)
            for row in rows[: len(pivots)]:
                assert gcd(*row) == 1
            assert all(x == 0 for row in rows[len(pivots):] for x in row)


class TestColumnSpace:
    def test_proportional_rows_single_column(self):
        basis = linalg.column_space_basis([[1, 2], [2, 4]])
        assert basis == frac_matrix([[1], [2]])

    def test_identity_returns_itself(self):
        assert linalg.column_space_basis(linalg.identity(3)) == linalg.identity(3)

    def test_rank_three_product(self):
        rng = random.Random(404)
        left = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
        right = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
        while linalg.rank(left, 3) < 3 or linalg.rank(right, 6) < 3:
            left = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
            right = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
        product = linalg.matmul(left, right)
        basis = linalg.column_space_basis(product)
        assert len(basis[0]) == 3


class TestMatmul:
    def test_identity_neutral(self):
        matrix = frac_matrix([[1, 2], [3, 4], [5, 6]])
        assert linalg.matmul(linalg.identity(3), matrix) == matrix

    def test_zero_annihilates(self):
        matrix = [[1, 2], [3, 4]]
        zero = [[0, 0], [0, 0]]
        assert linalg.matmul(matrix, zero) == frac_matrix(zero)

    def test_associativity(self):
        rng = random.Random(505)
        for _ in range(20):
            a, b, c = (
                [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
                for _ in range(3)
            )
            assert linalg.matmul(linalg.matmul(a, b), c) == linalg.matmul(
                a, linalg.matmul(b, c)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            linalg.matmul([[1, 2]], [[1, 2]])


class TestSolveExact:
    def test_diagonal(self):
        solution = linalg.solve_exact([[2, 0], [0, 4]], linalg.identity(2))
        assert solution == frac_matrix([["1/2", 0], [0, "1/4"]]) or solution == [
            [Fraction(1, 2), Fraction(0)],
            [Fraction(0), Fraction(1, 4)],
        ]

    def test_inverse_roundtrip(self):
        rng = random.Random(606)
        for _ in range(10):
            m = rng.randint(1, 5)
            matrix = [
                [Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(m)
            ]
            if linalg.rank(matrix, m) < m:
                continue
            inverse = linalg.solve_exact(matrix, linalg.identity(m))
            assert linalg.matmul(matrix, inverse) == linalg.identity(m)

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError):
            linalg.solve_exact([[1, 2], [2, 4]], linalg.identity(2))


class TestScalars:
    def test_parse_int_and_string(self):
        assert linalg.parse_rational(7) == Fraction(7)
        assert linalg.parse_rational("-3/6") == Fraction(-1, 2)
        assert linalg.parse_rational("+4") == Fraction(4)

    @pytest.mark.parametrize("bad", [1.5, True, "3.2", "1/0", "a/b", "2/-3", None])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            linalg.parse_rational(bad)

    def test_serialize_canonical(self):
        assert linalg.rational_to_json(Fraction(6, 3)) == 2
        assert linalg.rational_to_json(Fraction(-1, 2)) == "-1/2"
        assert linalg.parse_rational(linalg.rational_to_json(Fraction(22, 7))) == Fraction(22, 7)

    def test_as_rational_rejects_float_and_bool(self):
        with pytest.raises(InputError):
            linalg.as_rational(0.5)
        with pytest.raises(InputError):
            linalg.as_rational(True)


class TestShapeValidation:
    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            linalg.rref([[1, 2], [3]])

    def test_empty_needs_width(self):
        with pytest.raises(InputError):
            linalg.rank([])
        assert linalg.rank([], 5) == 0
