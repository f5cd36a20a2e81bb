import random
from copy import deepcopy
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from nodalic import linalg, points
from nodalic.errors import InputError

from helpers import (
    column_space_basis,
    identity,
    kernel_basis,
    rational_grid,
    rref,
    solve,
)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


class TestRref:
    def test_identity(self):
        reduced, rank, pivots = rref(identity(2))
        assert reduced == identity(2)
        assert rank == 2
        assert pivots == [0, 1]

    def test_zero_matrix(self):
        matrix = [[0] * 4 for _ in range(3)]
        reduced, rank, pivots = rref(matrix)
        assert rank == 0
        assert pivots == []
        assert reduced == frac_matrix([[0] * 4] * 3)

    def test_proportional_rows(self):
        _, rank, _ = rref([[1, 2], [2, 4]])
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
            once, rank1, piv1 = rref(matrix)
            twice, rank2, piv2 = rref(once)
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
            assert rref(scaled, cols)[0] == rref(matrix, cols)[0]

    def test_rank_at_most_min_dim(self):
        matrix = [[1, 2, 3], [4, 5, 6]]
        _, rank, _ = rref(matrix)
        assert rank <= 2

    def test_deterministic_repeats(self):
        matrix = [[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]]
        first = rref(matrix)
        for _ in range(3):
            assert rref(matrix) == first


class TestKernel:
    def test_identity_kernel_empty(self):
        basis = kernel_basis(identity(3))
        assert basis == [[], [], []]

    def test_zero_matrix_kernel_full(self):
        basis = kernel_basis([[0, 0, 0], [0, 0, 0]])
        assert basis == identity(3)

    def test_single_row(self):
        matrix = [[1, 1, 0]]
        basis = kernel_basis(matrix)
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
            basis = kernel_basis(matrix, cols)
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
            pivots = linalg.reduce_int_rows(rows, ncols)
            for row in rows[: len(pivots)]:
                assert gcd(*row) == 1
            assert all(x == 0 for row in rows[len(pivots):] for x in row)


WORD = 2**63


def oracle_rank(rows, ncols):
    """Rank by the Fraction oracle, which shares no code with the kernel."""
    return rref(rows, ncols)[1]


def low_rank(rng, rows, cols, rank, bound):
    """Product of random rows x rank and rank x cols matrices."""
    if rank == 0:
        return [[0] * cols for _ in range(rows)]
    left = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank)]
    return [[sum(map(mul, row, col)) for col in zip(*right)] for row in left]


@pytest.fixture
def kernel_calls(monkeypatch):
    """(rows, ncols) of every call to the list kernel."""
    calls = []
    kernel = linalg.reduce_int_rows

    def counted(rows, ncols):
        calls.append((len(rows), ncols))
        return kernel(rows, ncols)

    monkeypatch.setattr(linalg, "reduce_int_rows", counted)
    return calls


class TestRankAgainstOracle:
    """Ranks of wide, tall and square matrices, edge shapes and entries
    at the 64-bit word edges, against the Fraction oracle."""

    def test_matches_oracle_on_seeded_shapes(self):
        rng = random.Random(717)
        for trial in range(120):
            short = rng.randint(5, 20)
            long = short + rng.randint(0, 30)
            # wide, tall and square
            rows, cols = [(short, long), (long, short), (short, short)][trial % 3]
            bound = rng.choice((1, 9, 2**20, WORD - 1))
            if trial % 2:
                matrix = low_rank(rng, rows, cols, rng.randint(0, short), 3)
            else:
                matrix = [
                    [rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)
                ]
            assert linalg.rank(matrix, cols) == oracle_rank(matrix, cols)

    def test_edge_shapes(self):
        rng = random.Random(718)
        cases = [
            ([[0] * 12 for _ in range(9)], 12, 0),
            ([[0, 0, 0, 0, 5]], 5, 1),
            ([[3], [0], [-7], [2**62]], 1, 1),
            ([[0] * 9 + [x] for x in (0, 4, -6, 0, 9, 2**40, 0, 1)], 10, 1),
        ]
        # zero rows and zero columns among random ones
        matrix = [[rng.randint(-9, 9) for _ in range(14)] for _ in range(10)]
        for row in matrix[::3]:
            row[:] = [0] * 14
        for row in matrix:
            row[2] = row[7] = row[13] = 0
        cases.append((matrix, 14, oracle_rank(matrix, 14)))
        # a rational grid's evaluation
        values = [Fraction(p, q) for p, q in ((1, 1), (-5, 2), (7, 3), (-8, 3), (9, 1))]
        grid = points.evaluation_matrix(rational_grid(3, [values] * 3), 5)
        cases.append((grid, 56, oracle_rank(grid, 56)))
        # unit rows above rows of small heads and odd words from ``column`` on
        for column in (0, 4, 9):
            words = random.Random(720 + column)
            units = min(column, 7)
            matrix = [[int(i == j) for j in range(10)] for i in range(units)]
            while len(matrix) < 9:
                head = [words.randint(-9, 9) for _ in range(units)] + [0] * (column - units)
                tail = [words.randint(WORD // 2, WORD - 1) | 1 for _ in range(10 - column)]
                matrix.append(head + tail)
            cases.append((matrix, 10, oracle_rank(matrix, 10)))
        for matrix, ncols, expected in cases:
            assert linalg.rank(matrix, ncols) == expected

    def test_word_edge_entries(self):
        rng = random.Random(719)
        for extremes in ((WORD - 1, -WORD), (-(WORD - 1),), (WORD,), (-WORD - 1,)):
            matrix = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(9)]
            for i, x in enumerate(extremes):
                matrix[3 + i][5 + i] = x
            assert linalg.rank(matrix) == oracle_rank(matrix, 12)

    def test_dense_growth_reaches_the_list_kernel(self, kernel_calls):
        rng = random.Random(721)
        matrix = [[rng.randint(-2**30, 2**30) for _ in range(24)] for _ in range(20)]
        assert linalg.rank(matrix) == 20
        assert len(kernel_calls) == 1


class TestColumnSpace:
    def test_proportional_rows_single_column(self):
        basis = column_space_basis([[1, 2], [2, 4]])
        assert basis == frac_matrix([[1], [2]])

    def test_identity_returns_itself(self):
        assert column_space_basis(identity(3)) == identity(3)

    def test_rank_three_product(self):
        rng = random.Random(404)
        left = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
        right = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
        while linalg.rank(left, 3) < 3 or linalg.rank(right, 6) < 3:
            left = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
            right = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
        product = linalg.matmul(left, right)
        basis = column_space_basis(product)
        assert len(basis[0]) == 3


class TestMatmul:
    def test_identity_neutral(self):
        matrix = frac_matrix([[1, 2], [3, 4], [5, 6]])
        assert linalg.matmul(identity(3), matrix) == matrix

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
    """Solving square systems through the rref oracle, as the helpers invert."""

    def test_diagonal(self):
        solution = solve([[2, 0], [0, 4]], identity(2))
        assert solution == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 4)]]

    def test_inverse_roundtrip(self):
        rng = random.Random(606)
        for _ in range(10):
            m = rng.randint(1, 5)
            matrix = [
                [Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(m)
            ]
            if linalg.rank(matrix, m) < m:
                continue
            inverse = solve(matrix, identity(m))
            assert linalg.matmul(matrix, inverse) == identity(m)

    def test_singular_rejected(self):
        # the left block of [a | I] has rank 1, so no pivot lands in column 1
        assert solve([[1, 2], [2, 4]], identity(2)) is None


class TestScalars:
    def test_parse_int_and_string(self):
        assert linalg.parse_rational_pair(7) == (7, 1)
        assert linalg.parse_rational_pair("-3/6") == (-3, 6)
        assert linalg.parse_rational_pair("+4") == (4, 1)

    # "3\n", Arabic-Indic and mathematical bold digits are no "a/b" literal
    @pytest.mark.parametrize(
        "bad",
        [1.5, True, "3.2", "1/0", "a/b", "2/-3", None, "3\n", " 3", "\u0663", "3/\u0665", "\U0001d7d1"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            linalg.parse_rational_pair(bad)

    def test_serialize_canonical(self):
        assert linalg.rational_to_json(Fraction(6, 3)) == 2
        assert linalg.rational_to_json(Fraction(-1, 2)) == "-1/2"
        pair = linalg.parse_rational_pair(linalg.rational_to_json(Fraction(22, 7)))
        assert Fraction(*pair) == Fraction(22, 7)

    def test_as_rational_rejects_float_and_bool(self):
        with pytest.raises(InputError):
            linalg.as_rational(0.5)
        with pytest.raises(InputError):
            linalg.as_rational(True)

    def test_clear_denominators_scales_by_the_lcm(self):
        assert linalg.clear_denominators([(1, 2), (1, 3), (6, 1)]) == (6, [3, 2, 36])
        assert linalg.clear_denominators([(2, 4), (-6, 3)]) == (12, [6, -24])
        assert linalg.clear_denominators([(0, 5), (7, 1)]) == (5, [0, 35])
        assert linalg.clear_denominators([]) == (1, [])


class TestShapeValidation:
    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            linalg.rank([[1, 2], [3]])

    def test_empty_needs_width(self):
        with pytest.raises(InputError):
            linalg.rank([])
        assert linalg.rank([], 5) == 0


class TestRankCore:
    def test_tall_int_matrix_is_left_unchanged(self):
        rng = random.Random(1901)
        for rows, cols in ((12, 5), (30, 9), (9, 8), (3, 0)):
            matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            before = [list(row) for row in matrix]
            assert linalg.rank(matrix, cols) == oracle_rank(matrix, cols)
            assert matrix == before
        assert linalg.rank([[Fraction(1, 2), 3], [1, 1], [2, 2]]) == 2

    def test_tall_matrix_is_still_validated(self):
        with pytest.raises(InputError):
            linalg.rank([[1, 2], [3, True], [5, 6]])
        with pytest.raises(InputError):
            linalg.rank([[1, 2], [3, 4.0], [5, 6]])
        with pytest.raises(InputError):
            linalg.rank([[1, 2], [3], [5, 6]])
        with pytest.raises(InputError):
            linalg.rank([[1, 2], [3, 4], [5, 6]], 3)

    def test_core_orients_and_dispatches(self, kernel_calls):
        rng = random.Random(1902)
        for rows, cols in ((40, 9), (9, 40), (9, 8), (8, 9), (12, 12), (5, 30), (30, 5)):
            matrix = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            expected = oracle_rank(matrix, cols)
            for given in ([list(row) for row in matrix], tuple(map(tuple, matrix))):
                kernel_calls.clear()
                assert linalg.rank_int_rows(given, cols) == expected
                assert kernel_calls == [(min(rows, cols), max(rows, cols))]

    def test_input_is_left_unchanged(self):
        rng = random.Random(2501)
        wide, tall, square = (
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            for rows, cols in ((5, 9), (20, 5), (6, 6))
        )
        certified = [[0, 3, 1, 0], [2, 0, 0, 5], [0, 0, 0, 0], [0, 0, -4, 1]]
        colliding = [[0, 2, 4, 1], [0, 1, 2, 3], [0, 0, 0, 0], [1, 0, 0, 0]]
        for matrix in (wide, tall, square, certified, colliding):
            cols = len(matrix[0])
            expected = oracle_rank(matrix, cols)
            # lists, which the kernel would reduce in place, and tuples
            for given in (matrix, tuple(map(tuple, matrix))):
                for rank in (linalg.rank_int_rows, linalg.rank):
                    before = deepcopy(given)
                    assert rank(given, cols) == expected
                    assert given == before

    def test_rows_with_distinct_leads_rank_with_no_elimination(self, kernel_calls):
        rng = random.Random(1903)
        for _ in range(40):
            cols = rng.randint(1, 30)
            leads = rng.sample(range(cols), rng.randint(0, cols))
            matrix = [
                [0] * lead + [rng.choice((-1, 1)) * rng.randint(1, 2**70)]
                + [rng.randint(-9, 9) for _ in range(cols - lead - 1)]
                for lead in leads
            ]
            # zero rows are dropped before the leads are read
            for _ in range(rng.randint(0, 3)):
                matrix.insert(rng.randint(0, len(matrix)), [0] * cols)
            expected = oracle_rank(matrix, cols)
            assert expected == len(leads)
            kernel_calls.clear()
            assert linalg.rank_int_rows([list(row) for row in matrix], cols) == expected
            assert linalg.rank(matrix, cols) == expected
            assert kernel_calls == []

    def test_colliding_leads_always_reach_the_kernel(self, kernel_calls):
        rng = random.Random(1904)
        for trial in range(60):
            cols = rng.randint(2, 14)
            matrix = []
            for _ in range(rng.randint(1, 11)):
                lead = rng.randrange(cols)
                head = [0] * lead + [rng.choice((-2, -1, 1, 3))]
                matrix.append(head + [rng.randint(-3, 3) for _ in range(cols - lead - 1)])
            # one more row on the lead column of another, half the time its double
            other = rng.choice(matrix)
            lead = next(c for c, x in enumerate(other) if x)
            twin = [0] * lead + [rng.choice((-1, 1))]
            twin += [rng.randint(-3, 3) for _ in range(cols - lead - 1)]
            if trial % 2:
                twin = [2 * x for x in other]
            matrix.insert(rng.randint(0, len(matrix)), twin)
            expected = oracle_rank(matrix, cols)
            kernel_calls.clear()
            assert linalg.rank_int_rows([list(row) for row in matrix], cols) == expected
            assert len(kernel_calls) == 1
            assert trial % 2 == 0 or expected < len(matrix)
        assert linalg.rank_int_rows([[0, 2, 4], [0, 0, 0], [0, 1, 2]], 3) == 1

    def test_zero_width_and_no_rows(self):
        assert linalg.rank_int_rows([[] for _ in range(10)], 0) == 0
        assert linalg.rank_int_rows([], 7) == 0
        assert linalg.rank([[] for _ in range(10)], 0) == 0
