import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from nodalic import bott, cli, linalg, monodromy, points
from nodalic.errors import InputError, PreconditionError
from nodalic.monodromy import (
    FAIL_DEGENERATE,
    FAIL_ORTHOGONALITY,
    FAIL_SKEW,
    FAIL_ZERO_CYCLE,
    MonodromyData,
)

from helpers import (
    NoFraction,
    basis_vector,
    identity,
    kernel_basis,
    log_matrix,
    random_monodromy_data,
    rational_cycles,
    rational_pairing,
    rref,
    standard_symplectic,
    textbook_stalk_complex,
    transvection,
)


def data_for(m, cycles, h_ambient=0, pairing=None):
    return MonodromyData.from_rationals(
        dim=m,
        pairing=pairing or standard_symplectic(m),
        cycles=cycles,
        h_ambient=h_ambient,
    )


def determinant(matrix):
    # exact Gaussian elimination with row swaps
    m = [list(row) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def pair(pairing, x, y):
    """Value of the intersection form: x^T * pairing * y."""
    return sum(a * p * b for a, row in zip(x, pairing) for p, b in zip(row, y))


class TestPlOperator:
    """The explicit logarithm the tests compare against, and the package's
    checks on the data it is built from."""

    def test_standard_plane_operator(self):
        op = log_matrix(standard_symplectic(2), (1, 0), -1)
        assert op == [[0, 1], [0, 0]]

    def test_zero_cycle_gives_zero_matrix(self):
        op = log_matrix(standard_symplectic(4), (0, 0, 0, 0), -1)
        assert all(all(x == 0 for x in row) for row in op)

    def test_square_is_zero(self):
        rng = random.Random(11)
        for _ in range(20):
            m = 2 * rng.randint(1, 4)
            cycle = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            for sign in (1, -1):
                n = log_matrix(standard_symplectic(m), cycle, sign)
                square = linalg.matmul(n, n)
                assert all(all(x == 0 for x in row) for row in square)

    def test_rank_at_most_one(self):
        op = log_matrix(standard_symplectic(4), (1, 2, 3, 4), 1)
        assert linalg.rank(op, 4) == 1

    def test_implements_pairing_action(self):
        m = 4
        pairing = standard_symplectic(m)
        cycle = [Fraction(x) for x in (2, -1, 0, 3)]
        op = log_matrix(pairing, cycle, -1)
        rng = random.Random(12)
        for _ in range(10):
            x = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
            image = [sum(op[i][j] * x[j] for j in range(m)) for i in range(m)]
            value = pair(pairing, x, cycle)
            assert image == [-value * v for v in cycle]

    def test_symmetric_pairing_rejected(self):
        data = data_for(2, [(1, 0)], pairing=identity(2))
        with pytest.raises(PreconditionError, match=FAIL_SKEW):
            monodromy.ic_stalk(data)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            data_for(4, [(1, 0)])

    def test_bad_sign(self):
        # only the ints +1 and -1: bool is excluded as check_int excludes
        # it, and a float or a Fraction would put non-ints into d0
        data = data_for(2, [(1, 0)])
        for sign in (2, True, 1.0, -1.0, Fraction(1)):
            for run in (monodromy.build_stalk_complex, monodromy.ic_stalk):
                with pytest.raises(InputError) as err:
                    run(data, sign)
                assert str(err.value) == f"sign must be +1 or -1, got {sign!r}"


class TestTransvection:
    def test_zero_log_gives_identity(self):
        assert transvection(standard_symplectic(2), (0, 0), -1) == identity(2)

    def test_determinant_one(self):
        rng = random.Random(13)
        for _ in range(15):
            m = 2 * rng.randint(1, 3)
            cycle = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            assert determinant(transvection(standard_symplectic(m), cycle, -1)) == 1

    def test_opposite_signs_invert(self):
        m = 4
        cycle = (1, 2, 0, -1)
        product = linalg.matmul(
            transvection(standard_symplectic(m), cycle, 1),
            transvection(standard_symplectic(m), cycle, -1),
        )
        assert product == identity(m)

    def test_shifted_diagonal(self):
        t = transvection(standard_symplectic(2), (1, 0), -1)
        assert t == [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]


class TestValidate:
    def test_orthogonal_pair_passes(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 2)])
        diagnostics = monodromy.validate(data)
        assert diagnostics.passed
        assert diagnostics.failures == ()

    def test_pairing_partners_fail_orthogonality(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 1)])
        diagnostics = monodromy.validate(data)
        assert not diagnostics.pairwise_orthogonal
        assert FAIL_ORTHOGONALITY in diagnostics.failures

    def test_symmetric_pairing_fails_skew(self):
        data = data_for(2, [basis_vector(2, 0)], pairing=identity(2))
        diagnostics = monodromy.validate(data)
        assert not diagnostics.skew
        assert FAIL_SKEW in diagnostics.failures

    def test_degenerate_pairing_detected(self):
        zero = [[Fraction(0)] * 2 for _ in range(2)]
        data = data_for(2, [basis_vector(2, 0)], pairing=zero)
        diagnostics = monodromy.validate(data)
        assert diagnostics.skew
        assert not diagnostics.nondegenerate
        assert FAIL_DEGENERATE in diagnostics.failures

    def test_zero_cycle_detected(self):
        data = data_for(2, [(0, 0)])
        diagnostics = monodromy.validate(data)
        assert not diagnostics.cycles_nonzero
        assert FAIL_ZERO_CYCLE in diagnostics.failures

    def test_never_raises(self):
        data = data_for(2, [(0, 0), (1, 0), (0, 1)], pairing=identity(2))
        diagnostics = monodromy.validate(data)
        assert not diagnostics.passed
        assert len(diagnostics.failures) >= 2


class TestDataParsing:
    def test_from_json(self):
        doc = {
            "dim": 2,
            "pairing": [[0, 1], [-1, 0]],
            "cycles": [["1/2", 0]],
            "h_ambient": 3,
        }
        data = MonodromyData.from_json(doc)
        assert (data.int_cycles, data.cycle_scales) == (((1, 0),), (2,))
        assert data.h_ambient == 3
        assert data.fiber_dim is None

    def test_optional_fiber_dim(self):
        doc = {
            "dim": 2,
            "pairing": [[0, 1], [-1, 0]],
            "cycles": [],
            "h_ambient": 0,
            "fiber_dim": 3,
        }
        assert MonodromyData.from_json(doc).fiber_dim == 3

    def test_even_fiber_dim_rejected(self):
        with pytest.raises(InputError, match="odd"):
            MonodromyData.from_rationals(
                dim=2,
                pairing=((0, 1), (-1, 0)),
                cycles=(),
                h_ambient=0,
                fiber_dim=4,
            )

    def test_missing_and_extra_keys(self):
        with pytest.raises(InputError):
            MonodromyData.from_json({"dim": 2})
        with pytest.raises(InputError):
            MonodromyData.from_json(
                {
                    "dim": 2,
                    "pairing": [[0, 1], [-1, 0]],
                    "cycles": [],
                    "h_ambient": 0,
                    "spin": 1,
                }
            )

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            MonodromyData.from_json(
                {
                    "dim": 2,
                    "pairing": [[0, 1], [-1, 0]],
                    "cycles": [[1, 0, 0]],
                    "h_ambient": 0,
                }
            )

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"pairing": "x"}, "matrix must be a JSON array of rows"),
            ({"pairing": [[0, 1], 5]}, "row 1 is not an array"),
            # a row's literals are parsed before the next row is looked at
            ({"pairing": [[0, "x"], 5]}, "not a rational literal: 'x'"),
            ({"pairing": [[0, 1, 0], [-1, 0]]}, "row 0 has 3 entries, expected 2"),
            # every literal of the pairing is parsed before any row length
            ({"pairing": [[0, 1, 0], [-1, "z"]]}, "not a rational literal: 'z'"),
            ({"pairing": [[0, 1]]}, "pairing has 1 rows, expected 2"),
            ({"pairing": [[0, "1/0"], [-1, 0]]}, "zero denominator: '1/0'"),
            ({"pairing": [[0, "abc"], [-1, 0]]}, "not a rational literal: 'abc'"),
            (
                {"pairing": [[0, 1.5], [-1, 0]]},
                'expected an integer or "a/b" string, got float: 1.5',
            ),
            (
                {"cycles": [[1, 0.5]]},
                'expected an integer or "a/b" string, got float: 0.5',
            ),
            ({"cycles": [[1, "q"]]}, "not a rational literal: 'q'"),
            ({"cycles": "x"}, '"cycles" must be an array of vectors'),
            ({"cycles": [[1, 0], 3]}, "cycle 1 is not an array"),
            ({"cycles": [[1, 0, 0]]}, "cycle 0 has length 3, expected 2"),
            # a ragged pairing row wins over a bad cycle literal
            (
                {"pairing": [[0, 1, 0], [-1, 0]], "cycles": [[1, "q"]]},
                "row 0 has 3 entries, expected 2",
            ),
            # the row count is checked after the cycles are parsed, but
            # before their lengths
            (
                {"pairing": [[0, 1]], "cycles": [[1, "q"]]},
                "not a rational literal: 'q'",
            ),
            (
                {"pairing": [[0, 1]], "cycles": [[1, 0, 0]]},
                "pairing has 1 rows, expected 2",
            ),
        ],
    )
    def test_document_error_messages(self, changes, message):
        doc = {"dim": 2, "pairing": [[0, 1], [-1, 0]], "cycles": [[1, 0]], "h_ambient": 0}
        doc.update(changes)
        with pytest.raises(InputError) as err:
            MonodromyData.from_json(doc)
        assert str(err.value) == message

    def test_from_json_and_from_rationals_agree(self):
        doc = {
            "dim": 4,
            "pairing": [
                [0, "3/2", 0, 0], ["-3/2", 0, 0, 0], [0, 0, 0, 5], [0, 0, -5, 0]
            ],
            "cycles": [["1/3", 0, "-2/3", 0], [0, 0, "7/4", 0], [2, 0, 0, 0]],
            "h_ambient": 2,
            "fiber_dim": 3,
        }
        rational = MonodromyData.from_rationals(
            dim=4,
            pairing=[[Fraction(x) for x in row] for row in doc["pairing"]],
            cycles=[[Fraction(x) for x in c] for c in doc["cycles"]],
            h_ambient=2,
            fiber_dim=3,
        )
        assert MonodromyData.from_json(doc) == rational
        assert rational.scale == 2
        assert rational.cycle_scales == (3, 4, 1)

    def test_spelling_does_not_matter(self):
        def doc(half, third, two):
            return {
                "dim": 2,
                "pairing": [[0, half], ["-" + half, 0]],
                "cycles": [[third, 0], [0, two]],
                "h_ambient": 0,
            }

        plain = MonodromyData.from_json(doc("1/2", "1/3", 2))
        spelled = MonodromyData.from_json(doc("2/4", "3/9", "6/3"))
        assert spelled == plain
        assert spelled.int_pairing == plain.int_pairing == ((0, 1), (-1, 0))
        assert spelled.int_cycles == plain.int_cycles == ((1, 0), (0, 2))
        assert (spelled.scale, spelled.cycle_scales) == (2, (3, 1))

    def test_int_forms_encode_the_rationals(self):
        data = MonodromyData.from_json(
            {
                "dim": 2,
                "pairing": [[0, "4/6"], ["-2/3", 0]],
                "cycles": [["1/2", "-1/5"], [3, "9/6"], [0, 0]],
                "h_ambient": 0,
            }
        )
        assert (data.int_pairing, data.scale) == (((0, 2), (-2, 0)), 3)
        assert rational_pairing(data) == [[0, Fraction(2, 3)], [Fraction(-2, 3), 0]]
        assert rational_cycles(data) == (
            (Fraction(1, 2), Fraction(-1, 5)),
            (Fraction(3), Fraction(3, 2)),
            (Fraction(0), Fraction(0)),
        )
        assert data.cycle_scales == (10, 2, 1)
        assert data.int_cycles == ((5, -2), (6, 3), (0, 0))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"fiber_dim": 4}, "fiber_dim must be odd, got 4"),
            ({"pairing": [[0, 1]]}, "pairing has 1 rows, expected 2"),
            ({"cycles": [[1, 0, 0]]}, "cycle 0 has length 3, expected 2"),
            ({"cycles": [[1, 0], 3]}, "cycle 1 is not a vector"),
            ({"pairing": [[0, 1.5], [-1, 0]]}, "expected an int or Fraction, got float: 1.5"),
            ({"cycles": [[0.5, 0]]}, "expected an int or Fraction, got float: 0.5"),
            ({"pairing": [[0, 1, 0], [-1, 0]]}, "row 0 has 3 entries, expected 2"),
            ({"h_ambient": -1}, "h_ambient must be at least 0, got -1"),
        ],
    )
    def test_from_rationals_error_messages(self, changes, message):
        kwargs = {"dim": 2, "pairing": [[0, 1], [-1, 0]], "cycles": [[1, 0]], "h_ambient": 0}
        kwargs.update(changes)
        with pytest.raises(InputError) as err:
            MonodromyData.from_rationals(**kwargs)
        assert str(err.value) == message


class TestStalkComplex:
    def test_single_cycle_dims(self):
        complex_ = monodromy.build_stalk_complex(data_for(2, [(1, 0)]))
        # f = J e_0 = (0, -1), and the default sign is -1
        assert complex_ == (2, 1, ((0, 1),))

    def test_orthogonal_pair_kills_degree_two(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 2)])
        complex_ = monodromy.build_stalk_complex(data)
        assert (complex_.dim, complex_.delta, len(complex_.d0)) == (4, 2, 2)
        assert monodromy.complex_cohomology(complex_) == [2, 0, 0]

    def test_no_cycles(self):
        complex_ = monodromy.build_stalk_complex(data_for(4, []))
        assert complex_ == (4, 0, ())

    def test_non_commuting_rejected(self):
        # <v_0, v_1> != 0, so the product of the two logs is nonzero
        data = data_for(2, [(1, 0), (0, 1)])
        with pytest.raises(PreconditionError, match=FAIL_ORTHOGONALITY):
            monodromy.build_stalk_complex(data)

    def test_differential_composition_vanishes(self):
        # the complex stops at d0 because every product of two explicit
        # logarithms is zero on the data the builder accepts
        rng = random.Random(15)
        for _ in range(10):
            data = random_monodromy_data(rng, max_half_dim=4, max_delta=5)
            monodromy.build_stalk_complex(data)
            pairing = rational_pairing(data)
            logs = [log_matrix(pairing, c, -1) for c in rational_cycles(data)]
            for a in logs:
                for b in logs:
                    product = linalg.matmul(a, b)
                    assert all(all(x == 0 for x in row) for row in product)

    def test_d0_has_at_most_one_row_per_node(self):
        # complex_cohomology reads h1 as len(d0) - rank, so its numbers
        # hold for the complexes the builder makes: a row per node whose
        # functional is nonzero
        rng = random.Random(16)
        for _ in range(20):
            data = random_monodromy_data(rng, max_half_dim=4, max_delta=5)
            complex_ = monodromy.build_stalk_complex(data)
            nonzero = sum(1 for f in data.functionals if any(f))
            assert len(complex_.d0) == nonzero <= complex_.delta


class TestComplexCohomology:
    def test_single_cycle(self):
        complex_ = monodromy.build_stalk_complex(data_for(2, [(1, 0)]))
        assert monodromy.complex_cohomology(complex_) == [1, 0]

    def test_repeated_cycle(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 0)])
        complex_ = monodromy.build_stalk_complex(data)
        assert monodromy.complex_cohomology(complex_) == [3, 1, 0]

    def test_no_differentials(self):
        complex_ = monodromy.build_stalk_complex(data_for(6, []))
        assert monodromy.complex_cohomology(complex_) == [6]

    def test_kernel_of_first_differential_pairs_to_zero(self):
        rng = random.Random(16)
        for _ in range(15):
            data = random_monodromy_data(rng, max_half_dim=4, max_delta=5)
            if data.delta == 0:
                continue
            complex_ = monodromy.build_stalk_complex(data)
            d0 = [list(r) for r in complex_.d0]
            if not d0:
                kernel_cols = identity(data.dim)
            else:
                kernel_cols = kernel_basis(d0, data.dim)
            width = len(kernel_cols[0]) if kernel_cols else 0
            pairing, cycles = rational_pairing(data), rational_cycles(data)
            for col in range(width):
                x = [kernel_cols[i][col] for i in range(data.dim)]
                for cycle in cycles:
                    assert pair(pairing, x, cycle) == 0


class TestIcStalk:
    def test_single_cycle_report(self):
        report = monodromy.ic_stalk(data_for(2, [(1, 0)], h_ambient=1))
        assert report.h0 == 1
        assert report.h1 == 0
        assert report.defect == 0
        assert report.h_top_singular == 1
        assert report.higher == ()

    def test_orthogonal_pair(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 2)])
        report = monodromy.ic_stalk(data)
        assert report.h0 == 2
        assert report.h1 == 0
        assert report.span_dim == 2

    def test_repeated_cycle_defective(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 0)], h_ambient=1)
        report = monodromy.ic_stalk(data)
        assert report.h0 == 3
        assert report.h1 == 1
        assert report.defect == 1
        assert report.span_dim == 1
        assert report.h_top_singular == 2
        assert report.higher == (0,)
        assert report.filtration == (1, 1)

    def test_zero_cycle_rejected_by_name(self):
        data = data_for(2, [(0, 0)])
        with pytest.raises(PreconditionError) as err:
            monodromy.ic_stalk(data)
        assert str(err.value) == FAIL_ZERO_CYCLE

    def test_non_orthogonal_rejected_by_name(self):
        data = data_for(2, [(1, 0), (0, 1)])
        with pytest.raises(PreconditionError) as err:
            monodromy.ic_stalk(data)
        assert str(err.value) == FAIL_ORTHOGONALITY

    def test_sign_invariance(self):
        rng = random.Random(17)
        for _ in range(15):
            data = random_monodromy_data(rng, max_half_dim=4, max_delta=4)
            assert monodromy.ic_stalk(data, 1) == monodromy.ic_stalk(data, -1)

    def test_json_fields(self):
        doc = monodromy.ic_stalk(data_for(2, [(1, 0)]))._asdict()
        assert set(doc) == {
            "h0", "h1", "higher", "span_dim", "excision_rank",
            "h_top_singular", "defect", "filtration",
        }


class TestExcision:
    def test_orthogonal_pair(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 2)])
        assert monodromy.excision_rank(data) == 2

    def test_repeated_cycle(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 0)])
        assert monodromy.excision_rank(data) == 1

    def test_no_cycles(self):
        assert monodromy.excision_rank(data_for(4, [])) == 0

    def test_matches_span_for_nondegenerate_pairing(self):
        rng = random.Random(18)
        for _ in range(15):
            data = random_monodromy_data(rng)
            assert monodromy.excision_rank(data) == monodromy.span_dim(data)


class TestPerverseFiltration:
    """``report.filtration`` is (graded 0, graded 1); the negative piece is 0."""

    def test_defect_free(self):
        report = monodromy.ic_stalk(data_for(2, [(1, 0)], h_ambient=5))
        assert report.filtration == (report.defect, 5) == (report.h1, 5) == (0, 5)
        assert report.h_top_singular == 5

    def test_defective_example(self):
        data = data_for(4, [basis_vector(4, 0), basis_vector(4, 0)], h_ambient=1)
        report = monodromy.ic_stalk(data)
        assert report.filtration == (report.defect, 1) == (report.h1, 1) == (1, 1)
        assert report.h_top_singular == 2

    def test_pieces_sum_to_total(self):
        rng = random.Random(19)
        for _ in range(15):
            data = random_monodromy_data(rng)
            report = monodromy.ic_stalk(data)
            graded_0, graded_1 = report.filtration
            assert graded_0 == report.defect == report.h1
            assert graded_1 == data.h_ambient
            assert sum(report.filtration) == report.h_top_singular


class TestOperatorIdentities:
    def test_products_vanish_pairwise(self):
        rng = random.Random(20)
        for _ in range(10):
            data = random_monodromy_data(rng, max_half_dim=3, max_delta=4)
            pairing = rational_pairing(data)
            logs = [log_matrix(pairing, c, -1) for c in rational_cycles(data)]
            for n in logs:
                square = linalg.matmul(n, n)
                assert all(all(x == 0 for x in row) for row in square)
            for a, b in combinations(logs, 2):
                product = linalg.matmul(a, b)
                assert all(all(x == 0 for x in row) for row in product)

    def test_closed_form_matches_complex(self):
        rng = random.Random(21)
        for _ in range(15):
            data = random_monodromy_data(rng, max_half_dim=4, max_delta=5)
            s = monodromy.span_dim(data)
            cohomology = monodromy.complex_cohomology(
                monodromy.build_stalk_complex(data)
            )
            assert cohomology[0] == data.dim - s
            if data.delta:
                assert cohomology[1] == data.delta - s
            assert all(v == 0 for v in cohomology[2:])


class TestSparseComplex:
    def test_orthogonal_cycles_store_one_summand_per_log(self):
        # valid cycles are nonzero, so each has a nonzero log and one row
        rng = random.Random(22)
        for _ in range(15):
            data = random_monodromy_data(rng, max_half_dim=4, max_delta=8)
            complex_ = monodromy.build_stalk_complex(data)
            assert complex_.delta == len(complex_.d0) == data.delta
            cohomology = monodromy.complex_cohomology(complex_)
            assert len(cohomology) == data.delta + 1
            assert not any(cohomology[2:])

    def test_forty_nodes(self):
        # 2^40 index tuples, of which only the 40 single logs are nonzero
        rng = random.Random(23)
        m = 8
        cycles = []
        for _ in range(40):
            scale = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
            cycles.append(
                [scale * rng.randint(-2, 2) if i % 2 == 0 else 0 for i in range(m)]
            )
            cycles[-1][0] = scale
        data = data_for(m, cycles, h_ambient=2)
        s = monodromy.span_dim(data)
        report = monodromy.ic_stalk(data)
        assert (report.h0, report.h1) == (m - s, 40 - s)
        assert report.higher == (0,) * 39
        assert report.excision_rank == s


def reference_differential(data, logs):
    """d0 with every block solved by rref, in the bases the complex implies.

    Degree 0 has the identity basis, and node i, when its log is
    nonzero, has a summand in degree 1 with basis the column v_i.  The
    block of node i is the coordinates of N_i applied to the identity,
    in the basis v_i.
    """
    source = identity(data.dim)
    rows = []
    for v, log in zip(data.int_cycles, logs):
        if not any(any(r) for r in log):
            continue
        image = linalg.matmul(log, source)
        aug = [[b] + list(i) for b, i in zip(v, image)]
        reduced, rank, _ = rref(aug)
        assert rank == 1
        rows.append(reduced[0][1:])
    return rows


class TestDroppedFactorBlocks:
    """On data the builder accepts, no block prepends or drops a factor.

    d0 is the only differential, and it holds the rref coordinates of
    each log applied to the identity, in the basis v_i of its node.
    """

    def test_image_off_the_line_rejected(self):
        # <v_1, v_0> = 1 under the identity pairing: N_1 carries v_0 onto
        # v_1, which is not a multiple of v_0, and N_1 N_0 is nonzero
        pairing = [[1, 0], [0, 1]]
        data = data_for(2, [(1, 0), (1, 1)], pairing=pairing)
        with pytest.raises(PreconditionError, match=FAIL_ORTHOGONALITY):
            monodromy.build_stalk_complex(data)

    def test_random_blocks_are_signed_gram_entries(self):
        rng = random.Random(28)
        reached = 0
        for _ in range(40):
            data = random_monodromy_data(rng, max_half_dim=4, max_delta=6)
            for sign in (1, -1):
                complex_ = monodromy.build_stalk_complex(data, sign)
                logs = [log_matrix(data.int_pairing, v, sign) for v in data.int_cycles]
                if data.delta:
                    assert [list(r) for r in complex_.d0] == (
                        reference_differential(data, logs)
                    )
                    reached += 1
        assert reached >= 40


# a non-symmetric pairing and proportional cycles with <v, v> != 0: the
# logs commute, but every product of them is nonzero
DEEP_PAIRING = [[2, 1, 0], [0, 1, -1], [1, 0, 3]]
DEEP_CYCLES = [(1, -1, 2), (Fraction(1, 2), Fraction(-1, 2), 1), (-3, 3, -6)]


def random_non_skew_data(rng):
    """Random pairing, skew or not, and proportional rational cycles.

    All the logs are multiples of one rank-one operator, so they
    commute, and every product of nonzero ones is nonzero exactly when
    the common direction u has <u, u> != 0; a zero multiple makes a zero
    cycle, whose products vanish.
    """
    m = rng.randint(2, 4)
    pairing = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        for _ in range(m)
    ]
    direction = [0] * m
    while not any(direction):
        direction = [rng.randint(-2, 2) for _ in range(m)]
    cycles = []
    for _ in range(rng.randint(1, 5)):
        factor = Fraction(rng.choice((-3, -2, -1, 0, 1, 2)), rng.choice((1, 2, 3)))
        cycles.append([factor * x for x in direction])
    return data_for(m, cycles, pairing=pairing)


class TestTextbookComplex:
    def check(self, data, sign):
        complex_ = monodromy.build_stalk_complex(data, sign)
        index_sets, dims, cohomology = textbook_stalk_complex(
            rational_pairing(data), rational_cycles(data), sign
        )
        # the builder accepted, so the products of two or more logs vanish
        assert not any(index_sets[2:])
        nodes = [i for i, f in enumerate(data.functionals) if any(f)]
        if data.delta:
            assert index_sets[1] == [(i,) for i in nodes]
        assert complex_.d0 == tuple(
            tuple(sign * x for x in data.functionals[i]) for i in nodes
        )
        two_terms = [data.dim, len(complex_.d0)] + [0] * (data.delta - 1)
        assert dims == two_terms[: data.delta + 1]
        assert monodromy.complex_cohomology(complex_) == cohomology
        assert all(type(x) is int for row in complex_.d0 for x in row)
        return complex_

    def test_valid_random_data(self):
        rng = random.Random(24)
        for _ in range(15):
            data = random_monodromy_data(rng, max_half_dim=3, max_delta=5)
            for sign in (1, -1):
                self.check(data, sign)

    def test_non_skew_proportional_cycles(self):
        # the builder refuses every draw with a nonzero product of two logs
        rng = random.Random(25)
        refused = matched = 0
        for _ in range(30):
            data = random_non_skew_data(rng)
            gram = data.gram
            if any(g for i, row in enumerate(gram) for j, g in enumerate(row) if i != j):
                for sign in (1, -1):
                    with pytest.raises(PreconditionError, match=FAIL_ORTHOGONALITY):
                        monodromy.build_stalk_complex(data, sign)
                refused += 1
            else:
                for sign in (1, -1):
                    self.check(data, sign)
                matched += 1
        # the draws must reach both cases
        assert refused >= 5 and matched >= 5


def document(data):
    """The JSON document of ``data``."""
    return {
        "dim": data.dim,
        "pairing": [[linalg.rational_to_json(x) for x in r] for r in rational_pairing(data)],
        "cycles": [[linalg.rational_to_json(x) for x in c] for c in rational_cycles(data)],
        "h_ambient": data.h_ambient,
    }


class TestIntegerPath:
    def test_ic_stalk_builds_no_fraction(self, monkeypatch, tmp_path, capsys):
        rng = random.Random(26)
        docs = [
            document(random_monodromy_data(rng, max_half_dim=5, max_delta=6))
            for _ in range(20)
        ]
        assert any(isinstance(x, str) for doc in docs for c in doc["cycles"] for x in c)
        path = tmp_path / "monodromy.json"
        path.write_text(json.dumps(docs[0]), encoding="utf-8")

        monkeypatch.setattr(linalg, "Fraction", NoFraction)
        for doc in docs:
            data = MonodromyData.from_json(doc)
            for sign in (1, -1):
                monodromy.ic_stalk(data, sign)
        assert cli.run(["ic-stalk", "--input", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["h0"] >= 0

    def test_cohomology_of_deep_complex_builds_no_fraction(self, monkeypatch):
        data = data_for(3, DEEP_CYCLES, pairing=DEEP_PAIRING)
        monkeypatch.setattr(linalg, "Fraction", NoFraction)
        for sign in (1, -1):
            with pytest.raises(PreconditionError, match=FAIL_ORTHOGONALITY):
                monodromy.build_stalk_complex(data, sign)

    def test_points_and_chase_commands_build_no_fraction(
        self, monkeypatch, tmp_path, capsys
    ):
        """``points`` on a rational grid, ``grid``, the chase commands and
        ``paper-examples`` build no Fraction."""
        axis = ["1/2", -3, "5/3"]
        grid = {
            "ambient_dim": 2,
            "points": [[x, y, 1] for x in axis for y in ["-7/2", 2, 0]],
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        resolution = {
            "ambient_dim": 2,
            "resolved_twist": 0,
            "terms": [[{"mult": 2, "twist": -2}], [{"mult": 1, "twist": -4}]],
        }
        resolution_path = tmp_path / "resolution.json"
        resolution_path.write_text(json.dumps(resolution), encoding="utf-8")
        commands = [
            ["points", "--input", str(grid_path), "--degree", str(d)] for d in (1, 2, 3)
        ]
        commands += [
            ["koszul", "--n", "2", "--degrees", "2,2", "--twist", "3"],
            ["eagon-northcott", "--n", "3", "--quadrics", "2", "--twist", "2"],
            ["chase", "--input", str(resolution_path), "--twist", "2"],
            ["grid", "--n", "2", "--k", "4"],
            ["paper-examples", "--max-n", "3", "--max-k", "5", "--max-h", "2"],
        ]
        # linalg is the one module that binds Fraction
        for module in (bott, cli, monodromy, points):
            assert not hasattr(module, "Fraction")
        monkeypatch.setattr(linalg, "Fraction", NoFraction)
        for argv in commands:
            assert cli.run(argv) == 0
            assert capsys.readouterr().out
            assert cli.run(argv + ["--json"]) == 0
            assert json.loads(capsys.readouterr().out)


def random_unconstrained_data(rng):
    """Random pairing and cycles with no invariant imposed.

    Most draws fail several checks at once.
    """
    m = rng.randint(1, 3)
    pairing = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
    cycles = [
        [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)]
        for _ in range(rng.randint(1, 3))
    ]
    return data_for(m, cycles, pairing=pairing)


def reference_diagnostics(data):
    """Diagnostics from the Fraction pairing, and whether the explicit
    logarithm matrices commute pairwise."""
    pairing = rational_pairing(data)
    cycles = rational_cycles(data)
    m = data.dim
    skew = all(pairing[i][j] == -pairing[j][i] for i in range(m) for j in range(m))
    nondegenerate = rref(pairing, m)[1] == m
    cycles_nonzero = all(any(v) for v in cycles)
    orthogonal = all(
        pair(pairing, cycles[a], cycles[b]) == 0
        for a, b in combinations(range(len(cycles)), 2)
    )
    logs = [log_matrix(pairing, v, -1) for v in cycles]
    commute = all(
        linalg.matmul(a, b) == linalg.matmul(b, a) for a, b in combinations(logs, 2)
    )
    checks = (
        (skew, FAIL_SKEW),
        (nondegenerate, FAIL_DEGENERATE),
        (cycles_nonzero, FAIL_ZERO_CYCLE),
        (orthogonal, FAIL_ORTHOGONALITY),
    )
    diagnostics = monodromy.Diagnostics(
        skew=skew,
        nondegenerate=nondegenerate,
        cycles_nonzero=cycles_nonzero,
        pairwise_orthogonal=orthogonal,
        failures=tuple(name for passed, name in checks if not passed),
    )
    return diagnostics, commute


class TestGram:
    def draws(self):
        rng = random.Random(27)
        for _ in range(15):
            yield random_monodromy_data(rng, max_half_dim=4, max_delta=6)
            yield random_non_skew_data(rng)
            yield random_unconstrained_data(rng)
        yield data_for(2, [(1, 0), (1, 1)], pairing=identity(2))

    def test_entries_are_scaled_intersection_numbers(self):
        for data in self.draws():
            pairing = rational_pairing(data)
            cycles, scales = rational_cycles(data), data.cycle_scales
            assert len(data.gram) == data.delta
            for i, row in enumerate(data.gram):
                assert len(row) == data.delta
                for j, g in enumerate(row):
                    assert type(g) is int
                    # gram[i][j] is <v_j, v_i> up to a positive factor
                    assert g == (
                        pair(pairing, cycles[j], cycles[i])
                        * data.scale * scales[i] * scales[j]
                    )

    def test_diagnostics_match_explicit_products(self):
        failed = set()
        non_commuting = 0
        for data in self.draws():
            diagnostics = monodromy.validate(data)
            expected, commute = reference_diagnostics(data)
            assert diagnostics == expected
            failed.update(diagnostics.failures)
            # no commutation test is needed: skew data with orthogonal
            # cycles has logs that commute
            if not commute:
                assert {FAIL_SKEW, FAIL_ORTHOGONALITY} & set(diagnostics.failures)
                non_commuting += 1
        # the draws must reach every failure, and logs that do not commute
        assert failed == {
            FAIL_SKEW, FAIL_DEGENERATE, FAIL_ZERO_CYCLE, FAIL_ORTHOGONALITY,
        }
        assert non_commuting

    def test_no_dot_product_after_ingest(self, monkeypatch):
        rng = random.Random(28)
        valid = [
            MonodromyData.from_json(
                document(random_monodromy_data(rng, max_half_dim=4, max_delta=6))
            )
            for _ in range(10)
        ]
        deep = MonodromyData.from_json(
            document(data_for(3, DEEP_CYCLES, pairing=DEEP_PAIRING))
        )

        def no_dot(x, y):
            raise AssertionError("a dot product was taken after ingest")

        monkeypatch.setattr(monodromy, "_dot", no_dot)
        for data in valid:
            assert monodromy.validate(data).passed
            for sign in (1, -1):
                monodromy.build_stalk_complex(data, sign)
                monodromy.ic_stalk(data, sign)
        assert monodromy.validate(deep) == reference_diagnostics(deep)[0]
        for sign in (1, -1):
            # a non-skew pairing keeps products of two logs nonzero
            with pytest.raises(PreconditionError, match=FAIL_ORTHOGONALITY):
                monodromy.build_stalk_complex(deep, sign)
            with pytest.raises(PreconditionError, match=FAIL_SKEW):
                monodromy.ic_stalk(deep, sign)


def sweep_document(delta, cycles):
    """Standard symplectic document of dimension 2 * delta."""
    m = 2 * delta
    return {
        "dim": m,
        "pairing": [[int(x) for x in r] for r in standard_symplectic(m)],
        "cycles": cycles,
        "h_ambient": 1,
    }


def two_entry_cycles(rng, delta, s):
    """``delta`` cycles e_2a - e_2b spanning dimension ``s``.

    All lie on the even coordinates, which the standard symplectic form
    pairs to zero.  The first ``s`` are e_2k - e_2(k+1), independent
    and spanning the sum-zero vectors on the coordinates 0, 2, ..., 2s;
    the rest pick two of those coordinates at random.
    """
    m = 2 * delta
    pairs = [(k, k + 1) for k in range(s)]
    pairs += [tuple(rng.sample(range(s + 1), 2)) for _ in range(delta - s)]
    rng.shuffle(pairs)
    cycles = []
    for a, b in pairs:
        v = [0] * m
        v[2 * a], v[2 * b] = 1, -1
        cycles.append(v)
    return cycles


def dense_cycles(rng, delta, s):
    """``delta`` dense cycles on the first ``s`` even coordinates, span ``s``.

    The first ``s`` are the rows of a strictly diagonally dominant
    matrix (off-diagonal entries in [-1, 1], diagonal s), which is
    invertible; the rest are sums and differences of two of them.
    """
    m = 2 * delta
    basis = []
    for k in range(s):
        v = [0] * m
        for j in range(s):
            v[2 * j] = s if j == k else rng.randint(-1, 1)
        basis.append(v)
    cycles = list(basis)
    for _ in range(delta - s):
        a, b = rng.sample(basis, 2)
        c = rng.choice((-1, 1))
        cycles.append([x + c * y for x, y in zip(a, b)])
    rng.shuffle(cycles)
    return cycles


class TestDeltaSweep:
    @pytest.mark.parametrize(
        "delta, s, dense",
        [(50, 49, False), (100, 60, False), (200, 199, False), (50, 30, True)],
    )
    def test_isotropic_cycles(self, delta, s, dense):
        rng = random.Random(delta + s)
        cycles = (dense_cycles if dense else two_entry_cycles)(rng, delta, s)
        data = MonodromyData.from_json(sweep_document(delta, cycles))
        m = 2 * delta
        for sign in (1, -1):
            report = monodromy.ic_stalk(data, sign)
            assert (report.h0, report.h1) == (m - s, delta - s)
            assert report.span_dim == report.excision_rank == s
            assert report.higher == (0,) * (delta - 1)
        complex_ = monodromy.build_stalk_complex(data)
        assert complex_.delta == len(complex_.d0) == delta
        cohomology = monodromy.complex_cohomology(complex_)
        assert cohomology == [m - s, delta - s] + [0] * (delta - 1)
