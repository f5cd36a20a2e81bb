import random
import time
from itertools import combinations
from math import comb, factorial

import pytest

from nodalic import bott
from nodalic.errors import MAX_REPORTED_BITS, InputError, PreconditionError, check_int


def count_checks(monkeypatch):
    """The names that bott passes to check_int from now on, in order."""
    names = []

    def counting(value, name, *args, **kwargs):
        names.append(name)
        return check_int(value, name, *args, **kwargs)

    monkeypatch.setattr(bott, "check_int", counting)
    return names


class TestBottH:
    def test_sections_of_degree_one(self):
        assert bott.bott_h(2, 0, 1) == 3

    def test_top_cohomology_of_canonical_twist(self):
        assert bott.bott_h(2, 2, -3) == 1

    def test_obstructing_twist_for_k5(self):
        n, k = 2, 5
        assert bott.bott_h(n, n, n * (1 - k) + k) == 1

    def test_sections_count(self):
        assert bott.bott_h(2, 0, 3) == comb(5, 2)
        assert bott.bott_h(3, 0, 0) == 1
        assert bott.bott_h(4, 0, -1) == 0

    def test_no_intermediate_cohomology(self):
        for n in range(2, 7):
            for q in range(1, n):
                for a in range(-20, 21):
                    assert bott.bott_h(n, q, a) == 0

    def test_serre_duality(self):
        for n in range(1, 7):
            for q in range(n + 1):
                for a in range(-20, 21):
                    assert bott.bott_h(n, q, a) == bott.bott_h(n, n - q, -a - n - 1)

    def test_degree_out_of_range(self):
        with pytest.raises(InputError, match="^q must be at most 2, got 3$"):
            bott.bott_h(2, 3, 0)
        with pytest.raises(InputError, match="^q must be at least 0, got -1$"):
            bott.bott_h(2, -1, 0)
        with pytest.raises(InputError, match="^n must be at least 1, got 0$"):
            bott.bott_h(0, 0, 0)
        with pytest.raises(InputError, match="^a must be an integer, got bool$"):
            bott.bott_h(2, 0, True)


class TestLineBundleSum:
    def test_canonical_merge_and_sort(self):
        s = bott.LineBundleSum.of([(2, 1), (0, 1), (2, 2)])
        assert s.summands == ((0, 1), (2, 3))

    def test_total_cohomology(self):
        # the chase's sum over the summands of one term
        s = bott.LineBundleSum.of([(1, 2), (-4, 1)])
        assert bott._sum_h(s.summands, 2, 0) == 2 * 3
        assert bott._sum_h(s.summands, 2, 2) == comb(3, 2)

    def test_json_round_trip(self):
        s = bott.LineBundleSum.of([(3, 2), (-1, 5)])
        assert bott.LineBundleSum.from_json(s.to_json()) == s

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(InputError):
            bott.LineBundleSum.of([(0, 0)])
        with pytest.raises(InputError):
            bott.LineBundleSum.from_json([{"twist": 1}])
        with pytest.raises(InputError):
            bott.LineBundleSum.from_json([])


class TestKoszulResolution:
    def test_two_cubics_in_plane(self):
        res = bott.koszul_resolution(2, [3, 3])
        assert res.resolved_twist == 0
        assert [t.summands for t in res.terms] == [((-3, 2),), ((-6, 1),)]

    def test_single_hypersurface(self):
        res = bott.koszul_resolution(1, [5])
        assert [t.summands for t in res.terms] == [((-5, 1),)]

    def test_three_quadrics_in_space(self):
        res = bott.koszul_resolution(3, [2, 2, 2])
        assert [t.summands for t in res.terms] == [
            ((-2, 3),),
            ((-4, 3),),
            ((-6, 1),),
        ]

    def test_mixed_degrees_subset_sums(self):
        res = bott.koszul_resolution(3, [1, 2, 4])
        assert res.terms[1].summands == ((-6, 1), (-5, 1), (-3, 1))

    def test_too_many_hypersurfaces(self):
        with pytest.raises(InputError):
            bott.koszul_resolution(2, [2, 2, 2])

    def test_bad_degrees(self):
        # no degree at all has no largest one; the CLI refuses an empty
        # --degrees by name before it gets here
        with pytest.raises(ValueError, match="empty sequence"):
            bott.koszul_resolution(2, [])
        with pytest.raises(InputError):
            bott.koszul_resolution(2, [0, 3])

    def test_top_term_for_equal_degrees(self):
        for n in range(2, 5):
            for k in range(2, 5):
                res = bott.koszul_resolution(n, [k - 1] * n)
                assert res.terms[-1].summands == ((n * (1 - k), 1),)

    def test_subset_counts_match_enumeration(self):
        rng = random.Random(31)
        for _ in range(60):
            degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
            res = bott.koszul_resolution(len(degrees), degrees)
            expected = [
                bott.LineBundleSum.of(
                    [(-sum(subset), 1) for subset in combinations(degrees, p)]
                )
                for p in range(1, len(degrees) + 1)
            ]
            assert list(res.terms) == expected

    def test_forty_equal_degrees(self):
        res = bott.koszul_resolution(40, [2] * 40)
        assert [t.summands for t in res.terms] == [
            ((-2 * p, comb(40, p)),) for p in range(1, 41)
        ]


    def test_unprintable_middle_term_fails_before_counting(self):
        # comb(14300, 7150) has more than MAX_REPORTED_BITS bits; the count
        # of a million equal degrees, as many as the twist bound allows, would
        # not even fit in memory
        for c in (14300, 10**6):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match="multiplicity too large"):
                bott.koszul_resolution(c, [1] * c)
            assert time.perf_counter() - start < 1

    def test_many_distinct_degrees_fail_before_counting(self):
        # 1..200 took 13-16 s to count, [1, 2, 3] * 400 about 70 s; the
        # work bound turns both away by arithmetic on the degrees
        for degrees in (list(range(1, 201)), [1, 2, 3] * 400, [1, 2] * 1500):
            start = time.perf_counter()
            with pytest.raises(PreconditionError) as err:
                bott.koszul_resolution(len(degrees), degrees)
            assert str(err.value) == bott.FAIL_KOSZUL_WORK
            assert time.perf_counter() - start < 1

    def test_ci_cells_still_resolve(self):
        # the paper-examples sweep and the benchmark's cells (n <= 6,
        # k <= 8) and the widest maxima the CLI fuzz draws stay inside the
        # work bound; so do the long runs of ones tested above and below
        for n in range(1, 17):
            for k in range(2, 17):
                res = bott.koszul_resolution(n, [k - 1] * n)
                assert [t.summands for t in res.terms] == [
                    ((-(k - 1) * p, comb(n, p)),) for p in range(1, n + 1)
                ]

    def test_unprintable_multiplicity_found_by_the_count(self):
        # the spread of one large degree leaves the middle-term bound
        # printable, but the 7147-subsets of the ones alone are not
        degrees = [1] * 14295 + [1000]
        with pytest.raises(PreconditionError, match="multiplicity too large"):
            bott.koszul_resolution(len(degrees), degrees)

    def test_longest_printable_run_of_equal_degrees(self):
        assert comb(14291, 7145).bit_length() == MAX_REPORTED_BITS
        res = bott.koszul_resolution(14291, [1] * 14291)
        assert res.terms[7144].summands == ((-7145, comb(14291, 7145)),)
        with pytest.raises(PreconditionError, match="multiplicity too large"):
            bott.koszul_resolution(14292, [1] * 14292)


class TestEagonNorthcottResolution:
    def test_plane_single_extra_quadric(self):
        res = bott.eagon_northcott_resolution(2, 1)
        assert res.resolved_twist == 3
        assert [t.summands for t in res.terms] == [((1, 3),), ((0, 2),)]

    def test_line_case_single_term(self):
        # h+1 points on the line: the twisted ideal is O(0) itself
        res = bott.eagon_northcott_resolution(1, 4)
        assert [t.summands for t in res.terms] == [((0, 1),)]
        assert res.resolved_twist == 5

    def test_symmetric_power_rank(self):
        res = bott.eagon_northcott_resolution(3, 2)
        twist, mult = res.terms[2].summands[0]
        assert twist == 0
        assert mult == comb(4, 2) * comb(5, 0) == 6

    def test_leftmost_term_shape(self):
        for n in range(1, 6):
            for h in range(1, 5):
                res = bott.eagon_northcott_resolution(n, h)
                assert res.terms[-1].summands == ((0, comb(h + n - 1, n - 1)),)

    def test_multiplicities_against_factorials(self):
        for n in range(1, 6):
            for h in range(1, 7):
                res = bott.eagon_northcott_resolution(n, h)
                for p, term in enumerate(res.terms, start=1):
                    ((twist, mult),) = term.summands
                    assert twist == n - p
                    expected = (
                        factorial(h + n)
                        // (factorial(n - p) * factorial(h + p))
                        * (factorial(h + p - 1) // (factorial(p - 1) * factorial(h)))
                    )
                    assert mult == expected


class TestResolutionJson:
    def test_round_trip(self):
        res = bott.koszul_resolution(3, [2, 3, 3])
        assert bott.Resolution.from_json(res.to_json()) == res

    def test_exact_keys_required(self):
        doc = bott.koszul_resolution(2, [2, 2]).to_json()
        doc["extra"] = 1
        with pytest.raises(InputError):
            bott.Resolution.from_json(doc)
        del doc["extra"]
        del doc["terms"]
        with pytest.raises(InputError):
            bott.Resolution.from_json(doc)

    def test_rejects_non_object(self):
        with pytest.raises(InputError):
            bott.Resolution.from_json([1, 2])


PAST = -(bott.MAX_TWIST + 1)


class TestTwistBound:
    def test_bound_is_inclusive(self):
        edge = bott.MAX_TWIST
        res = bott.Resolution(
            ambient_dim=2,
            resolved_twist=edge,
            terms=(bott.LineBundleSum.of([(-edge, 1)]),),
        )
        assert bott.h1_vanishing_chase(res, -edge).target_twist == -edge

    @pytest.mark.parametrize(
        "summand, resolved, target",
        [(PAST, 0, 2), (-2, PAST, 2), (-2, 0, PAST)],
        ids=["summand", "resolved", "target"],
    )
    def test_one_past_the_bound_is_a_named_precondition(
        self, summand, resolved, target
    ):
        with pytest.raises(PreconditionError, match="twist out of range"):
            res = bott.Resolution(
                ambient_dim=2,
                resolved_twist=resolved,
                terms=(bott.LineBundleSum.of([(summand, 1)]),),
            )
            bott.h1_vanishing_chase(res, target)

    def test_koszul_degrees_summing_past_the_bound(self):
        half = bott.MAX_TWIST // 2
        res = bott.koszul_resolution(2, [half, bott.MAX_TWIST - half])
        assert res.terms[-1].summands == ((-bott.MAX_TWIST, 1),)
        # 40 distinct degrees: 2^40 subsets, and no term is ever built
        degrees = [bott.MAX_TWIST // 40 + i for i in range(40)]
        with pytest.raises(PreconditionError, match="twist out of range"):
            bott.koszul_resolution(40, degrees)

    def test_long_twist_in_a_document(self):
        doc = {
            "ambient_dim": 2,
            "resolved_twist": 0,
            "terms": [[{"twist": -(10**3000 - 1), "mult": 1}]],
        }
        with pytest.raises(PreconditionError) as err:
            bott.Resolution.from_json(doc)
        assert str(err.value) == bott.FAIL_TWIST_RANGE


class TestReportableSize:
    def test_bound_is_the_longest_printable_bit_length(self):
        assert 2**MAX_REPORTED_BITS < 10**4300 < 2 ** (MAX_REPORTED_BITS + 1)

    def test_bound_is_inclusive(self):
        # h^2 of O(-3) on the plane is 1, so the bound is the multiplicity
        def chase(mult):
            terms = tuple(bott.LineBundleSum.of([p]) for p in ((0, 1), (-3, mult)))
            res = bott.Resolution(ambient_dim=2, resolved_twist=0, terms=terms)
            return bott.h1_vanishing_chase(res, 0)

        edge = 2**MAX_REPORTED_BITS - 1
        assert chase(edge).upper_bound == edge
        with pytest.raises(PreconditionError) as err:
            chase(edge + 1)
        assert str(err.value) == (
            f"h1 bound too large to report: more than {MAX_REPORTED_BITS} bits"
        )

    def test_long_eagon_northcott_multiplicity_fails_by_name(self):
        with pytest.raises(PreconditionError, match="multiplicity too large"):
            bott.eagon_northcott_resolution(10**4, 10**4)


class TestChase:
    def test_two_cubics_vanish_at_four(self):
        verdict = bott.h1_vanishing_chase(bott.koszul_resolution(2, [3, 3]), 4)
        assert verdict.vanishes
        assert verdict.obstructions == ()
        assert verdict.upper_bound == 0
        assert verdict.exact_h1 == 0

    def test_two_quartics_exact_value_at_five(self):
        verdict = bott.h1_vanishing_chase(bott.koszul_resolution(2, [4, 4]), 5)
        assert not verdict.vanishes
        assert verdict.obstructions == ((2, -3, 1),)
        assert verdict.upper_bound == 1
        assert verdict.exact_h1 == 1

    def test_quadric_locus_vanishing_boundary(self):
        for n in range(2, 6):
            for h in range(1, 7):
                res = bott.eagon_northcott_resolution(n, h)
                verdict = bott.h1_vanishing_chase(res, 2)
                assert verdict.vanishes == (h <= 2)
                if h >= 3:
                    positions = {p for p, _, _ in verdict.obstructions}
                    assert positions == {n}
                    assert verdict.obstructions[0][1] == 2 - n - h

    def test_inconclusive_gives_none(self):
        verdict = bott.h1_vanishing_chase(bott.koszul_resolution(3, [7, 7, 7]), 8)
        assert not verdict.vanishes
        assert verdict.exact_h1 is None
        assert verdict.upper_bound > 0

    def test_exact_value_beyond_vanishing_range(self):
        # 27 grid points in P^3 against degree-4 forms: rank 23, so h1 = 4
        verdict = bott.h1_vanishing_chase(bott.koszul_resolution(3, [3, 3, 3]), 4)
        assert not verdict.vanishes
        assert verdict.exact_h1 == 4
        assert verdict.upper_bound == 4

    def test_bound_dominates_exact_value(self):
        for n in range(2, 4):
            for k in range(2, 7):
                for t in range(0, 8):
                    res = bott.koszul_resolution(n, [k - 1] * n)
                    verdict = bott.h1_vanishing_chase(res, t)
                    if verdict.exact_h1 is not None:
                        assert verdict.exact_h1 <= verdict.upper_bound
                    if verdict.vanishes:
                        assert verdict.obstructions == ()
                        assert verdict.exact_h1 == 0

    def test_positions_past_dimension_ignored(self):
        res = bott.Resolution(
            ambient_dim=1,
            resolved_twist=0,
            terms=(
                bott.LineBundleSum.of([(-2, 1)]),
                bott.LineBundleSum.of([(-4, 1)]),
                bott.LineBundleSum.of([(-6, 1)]),
            ),
        )
        verdict = bott.h1_vanishing_chase(res, 0)
        assert all(p <= 1 for p, _, _ in verdict.obstructions)

    def test_json_shape(self):
        verdict = bott.h1_vanishing_chase(bott.koszul_resolution(2, [4, 4]), 5)
        doc = verdict.to_json()
        assert doc["obstructions"] == [{"position": 2, "twist": -3, "value": 1}]
        assert doc["exact_h1"] == 1

    def test_rejects_non_resolution(self):
        # a value that is no Resolution has no fields for the chase to read
        with pytest.raises(AttributeError, match="ambient_dim"):
            bott.h1_vanishing_chase([(2, 1)], 0)

    def test_a_chase_checks_its_target_twist_alone(self, monkeypatch):
        # 15 summands over four terms: a check per summand and degree
        # would run dozens of times
        res = bott.koszul_resolution(4, [1, 2, 3, 5])
        assert sum(len(term.summands) for term in res.terms) == 15
        checks = count_checks(monkeypatch)
        for t in (0, 7, 12):
            del checks[:]
            bott.h1_vanishing_chase(res, t)
            assert checks == ["target_twist"]


class TestEulerCharacteristic:
    def euler(self, a):
        return sum((-1) ** q * bott.bott_h(2, q, a) for q in range(3))

    def test_plane_complete_intersection(self):
        # alternating sum over the resolution recovers the point count
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                res = bott.koszul_resolution(2, [d1, d2])
                for t in range(0, 9):
                    from_terms = 0
                    for p, term in enumerate(res.terms, start=1):
                        value = sum(
                            r * self.euler(a + t) for a, r in term.summands
                        )
                        from_terms += (-1) ** (p - 1) * value
                    assert from_terms == comb(t + 2, 2) - d1 * d2


class TestThreshold:
    def test_plane(self):
        record = bott.ci_threshold(2)
        assert (record.numerator, record.denominator) == (5, 1)
        assert record.admissible_k == (2, 3, 4)

    def test_threefold(self):
        record = bott.ci_threshold(3)
        assert (record.numerator, record.denominator) == (7, 2)
        assert record.admissible_k == (2, 3)

    def test_fivefold(self):
        record = bott.ci_threshold(5)
        assert (record.numerator, record.denominator) == (11, 4)
        assert record.admissible_k == (2,)

    def test_admissible_set_matches_chase(self):
        admissible = {
            (n, k)
            for n in range(2, 7)
            for k in bott.ci_threshold(n).admissible_k
        }
        assert admissible == {
            (2, 2), (2, 3), (2, 4),
            (3, 2), (3, 3),
            (4, 2), (5, 2), (6, 2),
        }
        for n in range(2, 7):
            for k in range(2, 9):
                verdict = bott.h1_vanishing_chase(
                    bott.koszul_resolution(n, [k - 1] * n), k
                )
                assert verdict.vanishes == ((n, k) in admissible)

    def test_strictness_at_bound(self):
        # n=2 has bound exactly 5, and 5 is excluded
        assert 5 not in bott.ci_threshold(2).admissible_k

    def test_line_rejected(self):
        with pytest.raises(InputError):
            bott.ci_threshold(1)
