"""Line-bundle cohomology on projective space and h1 vanishing chases.

Everything here is closed-form combinatorics: cohomology of O(a) on
projective n-space lives only in degrees 0 and n, so a resolution of a
twisted ideal sheaf by sums of line bundles turns questions about h1
into binomial arithmetic.  The chase walks the resolution one short
exact sequence at a time and reports a certified upper bound, plus the
exact value when the relevant cohomology of the intermediate terms
vanishes and the bound collapses to a single term.
"""

from collections import Counter, namedtuple
from math import comb, gcd

from .errors import InputError, PreconditionError, check_int, check_reportable

# Dimensions here are binomials comb(|a| + n, n) in the twists a, which
# grow as |a|^n: a twist of 3000 digits gives a bound too long to print.
# Every twist that enters a resolution or a chase is held to this bound.
MAX_TWIST = 10**6
FAIL_TWIST_RANGE = f"twist out of range: |twist| must be at most {MAX_TWIST}"

# The Koszul subset count is bounded, by arithmetic on the degrees, before
# it runs: its dictionary updates times the 64-bit words of the largest
# count it can hold.  One unit took 47-230 ns (CPython 3.11, shared
# 2-vCPU VM) on degree lists from 1..60 to 14000 ones, so the limit allows
# about 1-2 s of counting; degrees 1..140, at 7.0e7 units, took 5-6 s.
MAX_KOSZUL_WORK = 10**7
FAIL_KOSZUL_WORK = (
    "too many distinct subset sums: the Koszul count would take more than "
    f"{MAX_KOSZUL_WORK} word updates"
)


def _check_twist(value, name):
    check_int(value, name)
    if abs(value) > MAX_TWIST:
        raise PreconditionError(FAIL_TWIST_RANGE)


def bott_h(n, q, a):
    """Dimension of degree-q cohomology of O(a) on projective n-space.

    Nonzero only for q = 0 (sections, a >= 0) and q = n (by duality,
    a <= -n-1); every intermediate degree vanishes.
    """
    check_int(n, "n", minimum=1)
    check_int(q, "q", minimum=0, maximum=n)
    check_int(a, "a")
    return _bott_h(n, q, a)


def _bott_h(n, q, a):
    # bott_h without its checks, for callers holding an int n >= 1, an
    # int q in 0..n and an int a
    if q == 0:
        return comb(n + a, n) if a >= 0 else 0
    if q == n:
        return comb(-a - 1, n) if a <= -n - 1 else 0
    return 0


def _canonical_summands(pairs):
    merged = {}
    for twist, mult in pairs:
        _check_twist(twist, "twist")
        check_int(mult, "multiplicity", minimum=1)
        merged[twist] = merged.get(twist, 0) + mult
    return tuple(sorted(merged.items()))


def _sum_h(summands, n, q):
    return sum(r * _bott_h(n, q, a) for a, r in summands)


class LineBundleSum(namedtuple("LineBundleSum", "summands")):
    """A direct sum of line bundles on a fixed projective space.

    ``summands`` is the canonical form: (twist, multiplicity) pairs,
    multiplicities positive, sorted by twist, equal twists merged.
    """

    __slots__ = ()

    @classmethod
    def of(cls, pairs):
        return cls(_canonical_summands(pairs))

    def to_json(self):
        return [{"twist": a, "mult": r} for a, r in self.summands]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, list) or not obj:
            raise InputError("a line-bundle sum must be a nonempty list of terms")
        pairs = []
        for term in obj:
            if not isinstance(term, dict) or set(term) != {"twist", "mult"}:
                raise InputError(
                    'each summand must be an object with exactly "twist" and "mult"'
                )
            pairs.append((term["twist"], term["mult"]))
        return cls.of(pairs)


class Resolution(namedtuple("Resolution", "ambient_dim resolved_twist terms")):
    """Line-bundle resolution of a twisted ideal sheaf on P^n.

    ``terms[0]`` is the term mapping onto the sheaf and the list walks
    outward; the sheaf presented is the ideal sheaf twisted by
    ``resolved_twist``, so chasing a target twist t tensors every term
    by t - resolved_twist.  ``ambient_dim`` and ``resolved_twist`` are
    checked; ``terms`` is taken as given, a nonempty tuple of
    :class:`LineBundleSum`, which check their own values.
    """

    __slots__ = ()

    def __new__(cls, ambient_dim, resolved_twist, terms):
        check_int(ambient_dim, "ambient_dim", minimum=1)
        _check_twist(resolved_twist, "resolved_twist")
        return super().__new__(cls, ambient_dim, resolved_twist, terms)

    @classmethod
    def _make(cls, iterable):
        # the namedtuple _make, and _replace through it, skip __new__
        return cls(*iterable)

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "resolved_twist": self.resolved_twist,
            "terms": [term.to_json() for term in self.terms],
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise InputError("a resolution document must be a JSON object")
        required = {"ambient_dim", "resolved_twist", "terms"}
        if set(obj) != required:
            raise InputError(
                "resolution document must have exactly the keys "
                '"ambient_dim", "resolved_twist", "terms"'
            )
        terms = obj["terms"]
        if not isinstance(terms, list) or not terms:
            raise InputError('"terms" must be a nonempty list')
        return cls(
            ambient_dim=obj["ambient_dim"],
            resolved_twist=obj["resolved_twist"],
            terms=tuple(LineBundleSum.from_json(t) for t in terms),
        )


def koszul_resolution(n, degrees):
    """Resolution of the ideal of a complete intersection of hypersurfaces.

    ``degrees`` is a nonempty list of the degrees of a regular sequence,
    of length c <= n; term p is the sum of O(-sum of each p-subset of the
    degrees).  The resolved sheaf is the untwisted ideal sheaf.

    The p-subsets are counted by their sums, one distinct degree at a
    time, not enumerated: c equal degrees take c steps instead of 2^c.
    Every multiplicity must be short enough to print; a list whose middle
    term cannot be fails by name before anything is counted, and so does
    a list whose count would pass ``MAX_KOSZUL_WORK``.
    """
    check_int(n, "n", minimum=1)
    for d in degrees:
        check_int(d, "degree", minimum=1)
    c = len(degrees)
    if c > n:
        raise InputError(
            f"{c} hypersurfaces in projective {n}-space cannot cut a "
            "zero-dimensional complete intersection"
        )
    # term c is O(-sum of all degrees), the largest twist of any term
    if sum(degrees) > MAX_TWIST:
        raise PreconditionError(FAIL_TWIST_RANGE)
    # term c // 2 holds comb(c, c // 2) >= 2^c / (c + 1) subsets on at most
    # half * (max - min) + 1 sums, so one of its multiplicities is at least
    # their ratio; the cheap power bound settles a long list before comb runs
    half = c // 2
    sums = half * (max(degrees) - min(degrees)) + 1
    check_reportable((1 << c) // ((c + 1) * sums), "multiplicity")
    check_reportable(-(-comb(c, half) // sums), "multiplicity")
    by_degree = sorted(Counter(degrees).items())
    # A degree listed m times makes m passes over counts[0..seen], which
    # hold only sums of the `seen` degrees before it, all at most `total`
    # and, for p-subsets, within min(p, seen - p) * (prev - low) of each
    # other.  Every count is below 2^c.
    work = seen = total = 0
    low = prev = by_degree[0][0]
    for d, m in by_degree:
        entries = min(
            (seen + 1) * (total + 1), seen + 1 + (prev - low) * (seen * seen // 4)
        )
        work += m * entries
        seen += m
        total += m * d
        prev = d
    if work * (c // 64 + 1) > MAX_KOSZUL_WORK:
        raise PreconditionError(FAIL_KOSZUL_WORK)
    # counts[p][s]: p-subsets of the degrees seen so far that sum to s; a
    # degree d listed m times adds j of its copies in comb(m, j) ways
    counts = [{0: 1}] + [{} for _ in degrees]
    seen = 0
    for d, m in by_degree:
        ways = [1]
        for j in range(m):
            ways.append(ways[-1] * (m - j) // (j + 1))
        for p in range(seen, -1, -1):
            for j in range(1, m + 1):
                grown = counts[p + j]
                w = ways[j]
                t = j * d
                for s, r in counts[p].items():
                    grown[s + t] = grown.get(s + t, 0) + r * w
        seen += m
    for term in counts:
        for r in term.values():
            check_reportable(r, "multiplicity")
    terms = tuple(
        LineBundleSum.of((-s, r) for s, r in counts[p].items())
        for p in range(1, c + 1)
    )
    return Resolution(ambient_dim=n, resolved_twist=0, terms=terms)


def eagon_northcott_resolution(n, num_quadrics):
    """Resolution of the twisted ideal of an expected-codimension locus.

    Models the node set of a section built from ``num_quadrics`` + 1
    quadrics in projective n-space: term p is O(n-p) with multiplicity
    binom(h+n, n-p) * binom(h+p-1, p-1) where h = num_quadrics, and the
    resolved sheaf is the ideal sheaf twisted by h + n.  Every
    multiplicity must be short enough to print.
    """
    check_int(n, "n", minimum=1)
    h = num_quadrics
    check_int(h, "num_quadrics", minimum=1)
    terms = []
    for p in range(1, n + 1):
        mult = comb(h + n, n - p) * comb(h + p - 1, p - 1)
        check_reportable(mult, "multiplicity")
        terms.append(LineBundleSum.of([(n - p, mult)]))
    return Resolution(ambient_dim=n, resolved_twist=h + n, terms=tuple(terms))


class ChaseVerdict(
    namedtuple(
        "ChaseVerdict", "target_twist upper_bound vanishes exact_h1 obstructions"
    )
):
    """Outcome of an h1 chase at one target twist.

    ``vanishes`` certifies h1 = 0.  ``exact_h1`` is present (not None)
    only when the chase proves an exact value; otherwise ``upper_bound``
    is the best certified bound.  ``obstructions`` lists the surviving
    (position, twist, dimension) contributions.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "target_twist": self.target_twist,
            "upper_bound": self.upper_bound,
            "vanishes": self.vanishes,
            "exact_h1": self.exact_h1,
            "obstructions": [
                {"position": p, "twist": a, "value": v}
                for p, a, v in self.obstructions
            ],
        }


def h1_vanishing_chase(res, target_twist):
    """Chase h1 of the resolved sheaf twisted to ``target_twist``.

    Splitting the resolution into short exact sequences bounds h1 of the
    sheaf by the sum of h^p of term p (tensored to the target), for p up
    to the ambient dimension.  When the splice conditions hold, h^p and
    h^{p+1} of term p both zero for every intermediate p, the bound is
    attained and ``exact_h1`` is reported; a zero upper bound also pins
    the exact value at 0.  The bound must be short enough to print.
    """
    _check_twist(target_twist, "target_twist")
    # the one check of the chase: a Resolution and its terms checked their
    # values when they were built, and the int shift e keeps every twist
    # an int
    n = res.ambient_dim
    e = target_twist - res.resolved_twist
    terms = [tuple((a + e, r) for a, r in term.summands) for term in res.terms]
    length = len(terms)
    limit = min(length, n)

    obstructions = []
    upper = 0
    for p in range(1, limit + 1):
        for a, r in terms[p - 1]:
            value = r * _bott_h(n, p, a)
            if value:
                obstructions.append((p, a, value))
                upper += value
    # every reported dimension (each obstruction, the exact h1) is at
    # most the bound
    check_reportable(upper, "h1 bound")
    vanishes = upper == 0

    def h_term(p, q):
        # degree-q cohomology of term p after twisting; 0 beyond dimension
        if q > n:
            return 0
        return _sum_h(terms[p - 1], n, q)

    stop = length - 1 if length <= n else n
    spliced = all(
        h_term(p, p) == 0 and h_term(p, p + 1) == 0 for p in range(1, stop + 1)
    )
    if spliced:
        exact = h_term(length, length) if length <= n else 0
    elif vanishes:
        exact = 0
    else:
        exact = None
    return ChaseVerdict(
        target_twist=target_twist,
        upper_bound=upper,
        vanishes=vanishes,
        exact_h1=exact,
        obstructions=tuple(obstructions),
    )


class CompleteIntersectionThreshold(
    namedtuple("CompleteIntersectionThreshold", "numerator denominator admissible_k")
):
    """Degree range where the chase certifies independence of grid nodes.

    The bound is ``numerator / denominator`` in lowest terms, held as
    two ints.
    """

    __slots__ = ()


def ci_threshold(n):
    """Exact bound (2n+1)/(n-1) with the admissible integer degrees k >= 2.

    k is admissible when k < (2n+1)/(n-1), compared as k(n-1) < 2n+1.
    """
    check_int(n, "n", minimum=2)
    top, bottom = 2 * n + 1, n - 1
    admissible = []
    k = 2
    while k * bottom < top:
        admissible.append(k)
        k += 1
    g = gcd(top, bottom)
    return CompleteIntersectionThreshold(
        numerator=top // g, denominator=bottom // g, admissible_k=tuple(admissible)
    )
