"""Line-bundle cohomology on projective space and h1 vanishing chases.

Everything here is closed-form combinatorics: cohomology of O(a) on
projective n-space lives only in degrees 0 and n, so a resolution of a
twisted ideal sheaf by sums of line bundles turns questions about h1
into binomial arithmetic.  The chase walks the resolution one short
exact sequence at a time and reports a certified upper bound, plus the
exact value when the relevant cohomology of the intermediate terms
vanishes and the bound collapses to a single term.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import InputError, PreconditionError, check_int, check_reportable

# Dimensions here are binomials comb(|a| + n, n) in the twists a, which
# grow as |a|^n: a twist of 3000 digits gives a bound too long to print.
# Every twist that enters a resolution or a chase is held to this bound.
MAX_TWIST = 10**6
FAIL_TWIST_RANGE = f"twist out of range: |twist| must be at most {MAX_TWIST}"


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


@dataclass(frozen=True)
class LineBundleSum:
    """A direct sum of line bundles on a fixed projective space.

    ``summands`` is the canonical form: (twist, multiplicity) pairs,
    multiplicities positive, sorted by twist, equal twists merged.
    """

    summands: tuple

    @classmethod
    def of(cls, pairs):
        return cls(_canonical_summands(pairs))

    @property
    def rank(self):
        return sum(mult for _, mult in self.summands)

    def twisted(self, t):
        """Shift every twist in the sum by ``t``; multiplicities unchanged."""
        check_int(t, "t")
        return LineBundleSum(tuple((a + t, r) for a, r in self.summands))

    def h(self, n, q):
        """Total degree-q cohomology dimension over all summands."""
        return sum(r * bott_h(n, q, a) for a, r in self.summands)

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


@dataclass(frozen=True)
class Resolution:
    """Line-bundle resolution of a twisted ideal sheaf on P^n.

    ``terms[0]`` is the term mapping onto the sheaf and the list walks
    outward; the sheaf presented is the ideal sheaf twisted by
    ``resolved_twist``, so chasing a target twist t tensors every term
    by t - resolved_twist.
    """

    ambient_dim: int
    resolved_twist: int
    terms: tuple

    def __post_init__(self):
        check_int(self.ambient_dim, "ambient_dim", minimum=1)
        _check_twist(self.resolved_twist, "resolved_twist")
        if not self.terms:
            raise InputError("a resolution needs at least one term")
        for term in self.terms:
            if not isinstance(term, LineBundleSum):
                raise InputError("resolution terms must be LineBundleSum values")

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

    ``degrees`` lists the degrees of a regular sequence of length c with
    1 <= c <= n; term p is the sum of O(-sum of each p-subset of the
    degrees).  The resolved sheaf is the untwisted ideal sheaf.
    """
    check_int(n, "n", minimum=1)
    if not isinstance(degrees, (list, tuple)) or not degrees:
        raise InputError("degrees must be a nonempty list of positive integers")
    for d in degrees:
        check_int(d, "degree", minimum=1)
    c = len(degrees)
    if c > n:
        raise InputError(
            f"{c} hypersurfaces in projective {n}-space cannot cut a "
            "zero-dimensional complete intersection"
        )
    terms = []
    for p in range(1, c + 1):
        pairs = [(-sum(subset), 1) for subset in combinations(degrees, p)]
        terms.append(LineBundleSum.of(pairs))
    return Resolution(ambient_dim=n, resolved_twist=0, terms=tuple(terms))


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


@dataclass(frozen=True)
class ChaseVerdict:
    """Outcome of an h1 chase at one target twist.

    ``vanishes`` certifies h1 = 0.  ``exact_h1`` is present (not None)
    only when the chase proves an exact value; otherwise ``upper_bound``
    is the best certified bound.  ``obstructions`` lists the surviving
    (position, twist, dimension) contributions.
    """

    target_twist: int
    upper_bound: int
    vanishes: bool
    exact_h1: int | None
    obstructions: tuple

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
    if not isinstance(res, Resolution):
        raise InputError("h1_vanishing_chase expects a Resolution")
    _check_twist(target_twist, "target_twist")
    n = res.ambient_dim
    e = target_twist - res.resolved_twist
    length = len(res.terms)
    limit = min(length, n)

    obstructions = []
    upper = 0
    for p in range(1, limit + 1):
        term = res.terms[p - 1].twisted(e)
        for a, r in term.summands:
            value = r * bott_h(n, p, a)
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
        return res.terms[p - 1].twisted(e).h(n, q)

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


@dataclass(frozen=True)
class CompleteIntersectionThreshold:
    """Degree range where the chase certifies independence of grid nodes."""

    bound: Fraction
    admissible_k: tuple

    def to_json(self):
        from .linalg import rational_to_json

        return {
            "bound": rational_to_json(self.bound),
            "admissible_k": list(self.admissible_k),
        }


def ci_threshold(n):
    """Exact bound (2n+1)/(n-1) with the admissible integer degrees k >= 2."""
    check_int(n, "n", minimum=2)
    bound = Fraction(2 * n + 1, n - 1)
    admissible = []
    k = 2
    while k < bound:
        admissible.append(k)
        k += 1
    return CompleteIntersectionThreshold(bound=bound, admissible_k=tuple(admissible))
