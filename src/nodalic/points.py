"""Finite point sets in projective space and the conditions they impose.

The central computation is an exact rank: evaluating every monomial of
a fixed degree at every point gives a matrix whose rank says how many
independent conditions the points impose on forms of that degree.  The
deficiency (point count minus rank) is the h1 of the twisted ideal
sheaf, which is what the resolution chases in :mod:`nodalic.bott` bound
from above; the two roads are compared in tests and in the CLI sweep.

A point set stores each point as an integer vector: the primitive
integer representative of the point, its first nonzero entry positive.
Two coordinate vectors give the same projective point exactly when
these vectors are equal, and the evaluation and coordinate matrices are
built from them on plain ints, so no Fraction is made between the JSON
document and the elimination kernel.  Reading a 256-point grid document
takes about 1.7 ms instead of 5.8 ms with Fractions; ``points``, the
lead-1 Fraction form, is derived only when asked for (by ``to_json``
and the ``grid`` command).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm

from . import linalg
from .errors import InputError, PreconditionError, check_int, check_reportable

# Sizes are bounded, by arithmetic on n, k and d, before anything is
# built.  The largest default paper-examples cell evaluates 625 points on
# 210 monomials in 5 coordinates.  At the bounds the work is slow but
# finite: a grid of MAX_GRID_COORDINATES takes about 1.5 s and 40 MB to
# print, and 50 plane points at degree 139 (9870 monomials) about 25 s
# to rank.
MAX_MONOMIALS = 10**4
FAIL_MONOMIALS = (
    f"too many monomials: comb(n + d, n) must be at most {MAX_MONOMIALS}"
)
MAX_GRID_COORDINATES = 10**5
FAIL_GRID_SIZE = (
    "grid too large: its (k - 1)^n points of n + 1 coordinates must have "
    f"at most {MAX_GRID_COORDINATES} coordinates in all"
)


def _primitive_vector(pairs, index):
    """Integer vector of a point given as (numerator, denominator) pairs.

    The result is primitive with its first nonzero entry positive, so it
    depends only on the projective point.
    """
    scale = lcm(*(den for _, den in pairs))
    vec = [num * (scale // den) for num, den in pairs]
    content = gcd(*vec)
    if content == 0:
        raise InputError(f"point {index} is the zero vector")
    if next(x for x in vec if x) < 0:
        content = -content
    return tuple(x // content for x in vec)


@dataclass(frozen=True)
class ProjectivePointSet:
    """Distinct points of projective n-space, stored as integer vectors.

    ``vectors`` holds each point's primitive integer representative with
    its first nonzero entry positive; equality of these tuples is
    exactly projective equality, which is how duplicates are rejected.
    ``points`` gives the same points scaled so that their first nonzero
    coordinate is 1, as Fractions.
    """

    ambient_dim: int
    vectors: tuple

    @classmethod
    def from_coordinates(cls, ambient_dim, coordinates):
        """Point set from coordinate vectors of ints or Fractions."""
        return cls._from_pairs(ambient_dim, coordinates, rational=True)

    @classmethod
    def _from_pairs(cls, ambient_dim, coordinates, rational=False):
        # each point's coordinates are (numerator, denominator) pairs, or
        # ints and Fractions when rational is true, converted after the
        # point's shape is checked
        check_int(ambient_dim, "ambient_dim", minimum=1)
        if not isinstance(coordinates, (list, tuple)):
            raise InputError("points must be a list of coordinate vectors")
        vectors = []
        seen = {}
        for i, coords in enumerate(coordinates):
            if not isinstance(coords, (list, tuple)):
                raise InputError(f"point {i} is not a coordinate vector")
            if len(coords) != ambient_dim + 1:
                raise InputError(
                    f"point {i} has {len(coords)} coordinates, "
                    f"expected {ambient_dim + 1}"
                )
            if rational:
                coords = [
                    (x.numerator, x.denominator)
                    for x in map(linalg.as_rational, coords)
                ]
            vector = _primitive_vector(coords, i)
            if vector in seen:
                raise InputError(
                    f"points {seen[vector]} and {i} coincide as projective points"
                )
            seen[vector] = i
            vectors.append(vector)
        return cls(ambient_dim=ambient_dim, vectors=tuple(vectors))

    @property
    def points(self):
        """The points with first nonzero coordinate 1, as Fraction tuples."""
        out = []
        for vector in self.vectors:
            lead = next(x for x in vector if x)
            out.append(tuple(Fraction(x, lead) for x in vector))
        return tuple(out)

    @property
    def delta(self):
        return len(self.vectors)

    def coordinate_matrix(self):
        return [list(v) for v in self.vectors]

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "points": [
                [linalg.rational_to_json(x) for x in p] for p in self.points
            ],
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise InputError("a point-set document must be a JSON object")
        if set(obj) != {"ambient_dim", "points"}:
            raise InputError(
                'point-set document must have exactly the keys '
                '"ambient_dim" and "points"'
            )
        raw = obj["points"]
        if not isinstance(raw, list):
            raise InputError('"points" must be an array of coordinate vectors')
        # every literal is parsed before any point is checked, so a bad
        # literal is reported ahead of a short, zero or repeated point
        coordinates = []
        for i, vec in enumerate(raw):
            if not isinstance(vec, list):
                raise InputError(f"point {i} is not an array")
            coordinates.append([linalg.parse_rational_pair(x) for x in vec])
        return cls._from_pairs(obj["ambient_dim"], coordinates)


def _check_monomial_count(n, d):
    """Raise the named precondition when comb(n + d, n) > MAX_MONOMIALS.

    The count is built up as comb(top + i, i) for i = 1..min(n, d), with
    top = max(n, d).  These at least double at each step and only grow,
    so the loop stops within a few steps however large n and d are.
    """
    top = max(n, d)
    count = 1
    for i in range(1, min(n, d) + 1):
        count = count * (top + i) // i
        if count > MAX_MONOMIALS:
            raise PreconditionError(FAIL_MONOMIALS)


def monomial_basis(n, d):
    """Exponent vectors of the degree-d monomials in n+1 variables.

    Lexicographically ascending; length comb(n+d, n), which must be at
    most ``MAX_MONOMIALS``.
    """
    check_int(n, "n", minimum=1)
    check_int(d, "d", minimum=0)
    _check_monomial_count(n, d)

    def walk(remaining_vars, total):
        if remaining_vars == 1:
            yield (total,)
            return
        for e in range(total + 1):
            for rest in walk(remaining_vars - 1, total - e):
                yield (e,) + rest

    return list(walk(n + 1, d))


def evaluation_matrix(pts, d):
    """Monomial values at each point: delta rows, comb(n+d, n) columns.

    Rescaling a point's coordinates scales its whole row, so ranks are
    well defined on projective points.  Each point is evaluated at its
    stored integer vector, so the rows are plain ints and the matrix is
    canonical.
    """
    if not isinstance(pts, ProjectivePointSet):
        raise InputError("evaluation_matrix expects a ProjectivePointSet")
    check_int(d, "d", minimum=0)
    mons = monomial_basis(pts.ambient_dim, d)
    # column exponent of each coordinate, so a row is built one
    # coordinate at a time from that coordinate's powers
    exponents = list(zip(*mons))
    rows = []
    for vector in pts.vectors:
        row = [1] * len(mons)
        for x, column in zip(vector, exponents):
            powers = [x**e for e in range(d + 1)]
            row = [v * powers[e] for v, e in zip(row, column)]
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ConditionsReport:
    """Exact answer to "do these points impose independent conditions?"."""

    delta: int
    degree: int
    h0_ambient: int
    rank: int
    h0_ideal: int
    h1_ideal: int
    independent: bool

    def to_json(self):
        return {
            "delta": self.delta,
            "degree": self.degree,
            "h0_ambient": self.h0_ambient,
            "rank": self.rank,
            "h0_ideal": self.h0_ideal,
            "h1_ideal": self.h1_ideal,
            "independent": self.independent,
        }


def conditions_report(pts, d):
    """Rank bookkeeping for the degree-d evaluation of a point set."""
    matrix = evaluation_matrix(pts, d)
    width = comb(pts.ambient_dim + d, pts.ambient_dim)
    rank = linalg.rank(matrix, width)
    return ConditionsReport(
        delta=pts.delta,
        degree=d,
        h0_ambient=width,
        rank=rank,
        h0_ideal=width - rank,
        h1_ideal=pts.delta - rank,
        independent=rank == pts.delta,
    )


def node_span_dim(pts):
    """Projective dimension of the linear span of the points."""
    return normal_crossing_check(pts).span_dim


@dataclass(frozen=True)
class NormalCrossingCheck:
    """Branch independence, read off the rank of the coordinate matrix.

    ``span_dim`` is the projective dimension of the points' linear span,
    which the same rank gives; it is reported as ``node_span_dim``, so it
    stays out of this check's JSON.
    """

    independent_branches: bool
    tangent_intersection_dim: int
    span_dim: int

    def to_json(self):
        return {
            "independent_branches": self.independent_branches,
            "tangent_intersection_dim": self.tangent_intersection_dim,
        }


def normal_crossing_check(pts):
    """Branch independence when the points are tangent hyperplanes.

    Reading each point as a hyperplane of the dual space, the branches
    cross normally exactly when the coordinate matrix has full row rank;
    the common intersection of the hyperplanes then has dimension
    ambient_dim - rank.
    """
    if not isinstance(pts, ProjectivePointSet):
        raise InputError("normal_crossing_check expects a ProjectivePointSet")
    rank = linalg.rank(pts.coordinate_matrix(), pts.ambient_dim + 1)
    return NormalCrossingCheck(
        independent_branches=rank == pts.delta,
        tangent_intersection_dim=pts.ambient_dim - rank,
        span_dim=rank - 1,
    )


def severi_expected_dim(big_n, r):
    """Expected dimension of the locus of sections with exactly r nodes."""
    check_int(big_n, "N", minimum=1)
    check_int(r, "r", minimum=0, maximum=big_n)
    return big_n - r


def _grid_parameters(n, k, parameters):
    if parameters is None:
        return [[Fraction(j) for j in range(1, k)] for _ in range(n)]
    if not isinstance(parameters, (list, tuple)) or not parameters:
        raise InputError("parameters must be a list")
    # a flat list of scalars is shared by every coordinate axis
    if not isinstance(parameters[0], (list, tuple)):
        parameters = [parameters] * n
    if len(parameters) != n:
        raise InputError(f"expected parameter lists for {n} coordinates")
    out = []
    for i, axis in enumerate(parameters):
        if not isinstance(axis, (list, tuple)) or len(axis) != k - 1:
            raise InputError(f"coordinate {i} needs exactly {k - 1} parameters")
        values = [linalg.as_rational(x) for x in axis]
        if len(set(values)) != len(values):
            raise InputError(f"coordinate {i} has repeated parameters")
        out.append(values)
    return out


def _check_grid_size(n, k):
    """Raise the named precondition when (k-1)^n * (n+1) > MAX_GRID_COORDINATES.

    The product is built one factor k - 1 at a time and the loop stops
    once past the bound, so a huge n costs no huge power.
    """
    count = n + 1
    if count > MAX_GRID_COORDINATES:
        raise PreconditionError(FAIL_GRID_SIZE)
    if k == 2:
        return
    for _ in range(n):
        count *= k - 1
        if count > MAX_GRID_COORDINATES:
            raise PreconditionError(FAIL_GRID_SIZE)


def grid_nodes(n, k, parameters=None):
    """The (k-1)^n rational points cut out by products of linear forms.

    Coordinate i of a point runs over the i-th parameter list (defaults
    to 1..k-1) and the last coordinate is 1.  These are the common zeros
    of the regular sequence f_i = prod_j (x_i - c_{i,j} x_n), so the
    Koszul chase for a complete intersection of type (k-1, ..., k-1)
    applies to them verbatim.  The grid may hold at most
    ``MAX_GRID_COORDINATES`` coordinates in all.
    """
    check_int(n, "n", minimum=1)
    check_int(k, "k", minimum=2)
    _check_grid_size(n, k)
    axes = _grid_parameters(n, k, parameters)
    coordinates = [
        list(choice) + [Fraction(1)] for choice in product(*axes)
    ]
    return ProjectivePointSet.from_coordinates(n, coordinates)


def node_count_ci(n, k):
    """Node count (k-1)^n of the complete-intersection configuration."""
    check_int(n, "n", minimum=1)
    check_int(k, "k", minimum=2)
    return (k - 1) ** n


def node_count_quadrics(n, num_quadrics):
    """Node count comb(n+h, n) of the quadric degeneracy configuration.

    The count must be short enough to print.
    """
    check_int(n, "n", minimum=1)
    check_int(num_quadrics, "num_quadrics", minimum=1)
    return check_reportable(comb(n + num_quadrics, n), "node count")
