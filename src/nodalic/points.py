"""Finite point sets in projective space and the conditions they impose.

The central computation is an exact rank: evaluating every monomial of
a fixed degree at every point gives a matrix whose rank says how many
independent conditions the points impose on forms of that degree.  The
deficiency (point count minus rank) is the h1 of the twisted ideal
sheaf, which is what the resolution chases in :mod:`nodalic.bott` bound
from above; the two roads are compared in tests and in the CLI sweep.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm

from . import linalg
from .errors import InputError, check_int


def _normalize_point(coords, index):
    vec = [linalg.as_rational(x) for x in coords]
    lead = None
    for x in vec:
        if x != 0:
            lead = x
            break
    if lead is None:
        raise InputError(f"point {index} is the zero vector")
    return tuple(x / lead for x in vec)


@dataclass(frozen=True)
class ProjectivePointSet:
    """Distinct points of projective n-space, stored in canonical form.

    Each point is scaled so its first nonzero coordinate is 1; equality
    of stored tuples is then exactly projective equality, which is how
    duplicates are rejected.
    """

    ambient_dim: int
    points: tuple

    @classmethod
    def from_coordinates(cls, ambient_dim, coordinates):
        check_int(ambient_dim, "ambient_dim", minimum=1)
        if not isinstance(coordinates, (list, tuple)):
            raise InputError("points must be a list of coordinate vectors")
        normalized = []
        seen = {}
        for i, coords in enumerate(coordinates):
            if not isinstance(coords, (list, tuple)):
                raise InputError(f"point {i} is not a coordinate vector")
            if len(coords) != ambient_dim + 1:
                raise InputError(
                    f"point {i} has {len(coords)} coordinates, "
                    f"expected {ambient_dim + 1}"
                )
            point = _normalize_point(coords, i)
            if point in seen:
                raise InputError(
                    f"points {seen[point]} and {i} coincide as projective points"
                )
            seen[point] = i
            normalized.append(point)
        return cls(ambient_dim=ambient_dim, points=tuple(normalized))

    @property
    def delta(self):
        return len(self.points)

    def coordinate_matrix(self):
        return [list(p) for p in self.points]

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
        coordinates = []
        for i, vec in enumerate(raw):
            if not isinstance(vec, list):
                raise InputError(f"point {i} is not an array")
            coordinates.append([linalg.parse_rational(x) for x in vec])
        return cls.from_coordinates(obj["ambient_dim"], coordinates)


def monomial_basis(n, d):
    """Exponent vectors of the degree-d monomials in n+1 variables.

    Lexicographically ascending; length comb(n+d, n).
    """
    check_int(n, "n", minimum=1)
    check_int(d, "d", minimum=0)

    def walk(remaining_vars, total):
        if remaining_vars == 1:
            yield (total,)
            return
        for e in range(total + 1):
            for rest in walk(remaining_vars - 1, total - e):
                yield (e,) + rest

    return list(walk(n + 1, d))


def _integer_point(point):
    """Primitive integer representative of a stored (lead-1) point."""
    scale = lcm(*(x.denominator for x in point))
    return [x.numerator * (scale // x.denominator) for x in point]


def evaluation_matrix(pts, d):
    """Monomial values at each point: delta rows, comb(n+d, n) columns.

    Rescaling a point's coordinates scales its whole row, so ranks are
    well defined on projective points.  Each point is evaluated at its
    primitive integer representative, so the rows are primitive rows of
    plain ints, and the stored normalization makes the matrix itself
    canonical too.
    """
    if not isinstance(pts, ProjectivePointSet):
        raise InputError("evaluation_matrix expects a ProjectivePointSet")
    check_int(d, "d", minimum=0)
    mons = monomial_basis(pts.ambient_dim, d)
    # column exponent of each coordinate, so a row is built one
    # coordinate at a time from that coordinate's powers
    exponents = list(zip(*mons))
    rows = []
    for point in pts.points:
        row = [1] * len(mons)
        for x, column in zip(_integer_point(point), exponents):
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


def grid_nodes(n, k, parameters=None):
    """The (k-1)^n rational points cut out by products of linear forms.

    Coordinate i of a point runs over the i-th parameter list (defaults
    to 1..k-1) and the last coordinate is 1.  These are the common zeros
    of the regular sequence f_i = prod_j (x_i - c_{i,j} x_n), so the
    Koszul chase for a complete intersection of type (k-1, ..., k-1)
    applies to them verbatim.
    """
    check_int(n, "n", minimum=1)
    check_int(k, "k", minimum=2)
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
    """Node count comb(n+h, n) of the quadric degeneracy configuration."""
    check_int(n, "n", minimum=1)
    check_int(num_quadrics, "num_quadrics", minimum=1)
    return comb(n + num_quadrics, n)
