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

The evaluation is built basis-major: one row per basis form of degree
d, one entry per point.  Each coordinate's factors are vectors across
all points, and each row is its exponent prefix's row times one of
them, so the interpreter takes one step per row instead of one per
point.  :func:`evaluation_columns` does this for the monomials, and
:func:`evaluation_matrix` is its transpose, point-major.

:func:`conditions_report` changes the basis first.  With h the last
coordinate, the nodes of each other coordinate i are the ratios x_i/x_h
that occur at two or more points, and basis element k is
x_h^(d-|k|) times, for each i, the product of ``q*x_i - p*x_h`` over
the first k_i nodes p/q (``x_i`` once the nodes run out): Newton
interpolation on tensor grids (Gasca and Sauer, Adv. Comput. Math. 12,
2000).  Expanding element k gives a nonzero multiple of the monomial
x^k x_h^(d-|k|) plus monomials x^j x_h^(d-|j|) with j < k entrywise, so
the change of basis is triangular with a nonzero diagonal and the rank
is unchanged.  Element k vanishes at every point whose node index in
some coordinate i is below k_i.  On a complete grid, sorted by node
index tuples, each nonzero row k is therefore zero before the point with
indices k and nonzero there, so the rows have distinct lead columns, and
:func:`nodalic.linalg.rank_int_rows` certifies their number as the rank
with no elimination; the count is the Hilbert function #{k : k_i < m_i,
|k| <= d} of Alon's Combinatorial Nullstellensatz (1999).  A set with
no repeated ratio has no nodes, and its rows are the monomial ones.  A
set of at most d + 1 points needs no matrix at all: distinct points
impose independent conditions in every degree d >= delta - 1, since
for each point a product of delta - 1 linear forms, one through each
other point and none through it, separates it.  Nor does a set on the
projective line: any d + 1 of its points give a square evaluation
whose determinant is, up to sign, the product of the minors
a_i b_j - a_j b_i of their vectors (Vandermonde), nonzero for distinct
points, so the rank is min(delta, d + 1).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import comb, gcd
from operator import mul

from . import linalg
from .errors import InputError, PreconditionError, check_int, check_reportable

# Sizes are bounded, by arithmetic on n, k and d, before anything is
# built.  The largest default paper-examples cell evaluates 625 points on
# 210 monomials in 5 coordinates.  At the bounds the work is slow but
# finite: a grid of MAX_GRID_COORDINATES takes about 1.5 s and 40 MB to
# print.  The column bound does not bound the rank's cost, which grows
# with the point count and, through the entry size, with the degree:
# random plane points with no repeated ratio and more than d + 1 of
# them have no certificate and are eliminated, and 50 of them with
# coordinates p/q, |p| <= 10^4 and q <= 100, at degree 40 (861
# monomials) take about 40 s to rank (CPython 3.11, shared 2-vCPU VM).
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
    _, vec = linalg.clear_denominators(pairs)
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
                coords = linalg.rational_pairs(coords)
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
        # literal is reported ahead of a short, zero or repeated point;
        # each distinct literal is parsed once, keyed by its type too, so
        # that true never takes the entry of 1
        parsed = {}

        def parse(x):
            key = type(x), x
            try:
                return parsed[key]
            except KeyError:
                parsed[key] = pair = linalg.parse_rational_pair(x)
                return pair
            except TypeError:
                # unhashable, so not a literal: parsing it raises
                return linalg.parse_rational_pair(x)

        coordinates = []
        for i, vec in enumerate(raw):
            if not isinstance(vec, list):
                raise InputError(f"point {i} is not an array")
            coordinates.append(list(map(parse, vec)))
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


def _check_request(pts, d, caller):
    """The checks every degree-d evaluation runs first, in this order."""
    if not isinstance(pts, ProjectivePointSet):
        raise InputError(f"{caller} expects a ProjectivePointSet")
    check_int(d, "d", minimum=0)
    _check_monomial_count(pts.ambient_dim, d)


def _prefix_plan(n, d):
    """How the degree-d monomials in n+1 variables grow from their prefixes.

    Level i lists, for each exponent prefix of the first i + 1 variables
    with sum at most d, its parent prefix (an index into level i - 1)
    and its last exponent, in lexicographic order.  The last two
    variables share one level: a monomial extends its prefix by
    x^e * y^(f - e), where f is the degree the prefix leaves, and that
    level lists the index of (f, e) in the table of these products,
    f ascending, then e.
    """
    levels = []
    free = [d]
    for level in range(n):
        parents, exponents, left = [], [], []
        for i, f in enumerate(free):
            start = f * (f + 1) // 2 if level == n - 1 else 0
            parents += [i] * (f + 1)
            exponents += range(start, start + f + 1)
            left += range(f, -1, -1)
        levels.append((parents, exponents))
        free = left
    return levels


def _rows_from_tables(tables, n, d, ones):
    """One row per exponent vector of degree d, along :func:`_prefix_plan`.

    ``tables[i][e]`` is coordinate i's row for exponent e, the last
    table being the homogenising coordinate's.  Each row is its prefix's
    row times one table row, so the interpreter takes one step per row
    and one multiplication per value.  An empty table row stands for a
    zero row: ``map`` stops at the shorter row, so every row built from
    it is empty too, at no cost.
    """
    x, y = tables[-2:]
    tables[-2] = [list(map(mul, x[e], y[f - e])) for f in range(d + 1) for e in range(f + 1)]
    rows = [ones]
    for factors, (parents, exponents) in zip(tables, _prefix_plan(n, d)):
        rows = [list(map(mul, rows[p], factors[e])) for p, e in zip(parents, exponents)]
    return rows


def evaluation_columns(pts, d):
    """Each monomial's values at the points: comb(n+d, n) rows, delta columns.

    Row ``j`` holds the ``j``-th degree-d monomial, in lexicographic
    order of exponent vectors, evaluated at every stored integer vector,
    in point order.  The power tables are vectors across all points, one
    per exponent, combined by :func:`_rows_from_tables`.  Every row is a
    fresh list.
    """
    _check_request(pts, d, "evaluation_columns")
    ones = [1] * pts.delta
    tables = []
    for i in range(pts.ambient_dim + 1):
        xs = [vector[i] for vector in pts.vectors]
        powers = [ones]
        for _ in range(d):
            powers.append(list(map(mul, powers[-1], xs)))
        tables.append(powers)
    return _rows_from_tables(tables, pts.ambient_dim, d, ones)


def _ratio_keys(xs, hs):
    """Each ratio x/h as a reduced ``(p, q)`` with q > 0, or None where h = 0."""
    return [
        (x // g, h // g) if h > 0 else (-x // g, -h // g) if h else None
        for x, h, g in zip(xs, hs, map(gcd, xs, hs))
    ]


def _running_products(ones, factors, rest, d):
    """Products of the first e factor rows, e = 0..d: ``factors``, then ``rest``.

    From the first all-zero product on, the rows are empty.
    """
    table = [ones]
    row = ones
    for e in range(d):
        row = list(map(mul, row, factors[e] if e < len(factors) else rest))
        if not any(row):
            return table + [[]] * (d - e)
        table.append(row)
    return table


def _newton_rows(pts, d):
    """Nonzero rows of the degree-d Newton basis at the points.

    With h the last coordinate, the nodes of coordinate i < n are its
    ratios x_i/x_h that occur at two or more points, at most d of them,
    in the order they first occur.  Factor j of coordinate i is
    ``q*x_i - p*x_h`` for node j = p/q and ``x_i`` once the nodes run
    out, and basis element k is ``x_h^(d-|k|)`` times the first k_i
    factors of each coordinate i.  The points are sorted by their tuple
    of node indices (a ratio that is no node counts as one past the
    last), which only permutes the columns.  With no nodes nothing moves,
    and the rows are those of :func:`evaluation_columns` less any that
    hold a power of a coordinate zero at every point.
    """
    n = pts.ambient_dim
    hs = [vector[n] for vector in pts.vectors]
    coordinates = [[vector[i] for vector in pts.vectors] for i in range(n)]
    nodes, labels = [], []
    for xs in coordinates:
        keys = _ratio_keys(xs, hs)
        counts = Counter(keys)
        counts.pop(None, None)
        axis = [key for key, count in counts.items() if count > 1][:d]
        index = {key: j for j, key in enumerate(axis)}
        labels.append(list(map(index.get, keys, repeat(len(axis)))))
        nodes.append(axis)
    if any(nodes):
        order = sorted(range(pts.delta), key=list(zip(*labels)).__getitem__)
        hs = [hs[j] for j in order]
        coordinates = [[xs[j] for j in order] for xs in coordinates]
    ones = [1] * pts.delta
    tables = []
    for xs, axis in zip(coordinates, nodes):
        factors = [[q * x - p * h for x, h in zip(xs, hs)] for p, q in axis]
        tables.append(_running_products(ones, factors, xs, d))
    tables.append(_running_products(ones, (), hs, d))
    rows = _rows_from_tables(tables, n, d, ones)
    return [row for row in rows if row]


def evaluation_matrix(pts, d):
    """Monomial values at each point: delta rows, comb(n+d, n) columns.

    The transpose of :func:`evaluation_columns`, which builds the values
    monomial by monomial.  Rescaling a point's coordinates scales its
    whole row, so ranks are well defined on projective points.  Each
    point is evaluated at its stored integer vector, so the rows are
    plain ints and the matrix is canonical.
    """
    return [list(row) for row in zip(*evaluation_columns(pts, d))]


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
    """Rank bookkeeping for the degree-d evaluation of a point set.

    After the checks of :func:`evaluation_columns`, a set of at most
    d + 1 points has rank delta by the separator theorem, and a set on
    the projective line has rank min(delta, d + 1), both with no matrix.
    Otherwise the rows of :func:`_newton_rows` go straight to
    :func:`nodalic.linalg.rank_int_rows`: they are fresh ints, so they
    are not validated or copied again, and on a complete grid they are
    in echelon form.
    """
    _check_request(pts, d, "conditions_report")
    width = comb(pts.ambient_dim + d, d)
    if d >= pts.delta - 1 or pts.ambient_dim == 1:
        rank = min(pts.delta, d + 1)
    else:
        rank = linalg.rank_int_rows(_newton_rows(pts, d), pts.delta)
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
    rank = linalg.rank_int_rows(pts.coordinate_matrix(), pts.ambient_dim + 1)
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
    # each axis as (numerator, denominator) pairs, reduced
    if parameters is None:
        return [[(j, 1) for j in range(1, k)]] * n
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
        values = linalg.rational_pairs(axis)
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
    coordinates = [list(choice) + [(1, 1)] for choice in product(*axes)]
    return ProjectivePointSet._from_pairs(n, coordinates)


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
