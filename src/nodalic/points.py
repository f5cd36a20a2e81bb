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
document and the elimination kernel.  The vectors are built column by
column: each distinct literal of a document is parsed once, each
coordinate's numerators and denominators are looked up across all
points, and the lcm, the scaling, the content and the division are
each one ``map`` across the points, so the interpreter takes a step per
coordinate, not per point.  Reading a 256-point grid document takes
about 0.8 ms instead of 2.0 ms point by point (CPython 3.11, shared
2-vCPU VM).  ``to_json``, which the ``grid`` command prints, writes the
points with first nonzero coordinate 1 from the ints.

The evaluation is built basis-major: one row per basis form of degree
d, one entry per point.  Each coordinate's factors are vectors across
all points.  :func:`_graded_products` builds each exponent vector's
product from its parent's by one factor of its last nonzero coordinate,
and its row by one power of the last coordinate, so the interpreter
takes two steps per row instead of one per point.
:func:`evaluation_columns` does this for the monomials, and
:func:`evaluation_matrix` is its transpose, point-major.

The rank certificates change the basis first.  With h the last
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
their number is the rank with no elimination (the echelon certificate
of :mod:`nodalic.linalg`); the count is the Hilbert function #{k : k_i <
m_i, |k| <= d} of Alon's Combinatorial Nullstellensatz (1999).  The
nodes, each point's node index and the sort do not depend on d, so one
labelling (:func:`_node_labelling`), a value passed along and not kept
on the set, serves every degree, which takes the first d nodes of each
coordinate.

That certificate needs only where each row is zero, and the zero
pattern is combinatorial, so no row is built for it.  Factor
``q*x_i - p*x_h`` is zero at a point exactly when x_h != 0 and x_i/x_h
is the node p/q, or when x_h = x_i = 0; a factor ``x_i`` past the nodes
exactly when x_i = 0; and ``x_h^(d-|k|)`` exactly when x_h = 0 and
|k| < d.  Over the integers a product is zero exactly when a factor is,
so a row's support is the intersection of its factors' supports: an
``&`` of int bitmasks over the points, one bit per point in node-index
order, where the row build has a ``mul`` of lists.  The mask is the
row's exact nonzero pattern, and its lowest bit the row's lead column.
A set with no repeated ratio has no nodes, and its rows are the
monomial ones.  :func:`_ranks` is the one function that computes
ranks, for :func:`conditions_report`, :func:`normal_crossing_check` and
:func:`point_reports` alike.  One call labels the set at most once and
ranks each distinct degree once, so a ``points`` request, degrees d and
1, never ranks a matrix twice.  Its docstring gives the order of the
closed forms, the certificates and the fallbacks.
"""

from collections import Counter, namedtuple
from itertools import chain, compress, count, product, repeat
from math import comb, gcd, lcm
from operator import and_, floordiv, gt, itemgetter, lt, mul

from . import linalg
from .errors import InputError, PreconditionError, check_int, check_reportable

# Sizes are bounded, by arithmetic on n, k and d, before anything is
# built.  The largest default paper-examples cell evaluates 625 points on
# 210 monomials in 5 coordinates.  At the bounds the work is slow but
# finite: a grid of MAX_GRID_COORDINATES takes about 1.5 s and 40 MB to
# print.  The comb(n + d, n) rows of a degree (_graded_products) take
# two products each, and the walk recurses at most min(n, d) + 1 deep,
# which the bound keeps at 8, since comb(2m, m) > 10^4 for m >= 8.  The
# evaluation of three points of P^1 at d = 9999 takes about 1.3 s and
# 120 MB, nearly all of it the rows' big ints.
# The column bound does not bound the rank's cost, which grows
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


def _first_false(flags):
    """Index of the first false flag, or the number of flags if none is."""
    flags = list(flags)
    return flags.index(False) if False in flags else len(flags)


def _shaped_prefix(ambient_dim, coordinates):
    """``(end, error)``: the points before ``end`` are vectors of n + 1 entries.

    ``error`` is the InputError of point ``end``, which is no list or
    tuple or has another length, or None when every point is well shaped.
    """
    check_int(ambient_dim, "ambient_dim", minimum=1)
    width = ambient_dim + 1
    end = _first_false(map(isinstance, coordinates, repeat((list, tuple))))
    short = _first_false(map(width.__eq__, map(len, coordinates[:end])))
    if short < end:
        return short, InputError(
            f"point {short} has {len(coordinates[short])} coordinates, expected {width}"
        )
    if end < len(coordinates):
        return end, InputError(f"point {end} is not a coordinate vector")
    return end, None


def _literal_tables(literals):
    """Numerator and denominator of each literal, keyed by the literal.

    The literals are parsed in document order, so the first bad one
    raises.  An int never equals a string, so when every literal is one
    or the other each distinct value is parsed once.  Otherwise some
    literal is true, 1.0 or the like, which equals an int but must not
    pass for it, or a list, which cannot be a key: every literal is
    parsed as written, up to the first bad one.
    """
    if set(map(type, literals)) <= {int, str}:
        literals = dict.fromkeys(literals)
    numerator, denominator = {}, {}
    for x in literals:
        numerator[x], denominator[x] = linalg.parse_rational_pair(x)
    return numerator, denominator


def _look_up(table, keys):
    """``table[key]`` for each of one or more ``keys``, in one C-level pass."""
    values = itemgetter(*keys)(table)
    return values if len(keys) > 1 else (values,)


def _quotient_json(x, lead):
    g = gcd(x, lead)
    return x // g if g == lead else f"{x // g}/{lead // g}"


class ProjectivePointSet(namedtuple("ProjectivePointSet", "ambient_dim vectors")):
    """Distinct points of projective n-space, stored as integer vectors.

    ``vectors`` holds each point's primitive integer representative with
    its first nonzero entry positive; equality of these tuples is
    exactly projective equality, which is how duplicates are rejected.
    """

    __slots__ = ()

    @classmethod
    def from_coordinates(cls, ambient_dim, coordinates):
        """Point set from coordinate vectors of ints or Fractions."""
        end, error = _shaped_prefix(ambient_dim, coordinates)
        pairs = []
        for point in coordinates[:end]:
            try:
                pairs.append(linalg.rational_pairs(point))
            except InputError as err:
                # the first bad entry in point order ends the prefix
                error = err
                break
        columns = list(zip(*pairs))
        return cls._from_columns(
            ambient_dim,
            [[num for num, _ in column] for column in columns],
            [[den for _, den in column] for column in columns],
            error,
        )

    @classmethod
    def _from_columns(cls, ambient_dim, numerators, denominators, error=None):
        """Point set from its coordinates, one column per coordinate.

        ``numerators[i]`` and ``denominators[i]`` hold coordinate i of
        every point, the denominators positive; with no points there are
        no columns.  ``error`` is the InputError of the point after the
        last, if any, raised unless a zero or repeated point comes first.
        Each step is one ``map`` across all points: the points are scaled
        by the lcm of their denominators and divided by the gcd of the
        results, negated where the first nonzero entry is negative.  A
        point whose gcd is 0 is the zero vector and ends the points.
        """
        if numerators:
            scales = list(map(lcm, *denominators))
            columns = [
                list(map(mul, nums, map(floordiv, scales, dens)))
                for nums, dens in zip(numerators, denominators)
            ]
            # a tuple is below the zero tuple exactly when its first
            # nonzero entry is negative
            negative = map(lt, zip(*columns), repeat((0,) * len(columns)))
            signs = map((1, -1).__getitem__, negative)
            contents = list(map(mul, map(gcd, *columns), signs))
            if 0 in contents:
                zero = contents.index(0)
                error = InputError(f"point {zero} is the zero vector")
                del contents[zero:]
            vectors = tuple(zip(*[map(floordiv, column, contents) for column in columns]))
        else:
            vectors = ()
        if len(set(vectors)) < len(vectors):
            first = {}
            for i, vector in enumerate(vectors):
                j = first.setdefault(vector, i)
                if j != i:
                    raise InputError(f"points {j} and {i} coincide as projective points")
        if error is not None:
            raise error
        return cls(ambient_dim=ambient_dim, vectors=vectors)

    @property
    def delta(self):
        return len(self.vectors)

    def to_json(self):
        """The points with first nonzero coordinate 1, written from the ints.

        Each coordinate x/lead takes one gcd: a bare int when the lead
        divides x, else ``"p/q"``, the form of
        :func:`nodalic.linalg.rational_to_json` (the lead is positive).
        """
        out = []
        for vector in self.vectors:
            lead = next(x for x in vector if x)
            out.append([_quotient_json(x, lead) for x in vector])
        return {"ambient_dim": self.ambient_dim, "points": out}

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
        arrays = _first_false(map(isinstance, raw, repeat(list)))
        numerator, denominator = _literal_tables(list(chain.from_iterable(raw[:arrays])))
        if arrays < len(raw):
            raise InputError(f"point {arrays} is not an array")
        end, error = _shaped_prefix(obj["ambient_dim"], raw)
        columns = list(zip(*raw[:end]))
        return cls._from_columns(
            obj["ambient_dim"],
            [_look_up(numerator, column) for column in columns],
            [_look_up(denominator, column) for column in columns],
            error,
        )


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


def _check_request(pts, d):
    """The checks every degree-d evaluation runs first, in this order."""
    check_int(d, "d", minimum=0)
    _check_monomial_count(pts.ambient_dim, d)


def _vector_product(a, b):
    return list(map(mul, a, b))


def _nonzero_product(a, b):
    """:func:`_vector_product`, or ``[]`` where that is zero at every point.

    ``map`` stops at the shorter row, so every product with an empty row
    is empty too, at no cost.
    """
    row = _vector_product(a, b)
    return row if any(row) else []


def _graded_products(steps, last, d, one, times):
    """The degree-d rows: one per exponent vector k, |k| <= d, of n coordinates.

    ``steps[i][e]`` is coordinate i's factor that takes k_i from e to
    e + 1, ``last`` is the homogenising coordinate's factor, and
    ``times`` multiplies two products: :func:`_vector_product` on rows
    of values, one per point, and ``and_`` on support bitmasks.  The
    product of k is its parent's, k - e_j for j the last nonzero
    coordinate of k, times ``steps[j][k_j - 1]``, and the row of k is
    that product times ``last`` to the power d - |k|.  That is
    2 comb(n + d, d) - 1 products after the d powers, with no cache, and
    the interpreter takes one step per product instead of one per point.

    The rows come in lexicographic order of k: k, then its children from
    the last coordinate down to j.  The child at j is the next turn of a
    loop and only later coordinates recurse, so the depth is at most
    min(n, d) + 1.
    """
    powers = [one]
    for _ in range(d):
        powers.append(times(powers[-1], last))
    rows = []

    def walk(partial, j, e, free):
        # partial is k's product, with k_j = e its last nonzero entry (0 at
        # the root), and free = d - |k|
        while True:
            rows.append(times(partial, powers[free]))
            if not free:
                return
            for i in range(len(steps) - 1, j, -1):
                walk(times(partial, steps[i][0]), i, 1, free - 1)
            partial = times(partial, steps[j][e])
            e += 1
            free -= 1

    walk(one, 0, 0, d)
    return rows


def evaluation_columns(pts, d):
    """Each monomial's values at the points: comb(n+d, n) rows, delta columns.

    Row ``j`` holds the ``j``-th degree-d monomial, in lexicographic
    order of exponent vectors, evaluated at every stored integer vector,
    in point order.  Each coordinate is a vector across all points, and
    :func:`_graded_products` multiplies them up, one product per row
    and per power of the last coordinate.  Every row is a fresh list.
    """
    _check_request(pts, d)
    *coordinates, hs = list(zip(*pts.vectors)) or [()] * (pts.ambient_dim + 1)
    steps = [[xs] * d for xs in coordinates]
    return _graded_products(steps, hs, d, [1] * pts.delta, _vector_product)


def _ratio_keys(xs, hs):
    """Each ratio x/h as a reduced ``(p, q)`` with q > 0, or None where h = 0."""
    return [
        (x // g, h // g) if h > 0 else (-x // g, -h // g) if h else None
        for x, h, g in zip(xs, hs, map(gcd, xs, hs))
    ]


# runs are bytes, and 255 stands for a ratio that is no node
_MAX_NODES = 255


def _node_labelling(pts):
    """The Newton nodes of a point set, and each point's place in them, sorted.

    With h the last coordinate, the nodes of coordinate i < n are its
    ratios x_i/x_h that occur at two or more points, the first
    ``_MAX_NODES`` of them in the order they first occur; the degree-d
    basis uses the first d, and d <= 139 once n >= 2 (``MAX_MONOMIALS``),
    so the cap never cuts a degree's nodes.  The points are sorted by
    their tuple of runs (below), read as one bytes object per point,
    which only permutes the columns; with no nodes, or with the points
    in that order already, nothing moves.  Returns ``(hs, coordinates,
    nodes, runs)``, the first two being tuples of the coordinates h and i < n
    in that order, and ``runs[i]`` a bytes object whose byte c is the
    number of leading factors of coordinate i (see :func:`_newton_rows`)
    nonzero at point c, read as "all of them" from ``_MAX_NODES`` on:
    the node index of its ratio x_i/x_h; where that is no node, the node
    count if x_i = 0 != x_h (the next factor is x_i), 0 if x_h = x_i = 0,
    and ``_MAX_NODES`` otherwise.  No degree enters, so one labelling
    serves every degree.
    """
    *coordinates, hs = list(zip(*pts.vectors)) or [()] * (pts.ambient_dim + 1)
    nodes, runs = [], []
    for xs in coordinates:
        keys = _ratio_keys(xs, hs)
        # each point's ratio as the index of its first occurrence, so that
        # the look-ups below hash small ints instead of tuples
        first = {}
        ids = list(map(first.setdefault, keys, count()))
        counts = Counter(ids)
        at_infinity = counts.pop(first.get(None), 0)
        repeated = [i for i, times in counts.items() if times > 1][:_MAX_NODES]
        index = {i: j for j, i in enumerate(repeated)}
        # x_i = 0 with x_h != 0 is ratio 0/1: its node, or past the nodes
        # the factor x_i itself, is its first zero factor
        index.setdefault(first.get((0, 1)), len(repeated))
        run = bytes(map(index.get, ids, repeat(_MAX_NODES)))
        if at_infinity:
            # where x_h = 0 a factor q*x_i - p*x_h is q*x_i
            run = bytes(r if h or x else 0 for r, x, h in zip(run, xs, hs))
        runs.append(run)
        nodes.append([keys[i] for i in repeated])
    if any(nodes):
        # bytes order the points as their run tuples, and take time
        # linear in n to build
        codes = list(map(bytes, zip(*runs)))
        # points written in grid order need no sort; a repeated ratio
        # means two or more points, so the getter returns tuples
        if any(map(gt, codes, codes[1:])):
            permute = itemgetter(*sorted(range(pts.delta), key=codes.__getitem__))
            hs = permute(hs)
            coordinates = list(map(permute, coordinates))
            runs = [bytes(permute(run)) for run in runs]
    return hs, coordinates, nodes, runs


def _newton_rows(pts, d, labelling):
    """Nonzero rows of the degree-d Newton basis at the points.

    The nodes and the column order are those of ``labelling``, the set's
    :func:`_node_labelling`, of which each coordinate keeps its first d
    nodes.  Factor j of coordinate i is ``q*x_i - p*x_h`` for node j =
    p/q and ``x_i`` once the nodes run out, and basis element k is
    ``x_h^(d-|k|)`` times the first k_i factors of each coordinate i.
    The products are :func:`_graded_products`, and one that is zero at
    every point is dropped: it is ``[]``, and so is every product built
    from it.  With no nodes the rows are those of
    :func:`evaluation_columns` less the zero ones.
    """
    hs, coordinates, nodes, _ = labelling
    steps = []
    for xs, axis in zip(coordinates, nodes):
        factors = [[q * x - p * h for x, h in zip(xs, hs)] for p, q in axis[:d]]
        steps.append(factors + [xs] * (d - len(factors)))
    rows = _graded_products(steps, hs, d, [1] * pts.delta, _nonzero_product)
    return [row for row in rows if row]


def _at_least(code, e):
    """Bitmask of the points whose byte in ``code``, last point first, is >= e."""
    return int(code.translate(b"0" * e + b"1" * (256 - e)), 2)


def _support_masks(labelling, d):
    """Each degree-d Newton row's support, as a bitmask over the points.

    Bit c stands for point c of :func:`_node_labelling`, and the masks
    come in the order of the rows of :func:`_newton_rows` before its zero
    rows are dropped, zero masks included.  A product of ints is nonzero
    exactly where each factor is, so each coordinate's table holds, per
    exponent e, the points whose run is at least e (the first e factors
    are nonzero), the homogenising coordinate's the points with x_h != 0,
    and the rows' ``mul`` becomes ``and_``.  The walk of
    :func:`_graded_products` ANDs coordinate i's masks for e = 1..k_i,
    and ``and_`` is idempotent, so that is the mask for k_i alone.  Runs
    are bytes because nodes are capped at ``_MAX_NODES``; a run of
    ``_MAX_NODES`` passes every test, since e <= d <= 139 once n >= 2
    (``MAX_MONOMIALS``), so the degree-free labelling gives each
    degree's masks.
    """
    hs, _, _, runs = labelling
    codes = [run[::-1] for run in runs]
    steps = [[_at_least(code, e) for e in range(1, d + 1)] for code in codes]
    last = _at_least(bytes(map(bool, reversed(hs))), 1)
    return _graded_products(steps, last, d, _at_least(codes[0], 0), and_)


def evaluation_matrix(pts, d):
    """Monomial values at each point: delta rows, comb(n+d, n) columns.

    The transpose of :func:`evaluation_columns`, which builds the values
    monomial by monomial.  Rescaling a point's coordinates scales its
    whole row, so ranks are well defined on projective points.  Each
    point is evaluated at its stored integer vector, so the rows are
    plain ints and the matrix is canonical.
    """
    return [list(row) for row in zip(*evaluation_columns(pts, d))]


class ConditionsReport(
    namedtuple(
        "ConditionsReport",
        "delta degree h0_ambient rank h0_ideal h1_ideal independent",
    )
):
    """Exact answer to "do these points impose independent conditions?"."""

    __slots__ = ()


def _ranks(pts, degrees):
    """Ranks of a point set's degree-d evaluations, a list of one per d in ``degrees``.

    Each distinct degree is ranked once, and the set is labelled
    (:func:`_node_labelling`) at most once, for the first degree that
    needs it.  For each degree the first step that applies gives the
    rank:

    1. Closed form, with no matrix, when d = 0, d >= delta - 1 or the
       set is on the projective line: the rank is min(delta, d + 1).
       At d = 0 the one constant form is nonzero at every point.  At
       d >= delta - 1 distinct points impose independent conditions:
       for each point a product of delta - 1 linear forms, one through
       each other point and none through it, separates it.  On the line
       any d + 1 points give a square evaluation whose determinant is,
       up to sign, the product of the minors a_i b_j - a_j b_i of their
       vectors (Vandermonde), nonzero for distinct points.
    2. At d = 1, the coordinate matrix.  The degree-1 Newton rows, x_h
       and each coordinate's first factor, are a triangular change of
       basis of x_0..x_n; their supports are the points with x_h != 0
       and those with a nonzero run in the labelling.  When the nonzero
       rows lead at distinct points their count is the rank (the
       echelon certificate of :mod:`nodalic.linalg`), as on every
       complete grid with two or more values on two or more axes.  At
       the first shared lead the point vectors, delta rows of n + 1
       entries, go to :func:`nodalic.linalg.rank_int_rows`.
    3. At d >= 2, the support masks (:func:`_support_masks`).  A row's
       lead column is the lowest bit of its mask, so when the nonzero
       masks have distinct lowest bits their count is the rank, with no
       row built, as on the same complete grids.  At the first shared
       lead the rows of :func:`_newton_rows`, from the same labelling, go
       to :func:`nodalic.linalg.rank_int_rows`.

    Steps 1 and 2 build no row of :func:`_graded_products`, so their cost
    is linear in n and they serve :func:`normal_crossing_check`, which
    bounds no n.  At d = 1 the masks are the supports of step 2's rows,
    so both certify the same leads, and either fallback computes the
    exact rank.
    """
    ranks, labelling = {}, None
    for d in dict.fromkeys(degrees):
        if d == 0 or d >= pts.delta - 1 or pts.ambient_dim == 1:
            ranks[d] = min(pts.delta, d + 1)
            continue
        if labelling is None:
            labelling = _node_labelling(pts)
        if d == 1:
            hs, _, _, runs = labelling
            leads = [next(compress(count(), row)) for row in (hs, *runs) if any(row)]
        else:
            leads = [mask & -mask for mask in _support_masks(labelling, d) if mask]
        if len(set(leads)) == len(leads):
            ranks[d] = len(leads)
        elif d == 1:
            ranks[d] = linalg.rank_int_rows(pts.vectors, pts.ambient_dim + 1)
        else:
            ranks[d] = linalg.rank_int_rows(_newton_rows(pts, d, labelling), pts.delta)
    return [ranks[d] for d in degrees]


def _conditions(pts, d, rank):
    """The :class:`ConditionsReport` of a degree-d evaluation of the given rank."""
    width = comb(pts.ambient_dim + d, d)
    return ConditionsReport(
        delta=pts.delta,
        degree=d,
        h0_ambient=width,
        rank=rank,
        h0_ideal=width - rank,
        h1_ideal=pts.delta - rank,
        independent=rank == pts.delta,
    )


def conditions_report(pts, d):
    """Rank bookkeeping for the degree-d evaluation of a point set.

    After the checks of :func:`evaluation_columns`, the rank is
    :func:`_ranks`'s.
    """
    _check_request(pts, d)
    return _conditions(pts, d, *_ranks(pts, (d,)))


def node_span_dim(pts):
    """Projective dimension of the linear span of the points."""
    return _ranks(pts, (1,))[0] - 1


class NormalCrossingCheck(
    namedtuple(
        "NormalCrossingCheck",
        "independent_branches tangent_intersection_dim span_dim",
    )
):
    """Branch independence, read off the rank of the coordinate matrix.

    ``span_dim`` is the projective dimension of the points' linear span,
    which the same rank gives; it is reported as ``node_span_dim``, so it
    stays out of this check's JSON.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "independent_branches": self.independent_branches,
            "tangent_intersection_dim": self.tangent_intersection_dim,
        }


def _crossing(pts, rank):
    """The :class:`NormalCrossingCheck` of a coordinate matrix of the given rank."""
    return NormalCrossingCheck(
        independent_branches=rank == pts.delta,
        tangent_intersection_dim=pts.ambient_dim - rank,
        span_dim=rank - 1,
    )


def normal_crossing_check(pts):
    """Branch independence when the points are tangent hyperplanes.

    Reading each point as a hyperplane of the dual space, the branches
    cross normally exactly when the coordinate matrix has full row rank;
    the common intersection of the hyperplanes then has dimension
    ambient_dim - rank.  The coordinate matrix is the degree-1
    evaluation, so the rank is :func:`_ranks` at d = 1, which builds no
    monomial row and so needs no ``MAX_MONOMIALS`` check.
    """
    return _crossing(pts, *_ranks(pts, (1,)))


def point_reports(pts, d):
    """``(conditions_report(pts, d), normal_crossing_check(pts))`` from one labelling.

    The checks are those of :func:`conditions_report`, in its order.  One
    call of :func:`_ranks` ranks degrees d and 1, so the set is labelled
    at most once and, at d = 1, the coordinate matrix is ranked once for
    both records.
    """
    _check_request(pts, d)
    rank, coordinate_rank = _ranks(pts, (d, 1))
    return _conditions(pts, d, rank), _crossing(pts, coordinate_rank)


def severi_expected_dim(big_n, r):
    """Expected dimension of the locus of sections with exactly r nodes."""
    check_int(big_n, "N", minimum=1)
    check_int(r, "r", minimum=0, maximum=big_n)
    return big_n - r


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


def grid_nodes(n, k):
    """The (k-1)^n integer points cut out by products of linear forms.

    Coordinates 0 to n - 1 of a point each run over 1..k-1, in product
    order, and the last coordinate is 1.  These are the common zeros of
    the regular sequence f_i = prod_{j=1}^{k-1} (x_i - j x_n), so the
    Koszul chase for a complete intersection of type (k-1, ..., k-1)
    applies to them verbatim.  The grid may hold at most
    ``MAX_GRID_COORDINATES`` coordinates in all.
    """
    check_int(n, "n", minimum=1)
    check_int(k, "k", minimum=2)
    _check_grid_size(n, k)
    # a last coordinate 1 makes each vector primitive with a positive lead,
    # and distinct p give distinct points
    vectors = tuple((*p, 1) for p in product(range(1, k), repeat=n))
    return ProjectivePointSet(ambient_dim=n, vectors=vectors)


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
