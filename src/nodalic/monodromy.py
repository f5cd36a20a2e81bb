"""Stalk cohomology of the middle extension at a nodal degeneration.

Input is linear-algebra data only: the skew intersection pairing on the
middle cohomology of a nearby smooth section, one vanishing cycle per
node, and the rank of the constant part coming from the ambient space.
Each cycle v gives a rank-one nilpotent x -> sign*<x, v>*v (the
logarithm of the local monodromy transvection); products of these
operators span the terms of a complex whose cohomology is the stalk of
the middle extension.  Because disjoint spheres have orthogonal classes,
all products of length two or more vanish and the answer collapses to
two numbers, which this module also derives in closed form and checks
against the complex.

A document is parsed once, each literal to one (numerator, denominator)
pair, and denominators are cleared once, at ingest: the pairing is
scaled by the least common multiple that makes all its entries ints,
each cycle by the least of its own (which also gives its weight), and
each cycle's functional <., v> and the cycles' Gram matrix are computed
once on those integers.  :class:`MonodromyData` holds only these integer
forms.  Positive rescalings change no rank, skewness or orthogonality, so
every check runs on plain ints, every pairwise one reads the Gram
matrix, and every rank goes to the rank core, ``linalg.rank_int_rows``,
which checks nothing again.  The complex is built on the integer operators
M_i = sign * outer(v_i, f_i), positive multiples of the logarithms;
the rescaling changes no rank.  M_i M_j is
sign^2 * gram[i][j] * outer(v_i, f_j), so the builder reads the Gram
matrix off its diagonal to see that every product of two or more
vanishes.  The complex is then Q^dim -> Q^k, one line (spanned by v_i)
for each of the k nodes with f_i != 0, and :class:`StalkComplex` holds
it as its one differential, whose rows are sign * f_i.
"""

from collections import namedtuple
from itertools import combinations
from math import gcd
from operator import mul

from . import linalg
from .errors import InputError, PreconditionError, check_int

FAIL_SKEW = "pairing not skew"
FAIL_DEGENERATE = "pairing degenerate"
FAIL_ZERO_CYCLE = "zero vanishing cycle unsupported"
FAIL_ORTHOGONALITY = "vanishing cycles not pairwise orthogonal"


class MonodromyData(
    namedtuple(
        "MonodromyData",
        "dim int_pairing scale int_cycles cycle_scales functionals gram h_ambient "
        "fiber_dim",
        defaults=(None,),
    )
):
    """Vanishing-cycle presentation of a nodal degeneration, on integers.

    ``dim`` is the rank of the middle cohomology of the nearby fiber,
    ``h_ambient`` the rank of the constant ambient system, and
    ``fiber_dim`` optional odd documentation of the fiber dimension.
    The intersection form is ``int_pairing / scale``, with one common
    scale for all its entries (a per-row scale would break skewness),
    and cycle i, one per node, is ``int_cycles[i] / cycle_scales[i]``.
    Each scale is the least that clears its denominators, so equal
    rationals give equal data however they are written.
    ``functionals`` holds the rows ``int_pairing @ v``; the logarithm of
    node i is sign * outer(v_i, f_i) on those ints times the positive
    weight 1 / (scale * cycle_scales[i]**2).  ``gram`` is the Gram
    matrix of the cycles on those ints: ``gram[i][j]`` is
    ``functionals[i] . int_cycles[j]``, which is <v_j, v_i> times the
    positive scale * cycle_scales[i] * cycle_scales[j].  Every pairwise
    check reads it; no dot product of length ``dim`` is taken after
    ingest.
    Build it with :meth:`from_json` or :meth:`from_rationals`, which
    check shapes and types; no later step checks them again, and the
    semantic invariants are the business of :func:`validate`.
    """

    __slots__ = ()

    @property
    def delta(self):
        return len(self.int_cycles)

    @classmethod
    def from_rationals(cls, dim, pairing, cycles, h_ambient, fiber_dim=None):
        """Data from a pairing matrix and cycle vectors of ints or Fractions.

        The pairing's shape and entries are checked first, then the
        cycles' entries, then, as for :meth:`from_json`, ``h_ambient``,
        ``fiber_dim``, the row count and the cycle lengths.
        """
        check_int(dim, "dim", minimum=0)
        rows, _ = linalg._check_shape(pairing, dim)
        rows = [linalg.rational_pairs(row) for row in rows]
        vectors = []
        for i, cycle in enumerate(cycles):
            if not isinstance(cycle, (list, tuple)):
                raise InputError(f"cycle {i} is not a vector")
            vectors.append(linalg.rational_pairs(cycle))
        return cls._from_pairs(dim, rows, vectors, h_ambient, fiber_dim)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise InputError("a monodromy document must be a JSON object")
        required = {"dim", "pairing", "cycles", "h_ambient"}
        allowed = required | {"fiber_dim"}
        if not required <= set(obj) or not set(obj) <= allowed:
            raise InputError(
                'monodromy document needs the keys "dim", "pairing", '
                '"cycles", "h_ambient" and optionally "fiber_dim"'
            )
        dim = obj["dim"]
        check_int(dim, "dim", minimum=0)
        parse = linalg.parse_rational_pair
        pairing = obj["pairing"]
        if not isinstance(pairing, list):
            raise InputError("matrix must be a JSON array of rows")
        rows = []
        for i, row in enumerate(pairing):
            if not isinstance(row, list):
                raise InputError(f"row {i} is not an array")
            rows.append([parse(x) for x in row])
        # a ragged pairing is reported ahead of anything wrong in the cycles
        linalg._check_shape(rows, dim)
        raw_cycles = obj["cycles"]
        if not isinstance(raw_cycles, list):
            raise InputError('"cycles" must be an array of vectors')
        cycles = []
        for i, vec in enumerate(raw_cycles):
            if not isinstance(vec, list):
                raise InputError(f"cycle {i} is not an array")
            cycles.append([parse(x) for x in vec])
        return cls._from_pairs(
            dim, rows, cycles, obj["h_ambient"], obj.get("fiber_dim")
        )

    @classmethod
    def _from_pairs(cls, dim, rows, cycles, h_ambient, fiber_dim):
        # rows and cycles hold (numerator, denominator) pairs, and every
        # row already has dim entries; the counts are checked here
        check_int(h_ambient, "h_ambient", minimum=0)
        if fiber_dim is not None:
            check_int(fiber_dim, "fiber_dim", minimum=1)
            if fiber_dim % 2 == 0:
                raise InputError(f"fiber_dim must be odd, got {fiber_dim}")
        if len(rows) != dim:
            raise InputError(f"pairing has {len(rows)} rows, expected {dim}")
        for i, cycle in enumerate(cycles):
            if len(cycle) != dim:
                raise InputError(
                    f"cycle {i} has length {len(cycle)}, expected {dim}"
                )
        scale, flat = _least_scale([x for row in rows for x in row])
        int_pairing = tuple(tuple(flat[k * dim:(k + 1) * dim]) for k in range(dim))
        cleared = [_least_scale(cycle) for cycle in cycles]
        int_cycles = tuple(tuple(v) for _, v in cleared)
        functionals = tuple(_functional(int_pairing, v) for v in int_cycles)
        return cls(
            dim=dim,
            int_pairing=int_pairing,
            scale=scale,
            int_cycles=int_cycles,
            cycle_scales=tuple(c for c, _ in cleared),
            functionals=functionals,
            gram=tuple(tuple(_dot(f, v) for v in int_cycles) for f in functionals),
            h_ambient=h_ambient,
            fiber_dim=fiber_dim,
        )


def _least_scale(pairs):
    """The least scale making the rationals of ``pairs`` ints, and those ints.

    The lcm of the denominators as written is that scale times the gcd
    of itself and the scaled numerators, so "2/4" and "1/2" agree.
    """
    scale, ints = linalg.clear_denominators(pairs)
    g = gcd(scale, *ints)
    if g > 1:
        scale //= g
        ints = [x // g for x in ints]
    return scale, ints


def _functional(pairing, cycle):
    # row vector of <., cycle>: entry i is (pairing @ cycle)[i]
    return tuple(_dot(row, cycle) for row in pairing)


def _dot(x, y):
    return sum(map(mul, x, y))


def _is_skew(pairing):
    m = len(pairing)
    return all(pairing[i][j] == -pairing[j][i] for i in range(m) for j in range(i, m))


def validate(data):
    """The ``FAIL_*`` names of the invariants ``data`` breaks; never raises.

    All four checks run, and the names come in the order skew,
    degenerate, zero cycle, orthogonality; an empty tuple means the data
    is valid.  A skew pairing makes the Gram matrix skew, so orthogonal
    cycles leave it zero off the diagonal, and the logarithms then
    multiply to zero pairwise; no separate commutation test is needed.
    """
    gram = data.gram
    checks = (
        (_is_skew(data.int_pairing), FAIL_SKEW),
        (linalg.rank_int_rows(data.int_pairing, data.dim) == data.dim, FAIL_DEGENERATE),
        (all(map(any, data.int_cycles)), FAIL_ZERO_CYCLE),
        # <v_a, v_b> is a positive multiple of gram[b][a]
        (
            all(gram[b][a] == 0 for a, b in combinations(range(data.delta), 2)),
            FAIL_ORTHOGONALITY,
        ),
    )
    return tuple(name for passed, name in checks if not passed)


class StalkComplex(namedtuple("StalkComplex", "dim delta d0")):
    """The stalk complex of ``delta`` orthogonal cycles: Q^dim -> Q^len(d0).

    Degree 0 is the fiber, degree 1 has one line per node whose
    logarithm is nonzero, and degrees 2 to ``delta`` are zero, because
    every product of two logarithms vanishes.  ``d0`` is the one
    differential, as int rows sign * f_i for the nodes with f_i != 0, in
    node order; the row of node i maps onto its line in the coordinate
    along v_i.
    """

    __slots__ = ()


def build_stalk_complex(data, sign=-1):
    """Assemble the complex from the data's monodromy logarithms.

    The product of the logarithms of nodes i and j is a multiple of
    ``gram[i][j]``, so a Gram matrix that is zero off its diagonal
    leaves degrees >= 2 empty; that is checked here rather than
    assumed, and data failing it raises ``FAIL_ORTHOGONALITY``.
    """
    if type(sign) is not int or sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign!r}")
    gram = data.gram
    if any(g for i, row in enumerate(gram) for j, g in enumerate(row) if i != j):
        raise PreconditionError(FAIL_ORTHOGONALITY)
    # The logarithm of node i is a positive multiple of M_i, and rescaling
    # each logarithm by a positive constant is a diagonal change of basis
    # of the complex.  M_i is nonzero exactly when f_i is, its image is
    # the line of v_i, and M_i e_k is sign * f_i[k] times v_i.
    d0 = tuple(tuple(sign * x for x in f) for f in data.functionals if any(f))
    return StalkComplex(dim=data.dim, delta=data.delta, d0=d0)


def complex_cohomology(complex_):
    """Cohomology dimensions in degrees 0 to delta, from one rank of d0.

    ``complex_`` comes from :func:`build_stalk_complex`, so d0 has at
    most delta rows.
    """
    dim, delta, d0 = complex_
    if not delta:
        return [dim]
    r = linalg.rank_int_rows(d0, dim)
    return [dim - r, len(d0) - r] + [0] * (delta - 1)


def span_dim(data):
    """Dimension of the linear span of the vanishing cycles."""
    return linalg.rank_int_rows(data.int_cycles, data.dim)


def excision_rank(data):
    """Rank of the pairing-against-every-cycle map out of the fiber.

    Row i is the functional <., v_i>; with a nondegenerate pairing the
    rank equals the span dimension of the cycles, which the test suite
    checks as the excision bookkeeping equation.
    """
    _require_valid(data)
    return linalg.rank_int_rows(data.functionals, data.dim)


class IcStalkReport(
    namedtuple(
        "IcStalkReport",
        "h0 h1 higher span_dim excision_rank h_top_singular defect filtration",
    )
):
    """Stalk dimensions plus the bookkeeping derived from them: ``filtration``
    is the graded 0 and 1 pieces of the top cohomology's two-step filtration,
    whose negative piece is 0; the pieces sum to ``h_top_singular``.
    """

    __slots__ = ()


def _require_valid(data):
    failures = validate(data)
    if failures:
        raise PreconditionError(failures[0])


def ic_stalk(data, sign=-1):
    """Full stalk report for validated monodromy data.

    The dimensions are computed twice, in closed form from the cycle
    span and by taking cohomology of the assembled complex, and the two
    must agree; disagreement is raised rather than papered over.
    """
    _require_valid(data)
    s = span_dim(data)
    cohomology = complex_cohomology(build_stalk_complex(data, sign))
    h0 = data.dim - s
    h1 = data.delta - s
    closed = [h0, h1] + [0] * (data.delta - 1) if data.delta else [h0]
    if cohomology != closed:
        raise PreconditionError(
            "closed-form and complex stalk computations disagree: "
            f"closed (h0={h0}, h1={h1}), complex {cohomology}"
        )
    h_top = data.h_ambient + h1
    return IcStalkReport(
        h0=h0,
        h1=h1,
        higher=tuple(closed[2:]),
        span_dim=s,
        excision_rank=excision_rank(data),
        h_top_singular=h_top,
        defect=h1,
        filtration=(h1, data.h_ambient),
    )
