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
forms; the pairing and the cycles as Fractions are built when asked for.
Positive rescalings change no rank, skewness, orthogonality or
commutation, so every check runs on plain ints, and every pairwise one
reads the Gram matrix.  The complex stores only the products that are
nonzero: a product grows by prepending a logarithm only when that
logarithm does not kill it, so orthogonal cycles give the identity and
the delta single logarithms rather than 2^delta summands, and degree
>= 2 still comes out of the computation.
The complex is built on the integer operators M_i = sign * outer(v_i, f_i),
positive multiples of the logarithms, which rescales the summands and
changes no rank.  Each summand of degree >= 1 has the int column
v_first of its first factor as its basis, d0 has the rows sign * f_i,
and every entry of higher degree is 0 or a signed Gram entry:
prepending i gives sign * gram[i][first], and dropping a later factor d
gives sign * gram[d][d] when gram[d][first] != 0, else 0.  Commuting
M_d, M_first (the pretest) make gram[d][first] v_d f_first^T equal
gram[first][d] v_first f_d^T, so then v_d = lambda * v_first, and
lambda * gram[d][first] = f_d . v_d = gram[d][d].  With CPython 3.11
on a shared 2-vCPU machine, ``ic_stalk`` takes about 1.4 ms at m = 10,
delta = 6 and 7 ms at m = 16, delta = 14, where enumerating all
2^delta index tuples over Fractions took 47 ms and 2.1 s.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from . import linalg
from .errors import InputError, PreconditionError, check_int

FAIL_SKEW = "pairing not skew"
FAIL_DEGENERATE = "pairing degenerate"
FAIL_ZERO_CYCLE = "zero vanishing cycle unsupported"
FAIL_ORTHOGONALITY = "vanishing cycles not pairwise orthogonal"
FAIL_COMMUTING = "monodromy logarithms do not commute"


@dataclass(frozen=True)
class MonodromyData:
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
    check shapes; the semantic invariants are the business of
    :func:`validate`.
    """

    dim: int
    int_pairing: tuple
    scale: int
    int_cycles: tuple
    cycle_scales: tuple
    functionals: tuple
    gram: tuple
    h_ambient: int
    fiber_dim: int | None = None

    @property
    def delta(self):
        return len(self.int_cycles)

    @property
    def pairing(self):
        """The intersection form, as rows of Fractions."""
        return tuple(
            tuple(Fraction(x, self.scale) for x in row) for row in self.int_pairing
        )

    @property
    def cycles(self):
        """The vanishing cycles, as tuples of Fractions."""
        return tuple(
            tuple(Fraction(x, c) for x in v)
            for v, c in zip(self.int_cycles, self.cycle_scales)
        )

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


def _rank_one_products_commute(gram, vs, fs):
    """Pairwise commutativity of the operators outer(v_i, f_i).

    Each product of two is again scalar times an outer product, so the
    matrix identity N_i N_j = N_j N_i reduces to comparing
    (f_i.v_j) v_i f_j^T with (f_j.v_i) v_j f_i^T entry by entry.  The
    logs are sign * w_i * outer(v_i, f_i) with w_i > 0, and the common
    factor sign^2 * w_i * w_j of both products drops out.  The scalars
    are ``gram[i][j]`` and ``gram[j][i]``; only a pair with one of them
    nonzero, which valid data never has, compares entries.
    """
    for i, j in combinations(range(len(vs)), 2):
        a, b = gram[i][j], gram[j][i]
        if a == 0 and b == 0:
            continue
        for x in range(len(vs[i])):
            for y in range(len(fs[j])):
                if a * vs[i][x] * fs[j][y] != b * vs[j][x] * fs[i][y]:
                    return False
    return True


def _is_skew(pairing):
    m = len(pairing)
    return all(pairing[i][j] == -pairing[j][i] for i in range(m) for j in range(i, m))


@dataclass(frozen=True)
class Diagnostics:
    """Pass/fail record for every semantic invariant of MonodromyData."""

    skew: bool
    nondegenerate: bool
    cycles_nonzero: bool
    pairwise_orthogonal: bool
    logs_commute: bool
    failures: tuple

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "skew": self.skew,
            "nondegenerate": self.nondegenerate,
            "cycles_nonzero": self.cycles_nonzero,
            "pairwise_orthogonal": self.pairwise_orthogonal,
            "logs_commute": self.logs_commute,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def validate(data):
    """Check every invariant and report diagnostics; never raises."""
    if not isinstance(data, MonodromyData):
        raise InputError("validate expects MonodromyData")
    vs, gram = data.int_cycles, data.gram
    skew = _is_skew(data.int_pairing)
    nondegenerate = (
        data.dim == 0 or linalg.rank(data.int_pairing, data.dim) == data.dim
    )
    cycles_nonzero = all(any(v) for v in vs)
    # <v_a, v_b> is a positive multiple of gram[b][a]
    orthogonal = all(gram[b][a] == 0 for a, b in combinations(range(len(vs)), 2))
    commute = _rank_one_products_commute(gram, vs, data.functionals)
    failures = []
    if not skew:
        failures.append(FAIL_SKEW)
    if not nondegenerate:
        failures.append(FAIL_DEGENERATE)
    if not cycles_nonzero:
        failures.append(FAIL_ZERO_CYCLE)
    if not orthogonal:
        failures.append(FAIL_ORTHOGONALITY)
    if not commute:
        failures.append(FAIL_COMMUTING)
    return Diagnostics(
        skew=skew,
        nondegenerate=nondegenerate,
        cycles_nonzero=cycles_nonzero,
        pairwise_orthogonal=orthogonal,
        logs_commute=commute,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class StalkComplex:
    """Complex of images of products of the monodromy logarithms.

    Degree p collects one summand per strictly increasing index tuple of
    length p whose product is nonzero, in lexicographic order; products
    that vanish span nothing and are not stored, but all delta + 1
    degrees are, empty ones included.  A summand's basis matrix (int
    columns spanning the image of its product: the identity in degree
    0, the one column ``int_cycles[idx[0]]`` above it) fixes the
    coordinates in which the differential blocks are written.
    ``differentials[p]`` maps degree p to degree p+1, with int entries;
    ``dims[p]`` is the total dimension of degree p.  The rows of
    ``differentials[0]`` are sign * f_i; above it, the block prepending
    ``first`` is sign * gram[first][idx[1]] and the one dropping
    d = idx[l] is (-1)**l * sign * gram[d][d], or 0 when gram[d][first]
    is 0: commuting logs with gram[d][first] != 0 have v_d = lambda *
    v_first, and lambda * gram[d][first] = gram[d][d].
    """

    dim: int
    summands: tuple
    differentials: tuple
    dims: tuple

    @property
    def degrees(self):
        return tuple(range(len(self.summands)))


def build_stalk_complex(data, sign=-1):
    """Assemble the complex from the data's monodromy logarithms.

    Requires the logarithms to commute pairwise (orthogonal cycles
    guarantee it); nothing else is assumed, so the vanishing of all
    degrees >= 2 comes out of the computation instead of being wired in.
    """
    if not isinstance(data, MonodromyData):
        raise InputError("build_stalk_complex expects MonodromyData")
    if sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign!r}")
    m = data.dim
    delta = data.delta
    vs, fs, gram = data.int_cycles, data.functionals, data.gram
    if not _rank_one_products_commute(gram, vs, fs):
        raise PreconditionError(FAIL_COMMUTING)

    # The logarithm of node i is a positive multiple of the integer
    # operator M_i = sign * outer(v_i, f_i), and rescaling each logarithm
    # by a positive constant is a diagonal change of basis of the
    # complex, so the complex is built on the M_i.  The product over idx
    # is an int times outer(v_first, f_last); prepending i keeps it
    # nonzero exactly when gram[i][first] != 0, and a zero product has no
    # nonzero extension, so each degree grows from the nonzero products
    # of the one before.  The basis of a product is the column v_first.
    # Every block is a signed Gram entry.  A later factor d carries
    # v_first onto sign * gram[d][first] * v_d; when gram[d][first] != 0,
    # the pretest's identity gram[d][first] v_d f_first^T =
    # gram[first][d] v_first f_d^T (both f nonzero: both indices sit in
    # a stored product) gives v_d = lambda * v_first, and
    # lambda * gram[d][first] = f_d . v_d = gram[d][d].
    level = [(i,) for i in range(delta) if any(fs[i])]
    identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    summands = [(((), identity),)]
    for _ in range(delta):
        summands.append(tuple((idx, tuple((x,) for x in vs[idx[0]])) for idx in level))
        level = sorted(
            (i,) + rest
            for rest in level
            for i in range(rest[0])
            if gram[i][rest[0]]
        )
    dims = [m] + [len(summand) for summand in summands[1:]]

    differentials = []
    for p in range(delta):
        sources = {idx: k for k, (idx, _) in enumerate(summands[p])}
        d = []
        for idx, _ in summands[p + 1]:
            first = idx[0]
            if p == 0:
                # M_i e_k is sign * f_i[k] times v_i
                d.append(tuple(sign * x for x in fs[first]))
                continue
            row = [0] * dims[p]
            # M_first carries the column v_idx[1] onto a multiple of v_first
            row[sources[idx[1:]]] = sign * gram[first][idx[1]]
            # dropping a later factor happens only with non-skew pairings:
            # under a skew one, commuting logs have gram[i][j] = 0
            for l in range(1, len(idx)):
                col = sources.get(idx[:l] + idx[l + 1 :])
                dropped = idx[l]
                if col is not None and gram[dropped][first]:
                    row[col] = (-1) ** l * sign * gram[dropped][dropped]
            d.append(tuple(row))
        differentials.append(tuple(d))

    return StalkComplex(
        dim=m,
        summands=tuple(summands),
        differentials=tuple(differentials),
        dims=tuple(dims),
    )


def complex_cohomology(complex_):
    """Cohomology dimensions in every degree, after checking d∘d = 0."""
    if not isinstance(complex_, StalkComplex):
        raise InputError("complex_cohomology expects a StalkComplex")
    dims = complex_.dims
    top = len(dims) - 1
    ranks = [
        linalg.rank(diff, dims[p]) if diff else 0
        for p, diff in enumerate(complex_.differentials)
    ]
    for p in range(len(complex_.differentials) - 1):
        a, b = complex_.differentials[p + 1], complex_.differentials[p]
        if not a or not b:
            continue
        product = linalg.matmul(a, b)
        if any(any(x != 0 for x in row) for row in product):
            raise PreconditionError("differentials do not compose to zero")
    out = []
    for p in range(top + 1):
        rank_out = ranks[p] if p < len(ranks) else 0
        rank_in = ranks[p - 1] if p >= 1 else 0
        out.append(dims[p] - rank_out - rank_in)
    return out


def span_dim(data):
    """Dimension of the linear span of the vanishing cycles."""
    if not isinstance(data, MonodromyData):
        raise InputError("span_dim expects MonodromyData")
    return linalg.rank(data.int_cycles, data.dim)


def excision_rank(data):
    """Rank of the pairing-against-every-cycle map out of the fiber.

    Row i is the functional <., v_i>; with a nondegenerate pairing the
    rank equals the span dimension of the cycles, which the test suite
    checks as the excision bookkeeping identity.
    """
    _require_valid(data)
    return linalg.rank(data.functionals, data.dim)


@dataclass(frozen=True)
class IcStalkReport:
    """Stalk dimensions plus the bookkeeping derived from them."""

    h0: int
    h1: int
    higher: tuple
    span_dim: int
    excision_rank: int
    h_top_singular: int
    defect: int
    filtration: tuple

    def to_json(self):
        return {
            "h0": self.h0,
            "h1": self.h1,
            "higher": list(self.higher),
            "span_dim": self.span_dim,
            "excision_rank": self.excision_rank,
            "h_top_singular": self.h_top_singular,
            "defect": self.defect,
            "filtration": list(self.filtration),
        }


def _require_valid(data):
    if not isinstance(data, MonodromyData):
        raise InputError("expected MonodromyData")
    diagnostics = validate(data)
    if not diagnostics.passed:
        raise PreconditionError(diagnostics.failures[0])
    return diagnostics


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
    higher = tuple(cohomology[2:])
    complex_h1 = cohomology[1] if len(cohomology) > 1 else 0
    if cohomology[0] != h0 or complex_h1 != h1 or any(higher):
        raise PreconditionError(
            "closed-form and complex stalk computations disagree: "
            f"closed (h0={h0}, h1={h1}), complex {cohomology}"
        )
    h_top = data.h_ambient + h1
    return IcStalkReport(
        h0=h0,
        h1=h1,
        higher=higher,
        span_dim=s,
        excision_rank=excision_rank(data),
        h_top_singular=h_top,
        defect=h1,
        filtration=(h1, data.h_ambient),
    )


@dataclass(frozen=True)
class PerverseFiltration:
    """Graded pieces of the two-step filtration on the top cohomology."""

    negative_piece: int
    graded_0: int
    graded_1: int
    total: int

    def to_json(self):
        return {
            "negative_piece": self.negative_piece,
            "graded_0": self.graded_0,
            "graded_1": self.graded_1,
            "total": self.total,
        }


def perverse_filtration(report):
    """Read the filtration off a stalk report: (0, defect, ambient rank)."""
    if not isinstance(report, IcStalkReport):
        raise InputError("perverse_filtration expects an IcStalkReport")
    graded_0, graded_1 = report.filtration
    return PerverseFiltration(
        negative_piece=0,
        graded_0=graded_0,
        graded_1=graded_1,
        total=report.h_top_singular,
    )
