"""Exact linear algebra over the rationals.

Matrices are lists of rows of ints or :class:`fractions.Fraction`;
floats and bools are rejected because they silently break exactness.
:func:`rank` validates its input once,
through :func:`_int_rows`: rows of plain ints are taken as they are,
and a row holding a Fraction is scaled by the lcm of its denominators,
which keeps the row space.  It hands the integer rows to
:func:`rank_int_rows`, the rank core, which a caller holding int rows
(the Newton rows and coordinate vectors of :mod:`nodalic.points`) calls
directly, so nothing is checked again.  The core ends in the one
elimination kernel, :func:`reduce_int_rows`.

The rank core takes one path: the echelon certificate, then the
orientation, then the kernel.  It first drops zero rows and reads each
row's lead column, its first nonzero entry.  Rows with distinct lead
columns are, once sorted by them, in echelon form, hence independent,
so their number is the rank and no row update is made: this echelon
certificate is how the Newton rows of a complete grid rank
(:mod:`nodalic.points`).  The first repeated lead column ends the scan,
and the rows go on to elimination as below.

The kernel is fraction-free forward elimination over Python big
integers that keeps every row primitive (content 1).  It clears column
``c`` below the pivot ``piv`` by ``row = (piv/g) * row - (f/g) * piv_row``
with ``g = gcd(piv, f)`` and then divides the row by the gcd of its
entries.  Each row is therefore the primitive integer multiple of the
row that plain Gaussian elimination would hold, so its entries are
never larger than those of the Bareiss row (a minor of the input); on
matrices whose rows share content, such as monomial evaluations at
rational points, they stay close to the input size instead of growing
with the elimination depth.  The pivot is the first nonzero entry of
the column among the rows not yet used, so the rank and the pivot
columns are a deterministic function of the input alone.

The kernel gets what no certificate ranks: the Newton rows of point
sets off the grids at degree 2 and up, the coordinate matrices of
point sets whose degree-1 Newton rows share a lead (the one rank path
of :mod:`nodalic.points`, ``_ranks``, certifies the others for the span
and for degree 1 alike, every complete grid among them) and the ranks
of :mod:`nodalic.monodromy`.  Each pivot updates every nonzero row below
it, so :func:`rank_int_rows` reduces a matrix with more rows than
columns as its transpose: the same rank in about r * cols row updates
instead of r * rows.  The 126x20 Newton rows of 20 random points of
P^4 at degree 5, integer coordinates with the last in 1..9 and the
others in -9..9, rank in 7.9 ms instead of 11.9 ms, the 210x12 ones of
12 such points at degree 6 in 2.6 ms instead of 3.9 ms (best of seven,
CPython 3.11, shared 2-vCPU VM).  Wide matrices keep their
orientation.  The kernel slices the pivot row's tail once per pivot.
"""

import re
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from .errors import InputError


def as_rational(value):
    """Coerce ``value`` to Fraction, accepting only exact types."""
    if isinstance(value, Fraction):
        return value
    # bool passes isinstance(int) but 2 + True is never what a caller meant
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InputError(
        f"expected an int or Fraction, got {type(value).__name__}: {value!r}"
    )


# ASCII digits only: \d would take any Unicode digit, which int() reads
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational_pair(value):
    """Parse a JSON-level scalar into ``(numerator, denominator)`` ints.

    Accepts a plain int or an "a/b" string of ASCII digits with an
    optional sign and nothing around it: no whitespace, no final
    newline, no other script's digits.  The denominator is positive but
    the pair is not reduced, so callers that only scale by it build no
    Fraction.  Floats are rejected rather than converted; a binary float
    is almost never the rational the author meant, and exactness is the
    contract.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise InputError(f"not a rational literal: {value!r}")
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as err:
            # past the interpreter's digit limit for parsing an int
            raise InputError("rational literal has too many digits to parse") from err
        if den == 0:
            raise InputError(f"zero denominator: {value!r}")
        return num, den
    raise InputError(
        f"expected an integer or \"a/b\" string, got {type(value).__name__}: {value!r}"
    )


def rational_pairs(values):
    """``(numerator, denominator)`` of each int or Fraction in ``values``."""
    return [(x.numerator, x.denominator) for x in map(as_rational, values)]


def clear_denominators(pairs):
    """``(scale, ints)``: the lcm of the denominators, and the rationals times it.

    ``pairs`` are ``(numerator, denominator)`` with positive
    denominators.  For reduced pairs the scale is the least that makes
    every rational an int; for pairs as written ("2/4") it may be a
    multiple of that.
    """
    scale = lcm(*(den for _, den in pairs))
    return scale, [num * (scale // den) for num, den in pairs]


def rational_to_json(value):
    """Canonical JSON form: bare int when integral, else "a/b" string."""
    value = as_rational(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _check_shape(matrix, ncols):
    """Validate the list-of-rows shape; return (rows, ncols) unconverted."""
    if not isinstance(matrix, (list, tuple)):
        raise InputError(f"matrix must be a list of rows, got {type(matrix).__name__}")
    width = ncols
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"row {i} has {len(row)} entries, expected {width}")
    if width is None:
        raise InputError("cannot infer the column count of a matrix with no rows")
    return matrix, width


def check_matrix(matrix, ncols=None):
    """Validate shape and entry types, return (rows, ncols) unconverted.

    Every entry must be an int or a Fraction, as for :func:`as_rational`,
    but none is converted, so a product of int matrices stays in ints.
    ``ncols`` must be supplied when ``matrix`` has no rows and is checked
    against the row length otherwise.
    """
    rows, width = _check_shape(matrix, ncols)
    for row in rows:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                as_rational(x)  # raises, naming the type
    return rows, width


def _int_rows(matrix, ncols=None):
    """Validated integer rows with the same row space, and the column count.

    A row of plain ints is taken as it is; any other row is checked
    entry by entry and its denominators cleared.
    """
    rows, width = _check_shape(matrix, ncols)
    out = []
    for row in rows:
        # exact type test: bool and Fraction rows go the slow way
        if {*map(type, row)} <= {int}:
            out.append(row)
            continue
        out.append(clear_denominators(rational_pairs(row))[1])
    return out, width


def reduce_int_rows(rows, ncols):
    """Forward-eliminate ``rows`` (lists of ints, length ``ncols``) in place.

    Returns the list of pivot columns, whose length is the rank.  After
    the call the first ``len(pivots)`` rows are in echelon form, row
    ``i`` with its lead entry in column ``pivots[i]`` and content 1; the
    remaining rows are zero.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = -1
        for i in range(r, nrows):
            if rows[i][c] != 0:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        piv_row = rows[r]
        # only input rows can have content; every updated row is primitive
        content = gcd(*piv_row[c:])
        if content > 1:
            piv_row[c:] = [x // content for x in piv_row[c:]]
        piv = piv_row[c]
        piv_tail = piv_row[c:]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if not f:
                continue
            # the primitive form of (piv/g) * row - (f/g) * piv_row; the
            # entries before column c are zero in both rows
            g = gcd(piv, f)
            a, b = piv // g, f // g
            tail = [a * x - b * y for x, y in zip(row[c:], piv_tail)]
            content = gcd(*tail)
            if content > 1:
                tail = [x // content for x in tail]
            row[c:] = tail
        pivots.append(c)
        r += 1
    return pivots


def rank_int_rows(rows, ncols):
    """Rank of rows of ``ncols`` plain ints, lists or tuples, left unchanged.

    The rank core, and the one function that decides the rows the kernel
    works on.  Nothing is validated.  Zero rows are dropped, and nonzero
    rows with distinct lead columns are their own rank (the echelon
    certificate of the module docstring), read on the rows as given, so
    a certified rank copies nothing.  Otherwise the core makes its one
    copy, lists for :func:`reduce_int_rows` to reduce in place: the
    transpose of a matrix with more rows than columns, else the rows.
    """
    rows = [row for row in rows if any(row)]
    leads = set()
    for row in rows:
        lead = next(compress(count(), row))
        if lead in leads:
            break
        leads.add(lead)
    else:
        # rows with distinct lead columns are independent
        return len(rows)
    if len(rows) > ncols:
        rows, ncols = zip(*rows), len(rows)
    return len(reduce_int_rows(list(map(list, rows)), ncols))


def rank(matrix, ncols=None):
    """Rank over the rationals (forward elimination only).

    Validates the input into int rows (:func:`_int_rows`) and hands
    them to :func:`rank_int_rows`.
    """
    return rank_int_rows(*_int_rows(matrix, ncols))


def matmul(a, b):
    """Exact matrix product; inner dimensions must agree."""
    arows, an = check_matrix(a)
    brows, bn = check_matrix(b, None if b else an)
    if len(brows) != an:
        raise InputError(f"cannot multiply {len(arows)}x{an} by {len(brows)}x{bn}")
    bt = list(zip(*brows)) if brows else []
    return [
        [sum(x * y for x, y in zip(row, col)) for col in bt]
        for row in arows
    ]
