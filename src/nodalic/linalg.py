"""Exact linear algebra over the rationals.

Matrices are lists of rows, rows are lists of :class:`fractions.Fraction`
(plain ints are accepted anywhere; floats and bools are rejected because
they silently break exactness).  Every reduction validates its input
once, through :func:`_int_rows`: rows of plain ints are taken as they
are, and a row holding a Fraction is scaled by the lcm of its
denominators, which keeps the row space.  The integer rows then go to
the one elimination kernel, :func:`reduce_int_rows`, or, for the rank
of a large matrix of word-sized entries, first to the packed forward
pass described at the end.  :func:`rank` is that validation followed by
:func:`rank_int_rows`, the rank core, which a caller holding int rows
it has just built (the evaluation rows of :mod:`nodalic.points`) calls
directly, with a bound on their entries, so nothing is checked, copied
or scanned again.

The rank core first drops zero rows and reads each row's lead column,
its first nonzero entry.  Rows with distinct lead columns are, once
sorted by them, in echelon form, hence independent, so their number is
the rank and no row update is made: this echelon certificate is how
the Newton rows of a complete grid rank (:mod:`nodalic.points`).  The
first repeated lead column ends the scan, and the rows go on to
elimination as below.

The kernel is fraction-free elimination over Python big integers that
keeps every row primitive (content 1).  The forward pass clears column
``c`` below the pivot ``piv`` by ``row = (piv/g) * row - (f/g) * piv_row``
with ``g = gcd(piv, f)`` and then divides the row by the gcd of its
entries.  Each row is therefore the primitive integer multiple of the
row that plain Gaussian elimination would hold, so its entries are
never larger than those of the Bareiss row (a minor of the input); on
matrices whose rows share content, such as monomial evaluations at
rational points, they stay close to the input size instead of growing
with the elimination depth.  The optional backward pass clears entries
above the pivots the same way, leaving each row an integer multiple of
the corresponding row of the canonical reduced echelon form.  The pivot
is the first nonzero entry of the column among the rows not yet used,
so every result here is a deterministic function of the input alone.

Each pivot updates every nonzero row below it, so the work grows with
the row count, and :func:`rank_int_rows` reduces a matrix with more rows
than columns as its transpose.  The rank is the same, and about r * cols row
updates are made instead of r * rows.  With the list kernel, the tall
625x210 evaluation matrix of the grid n=4, k=6 ranks in 0.14 s instead
of 0.50 s, 1024x252 in 0.21 s instead of 0.95 s (CPython 3.11, shared
2-vCPU VM).  Wide
matrices keep their orientation: random 8x20 ints ranked as 20x8 run at
about half the speed.  :func:`rref`, :func:`column_space_basis` and
:func:`kernel_basis` keep it too, since they report pivot columns of
the input.  The forward pass slices the pivot row's tail once per pivot
and skips the multiplication when ``piv/g`` is 1, which changes no
entry.

The packed forward pass (:func:`_packed_rank`) turns each row into one
Python int, as in Kronecker substitution (Harvey, J. Symb. Comp. 44,
2009), so that a row update ``a * row - b * piv_row`` is two or three
big-integer operations run in C instead of one interpreted step per
entry.  :func:`rank_int_rows` runs it on an oriented matrix of at least
``PACKED_MIN_ROWS`` rows whose entries all fit a signed 64-bit word;
everything else goes to :func:`reduce_int_rows` as before.

- Slots.  Entry ``j`` of a row of ``ncols`` is a signed slot of
  ``SLOT_BITS`` = 128 bits at bit ``128 * (ncols - j)``, so column 0 is
  the most significant slot, and the lowest slot is a zero guard.  The
  int is the exact sum of entry times 2^offset, so sums and multiples
  of rows act slot by slot while every slot stays below 2^126; the pass
  keeps every slot at most 2^``SLOT_ENTRY_BITS`` = 2^125.  Rows are
  packed from ``array('q')`` words read as one int, then sign-fixed.
- Lead read.  Let K = 128 * (ncols - c) for a row that is zero before
  column ``c``.  Its bit length is in [K, K + 126] when its entry at
  ``c`` is nonzero and below K otherwise, so its lead column is
  ``ncols - bit_length // 128``; the entry itself is
  ``((v >> (K - 1)) + 1) >> 1``, since the slots below add less than a
  quarter and the rounding drops it.  Pivots are the first row of each
  lead column, and an updated row moves to the list of its new one.
- Width.  Each row carries a bound ``w`` with every slot at most 2^w,
  and an update gives ``max(bits(a) + w, bits(b) + w_piv) + 1``.  When
  that passes 125, the row's and the pivot row's exact widths are
  measured without unpacking: adding 2^B to every slot leaves them all
  in [0, 2^(B+1)), with no borrow, exactly when they lay in
  [-2^B, 2^B), so the sum ANDed with the mask of each slot's bits above
  B + 1 is zero; a binary search over B finds the least.
- Handover.  If the update still cannot fit, the rows still live (the
  pivot row, the rows not yet updated against it and those whose lead
  lies further right), unpacked from column ``c`` on, go to
  :func:`reduce_int_rows`.  The rank is the pivot count so far plus
  the rank of that block; both are exact integer ranks of row-equivalent
  matrices.
- Content.  The pass keeps the ``g = gcd(piv, f)`` step but removes no
  row content: that needs the entries, and unpacking a 216-entry row
  takes about 71 us, the time of two list updates of that row (36 us)
  or eighteen packed ones (4 us).

``PACKED_MIN_ROWS`` = 8 is the measured crossover (CPython 3.11, shared
2-vCPU VM, per-matrix minima of five runs).  On the matrices that two
rounds of each benchmark workload rank, the packed pass took 1.3-1.8x
the list kernel's time at 3-5 rows, 0.87-1.07x at 6, 0.66-0.68x at
8-10 and 0.19-0.39x at 35-126 rows.  On random 20-bit and grid-like
matrices of 7, 8 and 10 rows it took 0.98-1.23x, 0.91-1.14x and
0.94-0.96x.  The 56 matrices of two grid-points rounds (an evaluation
and a coordinate matrix per request) rank in 2.1-2.9 ms each on
average instead of 10.6 ms, and the grid evaluations 625x210 (n=4,
k=6) and 1024x252 (n=5, k=5) in 35 and 61 ms instead of 112 and
167 ms.  Dense matrices whose entries grow hand over after a few
pivots and stay at parity: 100x200 with entries up to 100 ranks in
1.46-1.53 s against 1.54 s.
"""

import re
import sys
from array import array
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


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational_pair(value):
    """Parse a JSON-level scalar into ``(numerator, denominator)`` ints.

    Accepts a plain int or an "a/b" string.  The denominator is positive
    but the pair is not reduced, so callers that only scale by it build
    no Fraction.  Floats are rejected rather than converted; a binary
    float is almost never the rational the author meant, and exactness
    is the contract.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
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
    """Validate shape, return (fraction_rows, ncols).

    ``ncols`` must be supplied when ``matrix`` has no rows and is checked
    against the row length otherwise.
    """
    rows, width = _check_shape(matrix, ncols)
    return [[as_rational(x) for x in row] for row in rows], width


def _int_rows(matrix, ncols=None):
    """Validated integer rows with the same row space, and the column count.

    A row of plain ints is copied as it is; any other row is checked
    entry by entry and its denominators cleared.
    """
    rows, width = _check_shape(matrix, ncols)
    out = []
    for row in rows:
        # exact type test: bool and Fraction rows go the slow way
        if {*map(type, row)} <= {int}:
            out.append(list(row))
            continue
        out.append(clear_denominators(rational_pairs(row))[1])
    return out, width


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


# Packed rows: slot width in bits, the largest entry bit length a slot
# may reach, and the row count from which packing pays (module docstring).
SLOT_BITS = 128
SLOT_ENTRY_BITS = SLOT_BITS - 3
PACKED_MIN_ROWS = 8
_WORD = 1 << 63
_SLOT_BYTES = SLOT_BITS // 8


def _pack(rows, ncols):
    """Each row as one int, and the int holding 1 in every slot.

    Column ``j`` is the slot at bit ``SLOT_BITS * (ncols - j)``; the
    lowest slot is a zero guard, so every lead read shifts by at least
    ``SLOT_BITS - 1``.  Entries must fit a signed 64-bit word.  They are
    laid into the low half of each big-endian slot as unsigned words and
    read as one int; flipping each word's sign bit and subtracting it
    again turns the words back into signed slots.
    """
    zero = bytes(_SLOT_BYTES - 1)
    ones = int.from_bytes((zero + b"\1") * (ncols + 1), "big")
    word_sign = bytes(_SLOT_BYTES // 2) + b"\x80" + bytes(_SLOT_BYTES // 2 - 1)
    signs = int.from_bytes(word_sign * ncols + bytes(_SLOT_BYTES), "big")
    words = array("q", bytes(_SLOT_BYTES * (ncols + 1)))
    packed = []
    for row in rows:
        words[1:-2:2] = array("q", row)
        if sys.byteorder == "little":
            words.byteswap()
        packed.append((int.from_bytes(words, "big") ^ signs) - signs)
    return packed, ones


def _slot_width(v, bits, ones):
    """Smallest ``w <= bits`` with every slot of ``v`` in [-2^w, 2^w).

    ``bits`` must already bound the slots; the search only tightens it.
    Adding 2^w to each slot leaves exactly those slots in [0, 2^(w+1))
    with no borrow between slots, so the sum then has no bit at or above
    ``w + 1`` inside any slot.
    """
    low = 0
    while low < bits:
        mid = (low + bits) // 2
        above = (ones << SLOT_BITS) - (ones << (mid + 1))
        if (v + (ones << mid)) & above:
            low = mid + 1
        else:
            bits = mid
    return bits


def _unpack(v, ncols, start):
    """Entries ``start..ncols-1`` of a packed row, as a list of ints."""
    count = ncols - start
    half = 1 << (SLOT_BITS - 1)
    offset = int.from_bytes((b"\x80" + bytes(_SLOT_BYTES - 1)) * count, "big")
    data = ((v >> SLOT_BITS) + offset).to_bytes(_SLOT_BYTES * count, "big")
    return [
        int.from_bytes(data[i:i + _SLOT_BYTES], "big") - half
        for i in range(0, len(data), _SLOT_BYTES)
    ]


def _packed_rank(rows, ncols, bits):
    """Rank of int rows of ``ncols`` entries, each below 2^bits in size.

    The forward pass of :func:`reduce_int_rows` on packed rows, without
    content removal.  ``leads[c]`` holds the live rows whose first
    nonzero entry is in column ``c``, as ``(v, w)`` with every slot of
    ``v`` at most 2^w in size; a row's lead column is read off its bit
    length, and an updated row moves on to the list of its new lead
    column.  When an update could push a slot past 2^SLOT_ENTRY_BITS
    even after both rows were measured, the rows still live go to
    :func:`reduce_int_rows`.
    """
    packed, ones = _pack(rows, ncols)
    leads = [[] for _ in range(ncols)]
    for v in packed:
        if v:
            leads[ncols - v.bit_length() // SLOT_BITS].append((v, bits))
    # from here each row lives only in leads, so clearing a column frees it
    del packed
    r = 0
    for c, column in enumerate(leads):
        if not column:
            continue
        piv_v, piv_w = column[0]
        piv_measured = False
        shift = SLOT_BITS * (ncols - c) - 1
        piv = ((piv_v >> shift) + 1) >> 1
        for i in range(1, len(column)):
            v, w = column[i]
            f = ((v >> shift) + 1) >> 1
            g = gcd(piv, f)
            a = piv // g
            b = f // g
            need = max(a.bit_length() + w, b.bit_length() + piv_w) + 1
            if need > SLOT_ENTRY_BITS:
                w = _slot_width(v, w, ones)
                if not piv_measured:
                    piv_w = _slot_width(piv_v, piv_w, ones)
                    piv_measured = True
                need = max(a.bit_length() + w, b.bit_length() + piv_w) + 1
                if need > SLOT_ENTRY_BITS:
                    live = column[:1] + column[i:]
                    live += [e for after in leads[c + 1:] for e in after]
                    block = [_unpack(u, ncols, c) for u, _ in live]
                    return r + len(reduce_int_rows(block, ncols - c, False))
            v = v - b * piv_v if a == 1 else a * v - b * piv_v
            if v:
                leads[ncols - v.bit_length() // SLOT_BITS].append((v, need))
        # the rows left here are stale copies of rows that moved on
        column.clear()
        r += 1
    return r


def rref(matrix, ncols=None):
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivot_columns)`` where ``reduced`` has the
    same shape as the input.  The reduced form is the canonical one
    (pivots equal to 1, zeros above and below), so equal row spaces give
    equal output.
    """
    work, width = _int_rows(matrix, ncols)
    pivots = reduce_int_rows(work, width, True)
    reduced = []
    for i, c in enumerate(pivots):
        piv = work[i][c]
        reduced.append([Fraction(v, piv) for v in work[i]])
    zero = [Fraction(0)] * width
    for _ in range(len(work) - len(pivots)):
        reduced.append(list(zero))
    return reduced, len(pivots), pivots


def rank_int_rows(rows, ncols, bits):
    """Rank of int rows of ``ncols`` entries, which it may reduce in place.

    The rank core.  ``rows`` must be lists of plain ints that the caller
    no longer needs: nothing is validated or copied.  ``bits`` is None
    unless every entry fits a signed 64-bit word, and then every entry
    is below 2^bits in size.  Zero rows are dropped, and nonzero rows
    with distinct lead columns are their own rank (the module
    docstring).  Otherwise a matrix with more rows than columns is
    reduced as its transpose; then at least ``PACKED_MIN_ROWS`` rows and
    a ``bits`` take the packed forward pass, anything else the list
    kernel.
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
        rows, ncols = [list(column) for column in zip(*rows)], len(rows)
    if bits is not None and len(rows) >= PACKED_MIN_ROWS:
        return _packed_rank(rows, ncols, bits)
    return len(reduce_int_rows(rows, ncols, False))


def rank(matrix, ncols=None):
    """Rank over the rationals (forward elimination only).

    Validates the input into fresh int rows (:func:`_int_rows`) and
    hands them to :func:`rank_int_rows`, which transposes a tall matrix.
    The entries are scanned for their size only when the oriented matrix
    has rows enough for the packed pass.
    """
    work, width = _int_rows(matrix, ncols)
    bits = None
    if min(len(work), width) >= PACKED_MIN_ROWS:
        high = max(map(max, work))
        low = min(map(min, work))
        if -_WORD <= low and high < _WORD:
            bits = max(high, -low).bit_length()
    return rank_int_rows(work, width, bits)


def kernel_basis(matrix, ncols=None):
    """Null space basis as a matrix, one basis vector per column.

    One vector per free column, ordered by that column's index and
    normalized so the free coordinate is 1; together with the canonical
    reduced form this makes the basis deterministic.  Shape is
    cols x (cols - rank); a full-rank matrix gives a matrix with zero
    columns.
    """
    work, width = _int_rows(matrix, ncols)
    pivots = reduce_int_rows(work, width, True)
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    basis = [[Fraction(0)] * len(free) for _ in range(width)]
    for k, c in enumerate(free):
        basis[c][k] = Fraction(1)
        for row, p in zip(work, pivots):
            basis[p][k] = Fraction(-row[c], row[p])
    return basis


def column_space_basis(matrix, ncols=None):
    """Matrix whose columns are the pivot columns of the input.

    The selected columns are linearly independent, span the column
    space, and keep their input order, so the choice is deterministic.
    """
    work, width = _int_rows(matrix, ncols)
    pivots = reduce_int_rows(work, width, False)
    return [[as_rational(row[c]) for c in pivots] for row in matrix]


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


def identity(n):
    # Fractions are immutable, so every entry can share these two
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]

