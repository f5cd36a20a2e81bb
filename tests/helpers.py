"""Shared builders for the test suite: symplectic forms, random data, oracles.

Randomness always flows through a caller-supplied ``random.Random`` so
every test is reproducible from its seed.
"""

from fractions import Fraction

from nodalic import linalg, points
from nodalic.errors import check_int
from nodalic.monodromy import MonodromyData


def standard_symplectic(m):
    """Block-diagonal pairing with (0 1 / -1 0) blocks; m must be even."""
    pairing = [[Fraction(0)] * m for _ in range(m)]
    for i in range(0, m, 2):
        pairing[i][i + 1] = Fraction(1)
        pairing[i + 1][i] = Fraction(-1)
    return pairing


def basis_vector(m, i):
    vec = [Fraction(0)] * m
    vec[i] = Fraction(1)
    return vec


def random_invertible(rng, m, lo=-3, hi=3):
    while True:
        matrix = [
            [Fraction(rng.randint(lo, hi)) for _ in range(m)] for _ in range(m)
        ]
        if linalg.rank(matrix, m) == m:
            return matrix


def random_monodromy_data(rng, max_half_dim=5, max_delta=6):
    """Valid random instance: conjugated pairing, orthogonal cycles.

    The pairing is P^T J P for the standard J and a random invertible P;
    cycles are preimages under P of vectors from the span of the first
    basis vector of each symplectic block, which is orthogonal to itself
    under J, so the transported cycles stay pairwise orthogonal.
    """
    m = 2 * rng.randint(1, max_half_dim)
    change = random_invertible(rng, m)
    pairing = linalg.matmul(
        [list(column) for column in zip(*change)],
        linalg.matmul(standard_symplectic(m), change),
    )
    inverse = solve(change, linalg.identity(m))
    cycles = []
    for _ in range(rng.randint(0, max_delta)):
        while True:
            upstairs = [Fraction(0)] * m
            for i in range(0, m, 2):
                upstairs[i] = Fraction(rng.randint(-2, 2))
            if any(upstairs):
                break
        cycles.append(
            tuple(
                sum(inverse[i][j] * upstairs[j] for j in range(m))
                for i in range(m)
            )
        )
    return MonodromyData.from_rationals(
        dim=m, pairing=pairing, cycles=cycles, h_ambient=rng.randint(0, 5)
    )


def rref(matrix, ncols=None):
    """``(reduced, rank, pivots)`` by textbook Gauss-Jordan over Fractions.

    An oracle sharing no code with :mod:`nodalic.linalg`.  ``reduced`` is
    the canonical form, of the input's shape: pivots 1, zeros above and
    below.  ``ncols`` is needed only when ``matrix`` has no rows.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for c in range(len(rows[0]) if rows else ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot_row = [x / rows[r][c] for x in rows[r]]
        rows[r] = pivot_row
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [x - f * y for x, y in zip(row, pivot_row)]
        pivots.append(c)
    return rows, len(pivots), pivots


def kernel_basis(matrix, ncols=None):
    """Null space basis, shape cols x (cols - rank): column k is 1 at the
    k-th free column, 0 at the other free columns."""
    reduced, _, pivots = rref(matrix, ncols)
    width = len(reduced[0]) if reduced else ncols
    free = [c for c in range(width) if c not in pivots]
    basis = [[Fraction(0)] * len(free) for _ in range(width)]
    for k, c in enumerate(free):
        basis[c][k] = Fraction(1)
        for row, p in zip(reduced, pivots):
            basis[p][k] = -row[c]
    return basis


def column_space_basis(matrix):
    """The input's pivot columns, in their order, as a matrix of Fractions."""
    pivots = rref(matrix)[2]
    return [[Fraction(row[c]) for c in pivots] for row in matrix]


def solve(a, b):
    """X with a @ X = b for square a, read off the reduced form [I | X]
    of [a | b]; None when a is singular."""
    n = len(a)
    reduced, _, pivots = rref([list(x) + list(y) for x, y in zip(a, b)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def log_matrix(pairing, cycle, sign):
    """Explicit monodromy logarithm x -> sign * <x, v> * v, for any pairing."""
    functional = [sum(p * c for p, c in zip(row, cycle)) for row in pairing]
    return [[sign * a * f for f in functional] for a in cycle]


def transvection(pairing, cycle, sign):
    """The monodromy itself: the identity plus :func:`log_matrix`."""
    matrix = log_matrix(pairing, cycle, sign)
    for i, row in enumerate(matrix):
        row[i] += 1
    return matrix


def monomial_basis(n, d):
    """Exponent vectors of the degree-d monomials in n+1 variables.

    Lexicographically ascending; length comb(n+d, n), which must be at
    most ``points.MAX_MONOMIALS``.
    """
    check_int(n, "n", minimum=1)
    check_int(d, "d", minimum=0)
    points._check_monomial_count(n, d)

    def walk(remaining_vars, total):
        if remaining_vars == 1:
            yield (total,)
            return
        for e in range(total + 1):
            for rest in walk(remaining_vars - 1, total - e):
                yield (e,) + rest

    return list(walk(n + 1, d))
