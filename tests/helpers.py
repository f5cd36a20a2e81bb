"""Shared builders for the test suite: symplectic forms, random data, oracles.

Randomness always flows through a caller-supplied ``random.Random`` so
every test is reproducible from its seed.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from nodalic import linalg, points
from nodalic.errors import InputError, check_int
from nodalic.monodromy import MonodromyData


class NoFraction(Fraction):
    """Patched in for ``Fraction`` to show that a path builds none."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built on an integer path")


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


def identity(n):
    """The n x n identity matrix, as rows of Fractions."""
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


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
    inverse = solve(change, identity(m))
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


def textbook_stalk_complex(pairing, cycles, sign):
    """``(index_sets, dims, cohomology)`` of the complex of log products.

    A reference for the stalk complex that shares no code with
    :mod:`nodalic.monodromy`: the logarithms are explicit matrices over
    Fractions, the nonzero products are found by multiplying out every
    increasing index tuple, each summand's basis is its product's
    :func:`column_space_basis`, each block holds (-1)^l times the
    :func:`rref` coordinates of N_idx[l] applied to the source basis,
    and the cohomology comes from :func:`rref` ranks.  The number of
    products is 2^len(cycles), so keep the cycles few.
    """
    m = len(pairing)
    logs = [log_matrix(pairing, cycle, sign) for cycle in cycles]
    levels = []
    for p in range(len(cycles) + 1):
        level = []
        for idx in combinations(range(len(cycles)), p):
            product = identity(m)
            for i in idx:
                product = _product(product, logs[i])
            if any(any(row) for row in product):
                level.append((idx, column_space_basis(product)))
        levels.append(level)
    dims = [sum(len(basis[0]) for _, basis in level) for level in levels]
    ranks = []
    for p in range(len(cycles)):
        d = [[Fraction(0)] * dims[p] for _ in range(dims[p + 1])]
        row_offset = 0
        for idx, basis in levels[p + 1]:
            width = len(basis[0])
            col_offset = 0
            for jdx, source in levels[p]:
                for l in range(len(idx)):
                    if idx[:l] + idx[l + 1 :] != jdx:
                        continue
                    image = _product(logs[idx[l]], source)
                    aug = [list(b) + list(y) for b, y in zip(basis, image)]
                    reduced, _, pivots = rref(aug)
                    assert pivots == list(range(width)), "image leaves the summand"
                    for a in range(width):
                        for b in range(len(source[0])):
                            d[row_offset + a][col_offset + b] = (
                                (-1) ** l * reduced[a][width + b]
                            )
                col_offset += len(source[0])
            row_offset += width
        ranks.append(rref(d, dims[p])[1] if d else 0)
    cohomology = [
        dims[p]
        - (ranks[p] if p < len(ranks) else 0)
        - (ranks[p - 1] if p else 0)
        for p in range(len(dims))
    ]
    index_sets = [[idx for idx, _ in level] for level in levels]
    return index_sets, dims, cohomology


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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


def primitive_vectors(coordinates):
    """Per-point oracle for ``ProjectivePointSet.vectors``: the textbook rule.

    Each point, read as Fractions (ints, Fractions or "p/q" strings), is
    scaled by the lcm of its denominators and divided by the gcd of the
    results, negated when its first nonzero entry is negative.  Raises the
    InputError of the first zero or repeated point, in point order.
    """
    vectors = []
    for i, point in enumerate(coordinates):
        point = [Fraction(x) for x in point]
        scale = lcm(*(x.denominator for x in point))
        ints = [int(x * scale) for x in point]
        content = gcd(*ints)
        if content == 0:
            raise InputError(f"point {i} is the zero vector")
        if next(x for x in ints if x) < 0:
            content = -content
        vector = tuple(x // content for x in ints)
        if vector in vectors:
            raise InputError(
                f"points {vectors.index(vector)} and {i} coincide as projective points"
            )
        vectors.append(vector)
    return tuple(vectors)


def kernel_rank(rows, ncols):
    """Rank by the list kernel alone, on copies, the taller side transposed.

    No certificate of ``linalg.rank_int_rows`` and no node labelling of
    :mod:`nodalic.points` runs, so it checks the fast paths of both.
    """
    if len(rows) > ncols:
        rows, ncols = list(zip(*rows)), len(rows)
    return len(linalg.reduce_int_rows([list(row) for row in rows], ncols))
