"""Shared builders for the test suite: symplectic forms and random data.

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
    # P is invertible, so the reduced form of [P | I] is [I | P^-1]
    augmented = [row + unit for row, unit in zip(change, linalg.identity(m))]
    inverse = [row[m:] for row in linalg.rref(augmented)[0]]
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
