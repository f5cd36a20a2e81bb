"""Independent answers for every report the benchmark requests.

Nothing here imports ``nodalic``: each expected value comes from a closed
form or from the construction of the input, so a wrong report from the
code under test cannot also make its own check pass.

- Grid ranks: the degree-d evaluation rank of a product grid with k-1
  values per axis is the Hilbert count #{a in [0, k-2]^n : |a| <= d},
  the number of standard monomials of the grid ideal (Alon,
  Combinatorial Nullstellensatz, 1999).
- Stalk reports: cycles drawn from an isotropic span of dimension s give
  h0 = m - s and h1 = delta - s, with every higher degree zero.
- Chase verdicts: the tables of acceptance criteria 1 and 2.
"""

from fractions import Fraction
from math import comb

# Acceptance criterion 1: the Koszul chase of the (k-1)^n grid nodes at
# twist k vanishes exactly on these (n, k), for 2 <= n <= 6, 2 <= k <= 8.
CI_VANISHING = frozenset({
    (2, 2), (2, 3), (2, 4),
    (3, 2), (3, 3),
    (4, 2), (5, 2), (6, 2),
})
CI_RANGE = (range(2, 7), range(2, 9))

# Acceptance criterion 2: the Eagon-Northcott chase at twist 2 vanishes
# exactly for h in {1, 2}, for 2 <= n <= 5, 1 <= h <= 6.
EN_VANISHING_H = frozenset({1, 2})
EN_RANGE = (range(2, 6), range(1, 7))


def hilbert_count(n, k, d):
    """#{a in [0, k-2]^n : a_1 + ... + a_n <= d}."""
    ways = [1] + [0] * d  # ways[t]: exponent vectors so far with sum t
    for _ in range(n):
        ways = [
            sum(ways[t - e] for e in range(min(t, k - 2) + 1))
            for t in range(d + 1)
        ]
    return sum(ways)


def grid_points_report(n, k, d):
    """Expected ``points --json`` report for a product grid in P^n.

    Every axis has k-1 >= 2 values, so the points span P^n: the
    coordinate matrix has rank n+1, which is below the point count.
    """
    delta = (k - 1) ** n
    width = comb(n + d, n)
    rank = hilbert_count(n, k, d)
    return {
        "conditions": {
            "delta": delta,
            "degree": d,
            "h0_ambient": width,
            "rank": rank,
            "h0_ideal": width - rank,
            "h1_ideal": delta - rank,
            "independent": rank == delta,
        },
        "node_span_dim": n,
        "normal_crossing": {
            "independent_branches": delta == n + 1,
            "tangent_intersection_dim": -1,
        },
    }


def stalk_report(m, delta, s, h_ambient):
    """Expected ``ic-stalk --json`` report for cycles of span dimension s."""
    h1 = delta - s
    return {
        "h0": m - s,
        "h1": h1,
        "higher": [0] * (delta - 1),
        "span_dim": s,
        "excision_rank": s,
        "h_top_singular": h_ambient + h1,
        "defect": h1,
        "filtration": [h1, h_ambient],
    }


def koszul_resolution(n, k):
    """Koszul resolution of n forms of degree k-1: O(-p(k-1))^C(n,p)."""
    return {
        "ambient_dim": n,
        "resolved_twist": 0,
        "terms": [
            [{"twist": -p * (k - 1), "mult": comb(n, p)}] for p in range(1, n + 1)
        ],
    }


def check_ci_verdict(verdict, n, k):
    """Mismatch text for a chase of the (k-1)^n grid at twist k, or None.

    On the plane the chase also certifies the exact h1, which must equal
    the grid deficiency (k-1)^2 - hilbert_count(2, k, k).
    """
    vanishes = (n, k) in CI_VANISHING
    if verdict.get("vanishes") is not vanishes:
        return f"vanishes {verdict.get('vanishes')!r}, expected {vanishes}"
    if n == 2:
        h1 = (k - 1) ** 2 - hilbert_count(2, k, k)
        if verdict.get("exact_h1") != h1:
            return f"exact_h1 {verdict.get('exact_h1')!r}, expected {h1}"
    return None


def check_en_report(report, n, h):
    """Mismatch text for ``eagon-northcott --twist 2``, or None."""
    count = comb(n + h, n)
    if report.get("node_count") != count:
        return f"node_count {report.get('node_count')!r}, expected {count}"
    vanishes = h in EN_VANISHING_H
    got = report.get("verdict", {}).get("vanishes")
    if got is not vanishes:
        return f"vanishes {got!r}, expected {vanishes}"
    return None


def rank(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    width = len(work[0]) if work else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def inverse(matrix):
    """Inverse of a square invertible rational matrix (Gauss-Jordan)."""
    m = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
        for i, row in enumerate(matrix)
    ]
    for c in range(m):
        pivot = next(i for i in range(c, m) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = aug[c][c]
        aug[c] = [x / lead for x in aug[c]]
        for i in range(m):
            f = aug[i][c]
            if i != c and f:
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[m:] for row in aug]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def symplectic(m):
    """Standard skew form on Q^m, m even: blocks (0 1 / -1 0)."""
    form = [[0] * m for _ in range(m)]
    for i in range(0, m, 2):
        form[i][i + 1] = 1
        form[i + 1][i] = -1
    return form
