"""Byte-identity of every command's output against recorded digests.

Each run of a fixed corpus goes through ``cli.run`` in process, in text
and with ``--json``.  The input documents are written here, from literal
data or from seeded generators that call no nodalic function, into a
temporary directory that is the working directory of the runs, so the
paths in error messages are the same on every machine.
``golden_digests.json`` holds, per run, the sha256 of its stdout, of
its stderr and of its exit code.  The digests were recorded once; a
change that alters an output on purpose must say so and record them
again with :func:`digests`.  ``PYTHONPATH=src python
tests/test_golden.py --add-missing`` records the runs that have no
digest yet, and writes nothing if a recorded one differs.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

from nodalic import cli

GOLDEN = Path(__file__).with_name("golden_digests.json")


def _rational(value):
    value = Fraction(value)
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def _unimodular(rng, m):
    """A random integer matrix of determinant 1 and its integer inverse."""
    change = [[int(i == j) for j in range(m)] for i in range(m)]
    inverse = [list(row) for row in change]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-2, -1, 1, 2))
        # change <- E change, inverse <- inverse E^-1 for E = I + c e_i e_j^T
        change[i] = [a + c * b for a, b in zip(change[i], change[j])]
        for row in inverse:
            row[j] -= c * row[i]
    return change, inverse


def _symplectic_pairing(change, q):
    """q * P^T J P for P = ``change`` and the standard symplectic J.

    Row a of JP is row a + 1 of P for even a and minus row a - 1 for odd
    a, so JP takes row swaps and signs, and P^T (JP) one int product.
    """
    jp = []
    for a in range(0, len(change), 2):
        jp += [change[a + 1], [-x for x in change[a]]]
    return [
        [q * sum(map(mul, column, other)) for other in zip(*jp)]
        for column in zip(*change)
    ]


def stalk_document(rng, m, delta, s):
    """Valid monodromy document: ``delta`` orthogonal cycles spanning s.

    The pairing is q * P^T J P for the standard symplectic J, a random
    unimodular P and a random rational q.  The cycles are rational
    multiples of P^-1 u for u in an s-dimensional subspace of the
    Lagrangian of the even basis vectors; the subspace has an echelon
    basis, whose vectors come first before the list is shuffled.
    """
    change, inverse = _unimodular(rng, m)
    q = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
    pairing = _symplectic_pairing(change, q)
    basis = []
    for t in range(s):
        u = [0] * m
        u[2 * t] = rng.choice((-2, -1, 1, 2))
        for i in range(2 * t + 2, m, 2):
            u[i] = rng.randint(-2, 2)
        basis.append(u)
    upstairs = list(basis)
    while len(upstairs) < delta:
        weights = [rng.randint(-2, 2) for _ in range(s)]
        if any(weights):
            upstairs.append([sum(w * b[i] for w, b in zip(weights, basis)) for i in range(m)])
    rng.shuffle(upstairs)
    cycles = []
    for u in upstairs:
        c = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        cycles.append([_rational(c * sum(r * x for r, x in zip(row, u))) for row in inverse])
    return {
        "dim": m,
        "pairing": [[_rational(x) for x in row] for row in pairing],
        "cycles": cycles,
        "h_ambient": rng.randint(0, 5),
    }


# the ic-stalk shapes (m, delta, s) of the small-mixed benchmark workload
SMALL_MIXED_SHAPES = (
    (2, 1, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2), (6, 3, 1), (6, 3, 2),
    (6, 3, 3), (6, 4, 1), (6, 4, 2), (6, 4, 3), (10, 6, 3),
)

# each aimed at one FAIL_* name; ic-stalk reports the first failure
# validate finds.  "commuting" has logs that do not commute under a
# symmetric pairing, and reports the skewness failure.
FAILING_DOCUMENTS = {
    "skew": {"dim": 2, "pairing": [[1, 0], [0, 1]], "cycles": [[1, 0]], "h_ambient": 0},
    "degenerate": {"dim": 2, "pairing": [[0, 0], [0, 0]], "cycles": [[1, 0]], "h_ambient": 1},
    "zero-cycle": {"dim": 2, "pairing": [[0, 1], [-1, 0]], "cycles": [[0, "0/3"]], "h_ambient": 0},
    "orthogonality": {
        "dim": 2, "pairing": [[0, 1], [-1, 0]], "cycles": [[1, 0], [0, 1]], "h_ambient": 0,
    },
    "commuting": {
        "dim": 2, "pairing": [[1, 0], [0, 1]], "cycles": [[1, 0], [1, 1]], "h_ambient": 0,
    },
}

_PLANE = {"dim": 2, "pairing": [[0, 1], [-1, 0]], "cycles": [[1, 0]], "h_ambient": 0}

# one per message of the monodromy reader: the document's shape, each
# count and its range, and the two literals parse_rational_pair refuses
MALFORMED_DOCUMENTS = {
    "missing-keys": {"dim": 2, "pairing": [[0, 1], [-1, 0]]},
    "ragged": {"dim": 2, "pairing": [[0, 1], [-1]], "cycles": [], "h_ambient": 0},
    "not-object": [_PLANE],
    "pairing-not-array": {**_PLANE, "pairing": 5},
    "row-not-array": {**_PLANE, "pairing": [[0, 1], 5]},
    "cycles-not-array": {**_PLANE, "cycles": {"0": [1, 0]}},
    "cycle-not-array": {**_PLANE, "cycles": [[1, 0], 3]},
    "dim-string": {**_PLANE, "dim": "2"},
    "h-ambient-negative": {**_PLANE, "h_ambient": -1},
    "fiber-dim-even": {**_PLANE, "fiber_dim": 2},
    "fiber-dim-zero": {**_PLANE, "fiber_dim": 0},
    "too-few-rows": {**_PLANE, "pairing": [[0, 1]]},
    "cycle-length": {**_PLANE, "cycles": [[1, 0, 0]]},
    "zero-denominator": {**_PLANE, "pairing": [[0, "1/0"], [-1, 0]]},
    "float-literal": {**_PLANE, "pairing": [[0, 0.5], [-0.5, 0]]},
}


def _grid(axes):
    return [[_rational(c) for c in choice] + [1] for choice in product(*axes)]


def point_documents(rng):
    """Point sets: complete, partial and off-grid, at infinity and on the line.

    The complete grids include ones with 0 as an axis value, with points
    at infinity mixed in, with more values per axis than the degree, in
    four dimensions and with one constant axis.
    """
    complete = _grid([[Fraction(1, 2), -3, Fraction(5, 3)], [2, Fraction(-7, 2), 0]])
    partial = _grid([[1, 2, Fraction(-1, 3)], [0, 4, -1], [Fraction(3, 2), 5, -2]])
    rng.shuffle(partial)
    off_grid = []
    while len(off_grid) < 8:
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)] + [1]
        if point not in off_grid:
            off_grid.append(point)
    infinity = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -2, 0], ["1/2", 3, 1], [2, 2, 1]]
    line = [[1, 0], [0, 1], [1, 1], [-2, 3], ["5/2", 1], [7, -1]]
    # the edges of the Newton support, drawn from their own generator so
    # that the draws above stay as recorded: zero axis values, points at
    # infinity, more values per axis than the degree, four dimensions,
    # and a partial grid whose Newton rows share lead columns at degree 4
    # (at degrees 2 and 3 their leads are distinct)
    edges = random.Random(1701)
    zero_axis = _grid([[0, 2, Fraction(-1, 2)], [Fraction(3, 4), 0, -5]])
    mixed_infinity = _grid([[1, Fraction(-2, 3), 4], [0, 3, Fraction(1, 2)]])
    mixed_infinity += [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, -1, 0], ["-3/2", 1, 0]]
    edges.shuffle(mixed_infinity)
    wide = _grid([[Fraction(j, 2) for j in (-5, -3, -1, 1, 3, 5)], [-2, 0, 1, 3, 7, Fraction(9, 4)]])
    four_dim = _grid([[0, 1, Fraction(-1, 2)], [2, -3], [Fraction(1, 3), 1], [-1, 0, 4]])
    colliding = _grid([[1, Fraction(-2, 3), 3, 0], [Fraction(5, 2), -1, 2, 4]])
    edges.shuffle(colliding)
    # sets whose degree-1 Newton rows (x_h and each axis's first factor)
    # vanish or share lead columns: every point at infinity, a P^3 grid
    # with one constant axis, and points on a line in P^3
    leads = random.Random(1901)
    only_infinity = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, -1, 0], ["-3/2", 1, 0], [5, "1/3", 0]]
    leads.shuffle(only_infinity)
    constant_axis = _grid([[0, Fraction(1, 2), -2], [Fraction(-7, 3)], [3, -1, Fraction(5, 4)]])
    leads.shuffle(constant_axis)
    collinear = [
        [_rational(1 + 2 * t), _rational(3 - t), _rational(5 * t), 1]
        for t in (0, 1, -1, Fraction(1, 2), 3, Fraction(-4, 3))
    ]
    # three points in P^200: degree 1 is within MAX_MONOMIALS (201
    # monomials), degree 2 is not (20301)
    wide_space = random.Random(2001)
    far = [
        [_rational(Fraction(wide_space.randint(-9, 9), wide_space.randint(1, 3))) for _ in range(201)]
        for _ in range(3)
    ]
    # many coordinates at degrees 2 to 4: seven off-grid points of P^12,
    # whose support masks share a lead so that the Newton rows are
    # ranked, and a partial grid in P^6 with three constant axes
    many = random.Random(2101)
    off_grid_p12 = [
        [_rational(Fraction(many.randint(-99, 99), many.randint(1, 9))) for _ in range(12)] + [1]
        for _ in range(7)
    ]
    constant_axes = _grid([
        [0, Fraction(1, 2), -2], [3], [1, Fraction(-4, 3)], [Fraction(5, 4)], [0, 2, -1], [-7],
    ])
    many.shuffle(constant_axes)
    # few points in a huge ambient space, read and ranked at the cost of
    # reading them: three points of P^2000 and four of P^20000, where
    # degree 1 passes MAX_MONOMIALS (2001 monomials) and fails it (20001)
    huge = random.Random(2201)
    few_p2000, few_p20000 = (
        [
            [_rational(Fraction(huge.randint(-9, 9), huge.randint(1, 3))) for _ in range(n + 1)]
            for _ in range(delta)
        ]
        for n, delta in ((2000, 3), (20000, 4))
    )
    # twelve points of P^3 with no repeated ratio: no certificate applies,
    # degree 1 eliminates the 12x4 coordinate matrix, degree 2 the wide
    # 10x12 monomial rows and degree 3 the tall 20x12 ones
    generic = random.Random(2501)
    pool = [Fraction(p, q) for p in range(-40, 41) for q in (1, 2, 3) if p % q or q == 1]
    twelve_generic = [
        [_rational(x) for x in column] + [1]
        for column in zip(*(generic.sample(pool, 12) for _ in range(3)))
    ]
    return {
        "complete-grid": ({"ambient_dim": 2, "points": complete}, (0, 1, 2, 3)),
        "partial-grid": ({"ambient_dim": 3, "points": partial[:20]}, (0, 2, 3)),
        "off-grid": (
            {"ambient_dim": 2, "points": [[_rational(c) for c in p] for p in off_grid]},
            (0, 2, 3),
        ),
        "infinity": ({"ambient_dim": 2, "points": infinity}, (0, 1, 2)),
        "line": ({"ambient_dim": 1, "points": line}, (0, 2, 6)),
        "too-many-monomials": ({"ambient_dim": 2, "points": infinity}, (0, 400)),
        "zero-axis-grid": ({"ambient_dim": 2, "points": zero_axis}, (0, 1, 2, 3)),
        "grid-with-infinity": ({"ambient_dim": 2, "points": mixed_infinity}, (0, 2, 3, 4)),
        "wide-axis-grid": ({"ambient_dim": 2, "points": wide}, (0, 2, 3, 4)),
        "four-dimensional-grid": ({"ambient_dim": 4, "points": four_dim}, (0, 1, 2, 3)),
        "colliding-partial-grid": ({"ambient_dim": 2, "points": colliding[:11]}, (0, 2, 3, 4)),
        "only-infinity": ({"ambient_dim": 2, "points": only_infinity}, (0, 1, 2, 3)),
        "constant-axis-grid": ({"ambient_dim": 3, "points": constant_axis}, (0, 1, 2, 3)),
        "collinear-in-space": ({"ambient_dim": 3, "points": collinear}, (0, 1, 2, 3)),
        "three-in-p200": ({"ambient_dim": 200, "points": far}, (0, 1, 2)),
        "seven-off-grid-in-p12": ({"ambient_dim": 12, "points": off_grid_p12}, (2, 3)),
        "constant-axes-partial-grid": (
            {"ambient_dim": 6, "points": constant_axes[:13]}, (2, 3, 4),
        ),
        "three-in-p2000": ({"ambient_dim": 2000, "points": few_p2000}, (0, 1)),
        "four-in-p20000": ({"ambient_dim": 20000, "points": few_p20000}, (0, 1)),
        "twelve-generic-in-p3": ({"ambient_dim": 3, "points": twelve_generic}, (0, 1, 2, 3)),
    }


def _spelling(value, rng):
    """One literal for ``value``: a bare int, its string, or an unreduced fraction."""
    value = Fraction(value)
    m = rng.choice((1, 2, 3, 7))
    spellings = [f"{value.numerator * m}/{value.denominator * m}"]
    if value.denominator == 1:
        spellings += [value.numerator, str(value.numerator)]
    return rng.choice(spellings)


def ingest_documents():
    """Point sets that exercise reading a document, and its error order.

    Drawn from their own generator, so that the documents above stay as
    recorded: literals written unreduced ("2/4", "-6/3") or as both 1
    and "1", every point rescaled so that leads are negative or zero,
    points at infinity, an empty set, literals near the interpreter's
    digit limit, and one document per pair of point errors whose order
    is fixed (a zero vector, a short point, a repeated point, a point
    that is not an array and a bad literal).
    """
    rng = random.Random(1801)
    factors = (-3, -1, Fraction(-1, 2), Fraction(1, 3), 1, 2)

    def rescaled(point):
        factor = rng.choice(factors)
        return [_spelling(factor * Fraction(x), rng) for x in point]

    axes = [[0, Fraction(1, 2), -2, 3], [Fraction(-2, 3), 0, 1, Fraction(5, 4)]]
    unreduced = [rescaled(point) for point in _grid(axes)]
    rng.shuffle(unreduced)
    ones = [[1, "1", 1], ["1", 2, 1], [1, 3, "1"], [0, "1", 1], ["2/4", "-6/3", 1], [-1, "-1", 2]]
    at_infinity = [[1, 0, 0], [0, 1, 0], [1, -1, 0], ["-1/3", 2, 0], [5, 3, 0]]
    at_infinity += [rescaled(point) for point in _grid([[-1, 0, 2], [3, Fraction(1, 2)]])]
    rng.shuffle(at_infinity)
    long = int("7" * 4290)
    digits = [
        [long, 1, 1],
        [1, f"{'3' * 4300}/{'1' * 4300}", 1],
        [f"-{'9' * 4299}", 0, 2],
        [1, 2, -long],
        ["1/2", 1, 1],
    ]
    short, zero = [1, 2], [0, "0/5", 0]
    errors = {
        "zero-before-short": [[1, 2, 3], zero, [1, 1, 1], short],
        "duplicate-before-zero": [[1, 2, 3], [4, 5, 6], ["2/2", "4/2", 3], [7, 8, 9], zero],
        "short-before-duplicate": [[1, 2, 3], short, [-2, -4, "-6"]],
        "literal-after-non-array": [[1, 2, 3], 5, [1, 1.5, 1]],
        "literal-before-non-array": [[1, "x", 1], "abc", [1, 2, 3]],
        "too-many-digits": [[1, 2, 3], [1, "1/" + "1" * 4301, 1]],
    }
    out = {
        "unreduced": ({"ambient_dim": 2, "points": unreduced}, (1, 2, 3)),
        "ones": ({"ambient_dim": 2, "points": ones}, (1, 2)),
        "at-infinity": ({"ambient_dim": 2, "points": at_infinity}, (1, 2, 3)),
        "empty": ({"ambient_dim": 2, "points": []}, (0, 2)),
        "digit-limit": ({"ambient_dim": 2, "points": digits}, (1, 2)),
    }
    out.update((name, ({"ambient_dim": 2, "points": doc}, (2,))) for name, doc in errors.items())
    return out


KOSZUL_RESOLUTION = {
    "ambient_dim": 2,
    "resolved_twist": 0,
    "terms": [[{"mult": 2, "twist": -2}], [{"mult": 1, "twist": -4}]],
}

# point-set documents the reader refuses by their shape, each run at
# degree 2
POINT_SHAPE_DOCUMENTS = {
    "not-object": [[1, 0]],
    "extra-key": {"ambient_dim": 1, "points": [[1, 0]], "note": 1},
    "points-not-array": {"ambient_dim": 1, "points": {"0": [1, 0]}},
    "ambient-dim-zero": {"ambient_dim": 0, "points": [[1]]},
}


def _terms(*terms):
    return [[{"twist": a, "mult": r} for a, r in term] for term in terms]


# resolution documents and the twist each is chased at: one per message
# of the reader, and two chases whose exact h1 is 0 by the branches no
# other run takes, a zero bound with a failed splice and a resolution
# longer than the ambient dimension
RESOLUTION_DOCUMENTS = {
    "not-object": ([KOSZUL_RESOLUTION], 0),
    "extra-key": ({**KOSZUL_RESOLUTION, "note": 1}, 0),
    "no-terms": ({**KOSZUL_RESOLUTION, "terms": []}, 0),
    "empty-sum": ({**KOSZUL_RESOLUTION, "terms": [[]]}, 0),
    "summand-keys": ({**KOSZUL_RESOLUTION, "terms": [[{"twist": 0}]]}, 0),
    "zero-bound-unspliced": (
        {"ambient_dim": 2, "resolved_twist": 0, "terms": _terms([(-3, 1)], [(0, 1)])}, 0,
    ),
    "longer-than-n": (
        {
            "ambient_dim": 2,
            "resolved_twist": 0,
            "terms": _terms([(-1, 3)], [(-2, 3)], [(-3, 1)]),
        },
        0,
    ),
}

# documents that cannot be read as JSON text, each run as a points input
UNREADABLE_DOCUMENTS = {
    "not-utf8": b"\xff\xfe{}",
    "too-deep": "[" * 100000,
}

PLAIN_RUNS = {
    "koszul": ["koszul", "--n", "2", "--degrees", "2,2"],
    "koszul-twist": ["koszul", "--n", "3", "--degrees", "2,3,2", "--twist", "4"],
    "koszul-oversized": ["koszul", "--n", "2", "--degrees", "1000000,1"],
    "koszul-bad-degrees": ["koszul", "--n", "2", "--degrees", "2,x"],
    "koszul-no-degrees": ["koszul", "--n", "2", "--degrees", ","],
    "koszul-too-many-degrees": ["koszul", "--n", "2", "--degrees", "2,2,2"],
    # degrees 1..140: a count of about 7e7 word updates
    "koszul-too-much-work": [
        "koszul", "--n", "140", "--degrees", ",".join(map(str, range(1, 141))),
    ],
    "eagon-northcott": ["eagon-northcott", "--n", "3", "--quadrics", "2"],
    "eagon-northcott-twist": ["eagon-northcott", "--n", "4", "--quadrics", "3", "--twist", "2"],
    # a first multiplicity near h^2 / 2 for h = 10^3000, past MAX_REPORTED_BITS
    "eagon-northcott-unreportable": ["eagon-northcott", "--n", "3", "--quadrics", "1" + "0" * 3000],
    "grid": ["grid", "--n", "2", "--k", "4"],
    "grid-line": ["grid", "--n", "1", "--k", "2"],
    "grid-long-line": ["grid", "--n", "1", "--k", "9"],
    "grid-plane": ["grid", "--n", "2", "--k", "6"],
    "grid-solid": ["grid", "--n", "3", "--k", "3"],
    "grid-four": ["grid", "--n", "4", "--k", "4"],
    "grid-oversized": ["grid", "--n", "30", "--k", "30"],
    # n + 1 alone passes MAX_GRID_COORDINATES
    "grid-wide-space": ["grid", "--n", "100000", "--k", "2"],
    "grid-out": ["grid", "--n", "1", "--k", "3", "--out", "grid-report.json"],
    "grid-out-unwritable": ["grid", "--n", "1", "--k", "3", "--out", "no-such-directory/report.json"],
    "read-missing": ["points", "--input", "missing.json", "--degree", "2"],
    "paper-examples-defaults": ["paper-examples"],
    "paper-examples-small": [
        "paper-examples", "--max-n", "3", "--max-k", "5", "--max-h", "3", "--grid-cap", "64",
    ],
    "paper-examples-no-grid": [
        "paper-examples", "--max-n", "2", "--max-k", "3", "--max-h", "1", "--grid-cap", "0",
    ],
}


# command lines the top-level parser reads, because they do not start
# with a command name, and ones a command's own parser refuses; {points}
# and {stalk} stand for documents of the corpus
ARGV_RUNS = {
    "argv-empty": [],
    "argv-unknown-command": ["pointz", "--input", "{points}", "--degree", "2"],
    "argv-double-dash-first": ["--", "points", "--input", "{points}", "--degree", "2"],
    "argv-json-first": ["--json", "points", "--input", "{points}", "--degree", "2"],
    "argv-trailing-extra": ["points", "--input", "{points}", "--degree", "2", "extra"],
    "argv-missing-degree": ["points", "--input", "{points}"],
    "argv-degree-not-int": ["points", "--input", "{points}", "--degree", "x"],
    "argv-sign-out-of-range": ["ic-stalk", "--input", "{stalk}", "--sign", "2"],
    "argv-abbreviated-flags": ["points", "--inp", "{points}", "--deg", "2"],
    "argv-input-equals": ["points", "--input={points}", "--degree", "2"],
}


def corpus(directory):
    """``{name: argv}`` of every run, its documents written to ``directory``.

    The argv name documents by their file name alone; the runs must have
    ``directory`` as their working directory.
    """
    directory = Path(directory)

    def write(name, doc):
        path = directory / name
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return name

    rng = random.Random(1501)
    stalks = {}
    for draw in range(3):
        for m, delta, s in SMALL_MIXED_SHAPES:
            stalks[f"stalk-{draw}-{m}-{delta}-{s}"] = stalk_document(rng, m, delta, s)
    stalks["stalk-forty-nodes"] = stalk_document(rng, 8, 40, 4)
    # delta = 0: the complex is the fiber alone, with no differential
    stalks["stalk-no-cycles"] = {
        "dim": 4,
        "pairing": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        "cycles": [],
        "h_ambient": 1,
    }
    # its own generator, so the draws above and below stay as recorded
    stalks["stalk-dense-40"] = stalk_document(random.Random(1601), 40, 20, 12)
    # the edges of the two-term complex: no fiber cohomology at all, two
    # coincident cycles (the README example) and more nodes than dimensions
    stalks["stalk-dim-zero"] = {"dim": 0, "pairing": [], "cycles": [], "h_ambient": 0}
    stalks["stalk-coincident"] = {
        "dim": 4,
        "pairing": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        "cycles": [[1, 0, 0, 0], [1, 0, 0, 0]],
        "h_ambient": 1,
    }
    stalks["stalk-twelve-proportional"] = {
        "dim": 2,
        "pairing": [[0, 1], [-1, 0]],
        "cycles": [
            [c, 0] for c in (1, -1, 2, "1/2", -3, "2/3", 5, "-7/4", 6, "3/5", -8, "9/2")
        ],
        "h_ambient": 2,
    }
    # the optional fiber dimension, odd as it must be
    stalks["stalk-fiber-dim"] = {**_PLANE, "fiber_dim": 3}
    stalks.update((f"fail-{k}", doc) for k, doc in FAILING_DOCUMENTS.items())
    stalks.update((f"malformed-{k}", doc) for k, doc in MALFORMED_DOCUMENTS.items())
    stalks["malformed-json"] = '{"dim": 2, "pairing": '

    runs = {}
    for name, doc in stalks.items():
        path = write(f"{name}.json", doc)
        for sign in ("-1", "1"):
            runs[f"ic-stalk {name} sign {sign}"] = ["ic-stalk", "--input", path, "--sign", sign]
    for name, (doc, degrees) in point_documents(rng).items():
        path = write(f"points-{name}.json", doc)
        for d in degrees:
            runs[f"points {name} degree {d}"] = ["points", "--input", path, "--degree", str(d)]
    for name, (doc, degrees) in ingest_documents().items():
        path = write(f"ingest-{name}.json", doc)
        for d in degrees:
            argv = ["points", "--input", path, "--degree", str(d)]
            runs[f"points ingest-{name} degree {d}"] = argv
    path = write("resolution.json", KOSZUL_RESOLUTION)
    for twist in ("2", "5", "-1", "2000000"):
        runs[f"chase twist {twist}"] = ["chase", "--input", path, "--twist", twist]
    for name, (doc, twist) in RESOLUTION_DOCUMENTS.items():
        path = write(f"resolution-{name}.json", doc)
        runs[f"chase {name}"] = ["chase", "--input", path, "--twist", str(twist)]
    for name, doc in POINT_SHAPE_DOCUMENTS.items():
        path = write(f"points-shape-{name}.json", doc)
        runs[f"points shape-{name}"] = ["points", "--input", path, "--degree", "2"]
    for name, doc in UNREADABLE_DOCUMENTS.items():
        path = write(f"unreadable-{name}.json", doc)
        runs[f"points unreadable-{name}"] = ["points", "--input", path, "--degree", "2"]
    runs.update(PLAIN_RUNS)
    documents = {"points": "points-complete-grid.json", "stalk": "stalk-coincident.json"}
    for name, argv in ARGV_RUNS.items():
        runs[name] = [arg.format(**documents) for arg in argv]
    out = {}
    for name, argv in runs.items():
        out[f"{name} text"] = argv
        out[f"{name} json"] = argv + ["--json"]
    return out


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(directory):
    """``{name: {"stdout", "stderr", "exit"}}`` sha256 digests of every run.

    Call it with a fresh directory as the working directory, as the
    test does.
    """
    out = {}
    for name, argv in corpus(directory).items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(argv)
        out[name] = {
            "stdout": _sha(stdout.getvalue()),
            "stderr": _sha(stderr.getvalue()),
            "exit": _sha(str(code)),
        }
    return out


def test_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    computed = digests(tmp_path)
    assert sorted(computed) == sorted(recorded)
    changed = [name for name in computed if computed[name] != recorded[name]]
    assert not changed, f"{len(changed)} runs changed output, first: {changed[:5]}"


def test_stalk_pairing_matches_the_summed_formula(monkeypatch):
    """The row-swap pairing gives the documents the O(m^4) sum gave."""

    def summed(change, q):
        m = len(change)
        form = [[0] * m for _ in range(m)]
        for i in range(0, m, 2):
            form[i][i + 1], form[i + 1][i] = 1, -1
        return [
            [
                q * sum(change[a][i] * form[a][b] * change[b][j] for a in range(m) for b in range(m))
                for j in range(m)
            ]
            for i in range(m)
        ]

    for m, delta, s in ((8, 5, 3), (20, 12, 6)):
        for seed in range(3):
            swapped = stalk_document(random.Random(seed), m, delta, s)
            with monkeypatch.context() as patch:
                patch.setattr(sys.modules[__name__], "_symplectic_pairing", summed)
                assert stalk_document(random.Random(seed), m, delta, s) == swapped


def add_missing():
    """Record digests for the corpus runs that have none; return the exit code.

    Every recorded digest is computed again first.  If one differs, or
    names a run the corpus no longer has, nothing is written and the
    code is 1, so a changed output is never recorded by accident.
    """
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        # the runs name their documents relative to the directory
        os.chdir(directory)
        try:
            computed = digests(directory)
        finally:
            os.chdir(cwd)
    stale = sorted(set(recorded) - set(computed))
    both = set(recorded) & set(computed)
    changed = sorted(name for name in both if computed[name] != recorded[name])
    for name in stale:
        print(f"recorded run not in the corpus: {name}", file=sys.stderr)
    for name in changed:
        print(f"output changed: {name}", file=sys.stderr)
    if stale or changed:
        print("nothing written", file=sys.stderr)
        return 1
    missing = sorted(set(computed) - set(recorded))
    recorded.update((name, computed[name]) for name in missing)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name in missing:
        print(f"added: {name}")
    print(f"added {len(missing)} digests")
    return 0


def test_add_missing_records_only_new_runs(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden.json"
    old = {"stdout": "a", "stderr": "b", "exit": "c"}
    new = {"stdout": "d", "stderr": "e", "exit": "f"}
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    monkeypatch.setattr(sys.modules[__name__], "digests", lambda _: {"old": old, "new": new})
    golden.write_text(json.dumps({"old": old}), encoding="utf-8")
    assert add_missing() == 0
    assert json.loads(golden.read_text(encoding="utf-8")) == {"new": new, "old": old}
    # one line names each added run
    assert capsys.readouterr().out == "added: new\nadded 1 digests\n"
    # a changed or stale digest writes nothing
    for recorded in ({"old": new}, {"old": old, "gone": old}):
        golden.write_text(json.dumps(recorded), encoding="utf-8")
        assert add_missing() == 1
        assert json.loads(golden.read_text(encoding="utf-8")) == recorded


if __name__ == "__main__":
    if sys.argv[1:] != ["--add-missing"]:
        print("usage: python tests/test_golden.py --add-missing", file=sys.stderr)
        sys.exit(2)
    sys.exit(add_missing())
