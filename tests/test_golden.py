"""Byte-identity of every command's output against recorded digests.

Each run of a fixed corpus goes through ``cli.run`` in process, in text
and with ``--json``.  The input documents are written here, from literal
data or from seeded generators that call no nodalic function, into a
temporary directory that is the working directory of the runs, so the
paths in error messages are the same on every machine.
``golden_digests.json`` holds, per run, the sha256 of its stdout, of
its stderr and of its exit code.  The digests were recorded once; a
change that alters an output on purpose must say so and record them
again with :func:`digests`.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import product
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


def stalk_document(rng, m, delta, s):
    """Valid monodromy document: ``delta`` orthogonal cycles spanning s.

    The pairing is q * P^T J P for the standard symplectic J, a random
    unimodular P and a random rational q.  The cycles are rational
    multiples of P^-1 u for u in an s-dimensional subspace of the
    Lagrangian of the even basis vectors; the subspace has an echelon
    basis, whose vectors come first before the list is shuffled.
    """
    change, inverse = _unimodular(rng, m)
    form = [[0] * m for _ in range(m)]
    for i in range(0, m, 2):
        form[i][i + 1], form[i + 1][i] = 1, -1
    q = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
    pairing = [
        [
            q * sum(change[a][i] * form[a][b] * change[b][j] for a in range(m) for b in range(m))
            for j in range(m)
        ]
        for i in range(m)
    ]
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

MALFORMED_DOCUMENTS = {
    "missing-keys": {"dim": 2, "pairing": [[0, 1], [-1, 0]]},
    "ragged": {"dim": 2, "pairing": [[0, 1], [-1]], "cycles": [], "h_ambient": 0},
}


def _grid(axes):
    return [[_rational(c) for c in choice] + [1] for choice in product(*axes)]


def point_documents(rng):
    """Point sets: complete, partial and off-grid, at infinity and on the line."""
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
    return {
        "complete-grid": ({"ambient_dim": 2, "points": complete}, (1, 2, 3)),
        "partial-grid": ({"ambient_dim": 3, "points": partial[:20]}, (2, 3)),
        "off-grid": (
            {"ambient_dim": 2, "points": [[_rational(c) for c in p] for p in off_grid]},
            (2, 3),
        ),
        "infinity": ({"ambient_dim": 2, "points": infinity}, (1, 2)),
        "line": ({"ambient_dim": 1, "points": line}, (2, 6)),
        "too-many-monomials": ({"ambient_dim": 2, "points": infinity}, (400,)),
    }


KOSZUL_RESOLUTION = {
    "ambient_dim": 2,
    "resolved_twist": 0,
    "terms": [[{"mult": 2, "twist": -2}], [{"mult": 1, "twist": -4}]],
}

PLAIN_RUNS = {
    "koszul": ["koszul", "--n", "2", "--degrees", "2,2"],
    "koszul-twist": ["koszul", "--n", "3", "--degrees", "2,3,2", "--twist", "4"],
    "koszul-oversized": ["koszul", "--n", "2", "--degrees", "1000000,1"],
    "koszul-bad-degrees": ["koszul", "--n", "2", "--degrees", "2,x"],
    "eagon-northcott": ["eagon-northcott", "--n", "3", "--quadrics", "2"],
    "eagon-northcott-twist": ["eagon-northcott", "--n", "4", "--quadrics", "3", "--twist", "2"],
    "grid": ["grid", "--n", "2", "--k", "4"],
    "grid-oversized": ["grid", "--n", "30", "--k", "30"],
    "paper-examples-defaults": ["paper-examples"],
    "paper-examples-small": [
        "paper-examples", "--max-n", "3", "--max-k", "5", "--max-h", "3", "--grid-cap", "64",
    ],
    "paper-examples-no-grid": [
        "paper-examples", "--max-n", "2", "--max-k", "3", "--max-h", "1", "--grid-cap", "0",
    ],
}


def corpus(directory):
    """``{name: argv}`` of every run, its documents written to ``directory``.

    The argv name documents by their file name alone; the runs must have
    ``directory`` as their working directory.
    """
    directory = Path(directory)

    def write(name, doc):
        path = directory / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return name

    rng = random.Random(1501)
    stalks = {}
    for draw in range(3):
        for m, delta, s in SMALL_MIXED_SHAPES:
            stalks[f"stalk-{draw}-{m}-{delta}-{s}"] = stalk_document(rng, m, delta, s)
    stalks["stalk-forty-nodes"] = stalk_document(rng, 8, 40, 4)
    # delta = 0: the complex is the identity summand alone
    stalks["stalk-no-cycles"] = {
        "dim": 4,
        "pairing": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        "cycles": [],
        "h_ambient": 1,
    }
    # its own generator, so the draws above and below stay as recorded
    stalks["stalk-dense-40"] = stalk_document(random.Random(1601), 40, 20, 12)
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
    path = write("resolution.json", KOSZUL_RESOLUTION)
    for twist in ("2", "5", "-1", "2000000"):
        runs[f"chase twist {twist}"] = ["chase", "--input", path, "--twist", twist]
    runs.update(PLAIN_RUNS)
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

