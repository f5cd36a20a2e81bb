"""Seeded input documents and the requests that read them.

A workload is a list of request shapes.  Each *round* draws fresh
random data for every shape, writes the input documents, and returns
the requests in a seeded order; the benchmark replays rounds until its
time is up.  Every request carries the oracle check for its report, so
a request is verified against values fixed when its input was made.

The shapes are fixed per workload and only the data varies with the
seed, so runs with different seeds do the same kind and amount of work.
Within a round the shapes are ordered by cost into a cheap group, a
middle group, an upper group and one request above the rest, sized so
that the median and the tail percentile of the latencies fall well
inside one group instead of on a boundary between two, and neither
jumps between groups from run to run.
"""

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import oracles

# a tail percentile must leave at least this many samples above it
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the check its JSON report must pass.

    ``check`` returns None for a correct report and a one-line reason
    otherwise.
    """

    kind: str
    argv: tuple
    check: Callable


def _equals(expected):
    def check(report):
        if report == expected:
            return None
        return f"report {json.dumps(report, sort_keys=True)} != expected {json.dumps(expected, sort_keys=True)}"

    return check


def _rational(value):
    value = Fraction(value)
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


# Grid parameters: signed rationals p/q whose denominators q cycle through
# 1, 2 and 3 along an axis and whose numerators p are drawn from 5 to 9.
# Every grid of one shape then has entries of about the same bit length
# and costs about the same to reduce, whatever the seed; the data still
# varies in the numerators, the signs and the order of the values.
GRID_NUMERATORS = {1: (7, 8, 9), 2: (5, 7, 9), 3: (5, 7, 8)}
GRID_AXIS_MAX = 9


def grid_axis(rng, count):
    """``count`` distinct signed rationals for one axis of a product grid."""
    if not 1 <= count <= GRID_AXIS_MAX:
        raise ValueError(f"an axis holds 1 to {GRID_AXIS_MAX} values, not {count}")
    denominators = [(1, 2, 3)[i % 3] for i in range(count)]
    values = []
    for q, numerators in GRID_NUMERATORS.items():
        for p in rng.sample(numerators, denominators.count(q)):
            values.append(Fraction(rng.choice((p, -p)), q))
    rng.shuffle(values)
    return values


def grid_request(rng, directory, name, n, k, d):
    """``points --degree d`` on a product grid with k-1 values per axis."""
    axes = [grid_axis(rng, k - 1) for _ in range(n)]
    doc = {
        "ambient_dim": n,
        "points": [[_rational(c) for c in choice] + [1] for choice in product(*axes)],
    }
    path = _write(directory, name, doc)
    return Request(
        "points",
        ("points", "--input", path, "--degree", str(d), "--json"),
        _equals(oracles.grid_points_report(n, k, d)),
    )


def stalk_instance(rng, m, delta, s):
    """Monodromy document with ``delta`` cycles spanning dimension ``s``.

    The pairing is P^T J P for the standard symplectic J and a random
    invertible P with entries in [-2, 2].  The cycles are P^{-1} u for
    vectors u in an s-dimensional subspace of the Lagrangian spanned by
    the first basis vector of each block of J; the first s of them are a
    basis of that subspace, so their span has dimension exactly s, and
    x^T (P^T J P) y = u^T J w = 0 keeps every pair orthogonal.
    """
    if not 1 <= s <= min(delta, m // 2):
        raise ValueError(f"span dimension {s} impossible for m={m}, delta={delta}")
    form = oracles.symplectic(m)
    while True:
        change = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        if oracles.rank(change) == m:
            break
    lagrangian = range(0, m, 2)

    def combination():
        while True:
            coeffs = {i: rng.randint(-2, 2) for i in lagrangian}
            if any(coeffs.values()):
                return [coeffs.get(i, 0) for i in range(m)]

    while True:
        basis = [combination() for _ in range(s)]
        if oracles.rank(basis) == s:
            break
    upstairs = list(basis)
    for _ in range(delta - s):
        while True:
            weights = [rng.randint(-2, 2) for _ in range(s)]
            if any(weights):
                break
        upstairs.append(
            [sum(w * b[i] for w, b in zip(weights, basis)) for i in range(m)]
        )
    rng.shuffle(upstairs)
    inverse = oracles.inverse(change)
    cycles = [[sum(row[j] * u[j] for j in range(m)) for row in inverse] for u in upstairs]
    pairing = oracles.matmul(
        [list(col) for col in zip(*change)], oracles.matmul(form, change)
    )
    return {
        "dim": m,
        "pairing": [[_rational(x) for x in row] for row in pairing],
        "cycles": [[_rational(x) for x in cycle] for cycle in cycles],
        "h_ambient": rng.randint(0, 5),
    }


def stalk_request(rng, directory, name, m, delta, s):
    """``ic-stalk`` on a generated instance whose cycles span dimension s."""
    doc = stalk_instance(rng, m, delta, s)
    path = _write(directory, name, doc)
    return Request(
        "ic-stalk",
        ("ic-stalk", "--input", path, "--json"),
        _equals(oracles.stalk_report(m, delta, s, doc["h_ambient"])),
    )


def koszul_request(rng, directory, name):
    n, k = rng.choice(CI_CELLS)

    def check(report):
        if report.get("resolution") != oracles.koszul_resolution(n, k):
            return f"koszul resolution for n={n}, k={k}: {report.get('resolution')}"
        return oracles.check_ci_verdict(report.get("verdict", {}), n, k)

    degrees = ",".join([str(k - 1)] * n)
    argv = ("koszul", "--n", str(n), "--degrees", degrees, "--twist", str(k), "--json")
    return Request("koszul", argv, check)


def eagon_northcott_request(rng, directory, name):
    n, h = rng.choice(EN_CELLS)
    argv = ("eagon-northcott", "--n", str(n), "--quadrics", str(h), "--twist", "2", "--json")
    return Request("eagon-northcott", argv, lambda report: oracles.check_en_report(report, n, h))


def chase_request(rng, directory, name):
    """``chase --input`` over a Koszul resolution document written here."""
    n, k = rng.choice(CI_CELLS)
    path = _write(directory, name, oracles.koszul_resolution(n, k))
    argv = ("chase", "--input", path, "--twist", str(k), "--json")
    return Request("chase", argv, lambda report: oracles.check_ci_verdict(report, n, k))


CI_CELLS = tuple(product(*oracles.CI_RANGE))
EN_CELLS = tuple(product(*oracles.EN_RANGE))


@dataclass(frozen=True)
class Workload:
    """A named mix of request shapes; BENCHMARK.json says why each was chosen.

    ``shapes`` are callables ``(rng, directory, name) -> Request``.
    ``tail_percentile`` is the percentile reported as the tail; it is
    fixed per workload so that every run reports the same one, and a run
    makes at least ``min_requests`` requests so that ten samples lie
    beyond it.  ``round_seconds`` is the rough cost of one round on a
    2-core x86 machine with the pure-Python kernel; it only sizes the
    traced run, whose request count must not depend on timing.
    """

    name: str
    shapes: tuple
    warmup: tuple
    tail_percentile: float
    round_seconds: float

    @property
    def min_requests(self):
        return math.ceil(TAIL_BEYOND / (1 - self.tail_percentile / 100))

    def make_round(self, rng, directory, round_index):
        requests = [
            shape(rng, directory, f"r{round_index:04d}-{i:02d}.json")
            for i, shape in enumerate(self.shapes)
        ]
        rng.shuffle(requests)
        return requests

    def make_warmup(self, rng, directory):
        return [
            shape(rng, directory, f"warmup-{i:02d}.json")
            for i, shape in enumerate(self.warmup)
        ]


def _grid(n, k, d):
    return lambda rng, directory, name: grid_request(rng, directory, name, n, k, d)


def _stalk(m, delta, s):
    return lambda rng, directory, name: stalk_request(rng, directory, name, m, delta, s)


GRID_POINTS = Workload(
    name="grid-points",
    shapes=(
        # cheap group, 81-125 points
        _grid(4, 4, 3), _grid(4, 4, 4), _grid(2, 10, 9), _grid(3, 6, 5),
        # middle group, 125 points
        *(_grid(3, 6, 6),) * 5,
        # upper group, 216 points
        *(_grid(3, 7, 6),) * 4,
        # the largest matrix, 256 x 126
        _grid(4, 5, 5),
    ),
    warmup=(_grid(2, 4, 3),),
    tail_percentile=75,
    round_seconds=11.0,
)

SMALL_MIXED = Workload(
    name="small-mixed",
    shapes=(
        # cheap group: the chase commands and the smallest documents
        *(koszul_request, eagon_northcott_request, chase_request) * 5,
        _grid(2, 3, 2), _grid(2, 4, 3), _stalk(2, 1, 1), _stalk(4, 2, 1),
        # middle group, holds the median
        *(_grid(3, 3, 3),) * 9,
        # upper group
        *(_grid(2, 5, 4),) * 4,
        _stalk(4, 3, 1), _stalk(4, 3, 2), _stalk(4, 3, 2),
        _stalk(6, 3, 1), _stalk(6, 3, 2), _stalk(6, 3, 3), _stalk(6, 3, 3),
        *(_stalk(6, 4, 1), _stalk(6, 4, 2), _stalk(6, 4, 3)) * 2, _stalk(6, 4, 2),
        # one request per round, four times the cost of the rest: holds the
        # 99th percentile, clear of the others even when the machine slows
        # twofold during a run
        _stalk(10, 6, 3),
    ),
    warmup=(
        koszul_request, eagon_northcott_request, chase_request,
        _grid(2, 3, 2), _stalk(4, 2, 1),
    ),
    tail_percentile=99,
    round_seconds=0.45,
)

WORKLOADS = {w.name: w for w in (GRID_POINTS, SMALL_MIXED)}
