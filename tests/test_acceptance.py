"""Top-level acceptance checks, one test per criterion.

Each test prints a single pass/fail line (bypassing capture) so a plain
``pytest -v`` run shows the verdicts inline, and enforces its runtime
budget where one is pinned: criteria 1-3 must finish under 1 second,
the randomized suite of criterion 4 under 10 seconds.  All numeric
comparisons are exact; there are no tolerances anywhere.
"""

import contextlib
import io
import json
import random
import time

from nodalic import bott, cli, monodromy, points
from nodalic.errors import InputError

from helpers import random_monodromy_data

EXPECTED_VANISHING_CELLS = {
    (2, 2), (2, 3), (2, 4),
    (3, 2), (3, 3),
    (4, 2), (5, 2), (6, 2),
}


def run_criterion(capfd, number, label, body, budget=None):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.3f}s exceeded the {budget:g}s budget"
            )
    except BaseException:
        elapsed = time.perf_counter() - start
        with capfd.disabled():
            print(f"criterion {number}: FAIL ({elapsed:.3f}s) {label}", flush=True)
        raise
    with capfd.disabled():
        print(f"criterion {number}: PASS ({elapsed:.3f}s) {label}", flush=True)


def test_criterion_1_complete_intersection_thresholds(capfd):
    def body():
        vanishing = set()
        for n in range(2, 7):
            for k in range(2, 9):
                res = bott.koszul_resolution(n, [k - 1] * n)
                if bott.h1_vanishing_chase(res, k).vanishes:
                    vanishing.add((n, k))
        assert vanishing == EXPECTED_VANISHING_CELLS

    run_criterion(
        capfd, 1,
        "grid-node chase vanishes exactly on the eight admissible (n, k) cells",
        body, budget=1.0,
    )


def test_criterion_2_quadric_locus_thresholds(capfd):
    def body():
        for n in range(2, 6):
            for h in range(1, 7):
                res = bott.eagon_northcott_resolution(n, h)
                verdict = bott.h1_vanishing_chase(res, 2)
                assert verdict.vanishes == (h in (1, 2))
            assert points.node_count_quadrics(n, 1) == n + 1
            assert points.node_count_quadrics(n, 2) == (n + 1) * (n + 2) // 2

    run_criterion(
        capfd, 2,
        "quadric-locus chase at twist 2 vanishes iff h in {1, 2}, node counts exact",
        body, budget=1.0,
    )


def test_criterion_3_grid_rank_oracle(capfd):
    def body():
        for k in (2, 3, 4):
            report = points.conditions_report(points.grid_nodes(2, k), k)
            assert report.h1_ideal == 0

        report = points.conditions_report(points.grid_nodes(2, 5), 5)
        assert report.delta == 16
        assert report.h0_ambient == 21
        assert report.rank == 15
        assert report.h1_ideal == 1

        verdict = bott.h1_vanishing_chase(bott.koszul_resolution(2, [4, 4]), 5)
        assert verdict.exact_h1 == 1
        assert verdict.exact_h1 == report.h1_ideal
        assert bott.bott_h(2, 2, -3) == 1

    run_criterion(
        capfd, 3,
        "evaluation ranks match the chase: h1 = 0 for k <= 4, h1 = 1 for k = 5",
        body, budget=1.0,
    )


def test_criterion_4_monodromy_property_suite(capfd):
    def body():
        rng = random.Random(20260815)
        for _ in range(200):
            data = random_monodromy_data(rng, max_half_dim=5, max_delta=6)
            complex_ = monodromy.build_stalk_complex(data)
            cohomology = monodromy.complex_cohomology(complex_)
            s = monodromy.span_dim(data)
            assert cohomology[0] == data.dim - s
            if data.delta:
                assert cohomology[1] == data.delta - s
            assert all(v == 0 for v in cohomology[2:])
            assert len(complex_.d0) == data.delta
            minus = monodromy.ic_stalk(data, -1)
            plus = monodromy.ic_stalk(data, 1)
            assert minus == plus
            excision = monodromy.excision_rank(data)
            assert excision == minus.excision_rank
            assert (
                data.h_ambient + data.delta - excision
                == data.h_ambient + minus.h1
            )

    run_criterion(
        capfd, 4,
        "200 random monodromy instances: dims, vanishing, excision, sign freedom",
        body, budget=10.0,
    )


def test_criterion_5_branch_independence_checks(capfd):
    def body():
        rng = random.Random(977)
        for _ in range(120):
            big_n = rng.randint(1, 8)
            delta = rng.randint(1, big_n)
            while True:
                try:
                    pts = points.ProjectivePointSet.from_coordinates(
                        big_n,
                        [
                            [rng.randint(-3, 3) for _ in range(big_n + 1)]
                            for _ in range(delta)
                        ],
                    )
                    break
                except InputError:
                    continue
            crossing = points.normal_crossing_check(pts)
            report = points.conditions_report(pts, 1)
            assert crossing.independent_branches == report.independent
            assert crossing.tangent_intersection_dim == big_n - report.rank
        for big_n in range(1, 9):
            for r in range(big_n + 1):
                assert points.severi_expected_dim(big_n, r) == big_n - r

    run_criterion(
        capfd, 5,
        "branch independence equals degree-1 independence on random point sets",
        body,
    )


def test_criterion_6_determinism_and_exactness(capfd, tmp_path):
    def render(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(argv)
        assert code == 0
        return buffer.getvalue()

    def no_floats(text):
        def reject(_):
            raise AssertionError("float literal in JSON report")

        def walk(value):
            assert not isinstance(value, float) or isinstance(value, bool)
            if isinstance(value, dict):
                for key, item in value.items():
                    assert isinstance(key, str)
                    walk(item)
            elif isinstance(value, list):
                for item in value:
                    walk(item)

        walk(json.loads(text, parse_float=reject))

    def body():
        doc = tmp_path / "monodromy.json"
        doc.write_text(
            json.dumps(
                {
                    "dim": 4,
                    "pairing": [
                        [0, 1, 0, 0], [-1, 0, 0, 0],
                        [0, 0, 0, 1], [0, 0, -1, 0],
                    ],
                    "cycles": [[1, 0, 0, 0], [1, 0, 0, 0]],
                    "h_ambient": 1,
                }
            ),
            encoding="utf-8",
        )
        grid_doc = tmp_path / "grid.json"
        grid_doc.write_text(
            json.dumps(points.grid_nodes(2, 5).to_json()), encoding="utf-8"
        )
        commands = [
            ["ic-stalk", "--input", str(doc), "--json"],
            ["points", "--input", str(grid_doc), "--degree", "5", "--json"],
            ["koszul", "--n", "2", "--degrees", "4,4", "--twist", "5", "--json"],
            ["grid", "--n", "2", "--k", "5", "--json"],
            [
                "paper-examples", "--max-n", "3", "--max-k", "5",
                "--max-h", "3", "--grid-cap", "100", "--json",
            ],
        ]
        for argv in commands:
            first = render(argv)
            second = render(argv)
            assert first == second, f"non-identical output for {argv}"
            no_floats(first)

    run_criterion(
        capfd, 6,
        "repeated CLI runs are byte-identical and every quantity is exact",
        body,
    )
