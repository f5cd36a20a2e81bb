import inspect
import json
import os
import subprocess
import sys
import time

import pytest

import nodalic
from nodalic import bott, cli, points
from nodalic.errors import MAX_REPORTED_BITS
from nodalic.points import ProjectivePointSet

SYMPLECTIC4 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]

DEFECTIVE_DOC = {
    "dim": 4,
    "pairing": SYMPLECTIC4,
    "cycles": [[1, 0, 0, 0], [1, 0, 0, 0]],
    "h_ambient": 1,
}


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# strings that int() reads but that are no "a/b" literal: a final
# newline, Arabic-Indic digits and a mathematical bold digit
NOT_LITERALS = ["3\n", "\u0663", "3/\u0665", "\U0001d7d1"]


def assert_not_a_literal(code, err, literal):
    assert code == 1
    assert err == f"error: not a rational literal: {literal!r}\n"


class TestIcStalkCommand:
    def test_defective_document_json(self, tmp_path, capsys):
        path = write_doc(tmp_path, "monodromy.json", DEFECTIVE_DOC)
        assert cli.run(["ic-stalk", "--input", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["h0"] == 3
        assert report["h1"] == 1
        assert report["defect"] == 1
        assert report["filtration"] == [1, 1]

    def test_text_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, "monodromy.json", DEFECTIVE_DOC)
        assert cli.run(["ic-stalk", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "h0: 3" in out
        assert "defect: 1" in out
        assert "graded 1 piece 1" in out

    def test_sign_choice_is_irrelevant(self, tmp_path, capsys):
        path = write_doc(tmp_path, "monodromy.json", DEFECTIVE_DOC)
        outputs = []
        for sign in ("-1", "1"):
            assert cli.run(["ic-stalk", "--input", path, "--sign", sign, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_skew_violation_exits_two(self, tmp_path, capsys):
        doc = dict(DEFECTIVE_DOC, pairing=[[1, 0], [0, 1]], dim=2, cycles=[[1, 0]])
        path = write_doc(tmp_path, "bad.json", doc)
        assert cli.run(["ic-stalk", "--input", path]) == 2
        assert "pairing not skew" in capsys.readouterr().err

    def test_zero_cycle_exits_two(self, tmp_path, capsys):
        doc = dict(DEFECTIVE_DOC, dim=2, pairing=[[0, 1], [-1, 0]], cycles=[[0, 0]])
        path = write_doc(tmp_path, "bad.json", doc)
        assert cli.run(["ic-stalk", "--input", path]) == 2
        assert "zero vanishing cycle unsupported" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", NOT_LITERALS)
    def test_literal_outside_the_format_exits_one(self, tmp_path, capsys, literal):
        doc = dict(DEFECTIVE_DOC, cycles=[[1, 0, literal, 0]])
        path = write_doc(tmp_path, "monodromy.json", doc)
        code = cli.run(["ic-stalk", "--input", path])
        assert_not_a_literal(code, capsys.readouterr().err, literal)

    def test_non_orthogonal_exits_two(self, tmp_path, capsys):
        doc = dict(
            DEFECTIVE_DOC, dim=2, pairing=[[0, 1], [-1, 0]],
            cycles=[[1, 0], [0, 1]],
        )
        path = write_doc(tmp_path, "bad.json", doc)
        assert cli.run(["ic-stalk", "--input", path]) == 2
        assert "not pairwise orthogonal" in capsys.readouterr().err


class TestPointsCommand:
    def test_grid25_degree_five(self, tmp_path, capsys):
        path = write_doc(tmp_path, "grid25.json", points.grid_nodes(2, 5).to_json())
        assert cli.run(["points", "--input", path, "--degree", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conditions"]["h1_ideal"] == 1
        assert report["conditions"]["rank"] == 15
        assert report["node_span_dim"] == 2

    def test_text_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, "grid.json", points.grid_nodes(2, 4).to_json())
        assert cli.run(["points", "--input", path, "--degree", "4"]) == 0
        out = capsys.readouterr().out
        assert "independent: true" in out
        assert "h1_ideal: 0" in out

    def test_schema_violation_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json", {"points": [[1, 0]]})
        assert cli.run(["points", "--input", path, "--degree", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_duplicate_points_exit_one(self, tmp_path):
        doc = {"ambient_dim": 1, "points": [[1, 1], [2, 2]]}
        path = write_doc(tmp_path, "dup.json", doc)
        assert cli.run(["points", "--input", path, "--degree", "1"]) == 1

    @pytest.mark.parametrize("literal", NOT_LITERALS)
    def test_literal_outside_the_format_exits_one(self, tmp_path, capsys, literal):
        doc = {"ambient_dim": 2, "points": [[1, 0, 1], [0, literal, 1], [1, 1, 1]]}
        path = write_doc(tmp_path, "points.json", doc)
        code = cli.run(["points", "--input", path, "--degree", "1"])
        assert_not_a_literal(code, capsys.readouterr().err, literal)

    def test_negative_degree_exits_one(self, tmp_path):
        path = write_doc(tmp_path, "grid.json", points.grid_nodes(1, 2).to_json())
        assert cli.run(["points", "--input", path, "--degree", "-1"]) == 1


class TestChaseCommands:
    def test_chase_resolution_document(self, tmp_path, capsys):
        doc = bott.koszul_resolution(2, [4, 4]).to_json()
        path = write_doc(tmp_path, "res.json", doc)
        assert cli.run(["chase", "--input", path, "--twist", "5", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["vanishes"] is False
        assert verdict["exact_h1"] == 1
        assert verdict["obstructions"] == [
            {"position": 2, "twist": -3, "value": 1}
        ]

    def test_koszul_vanishing_text(self, capsys):
        assert cli.run(["koszul", "--n", "2", "--degrees", "3,3", "--twist", "4"]) == 0
        assert "vanishes: true" in capsys.readouterr().out

    def test_koszul_without_twist_lists_terms(self, capsys):
        assert cli.run(["koszul", "--n", "3", "--degrees", "2,2,2"]) == 0
        out = capsys.readouterr().out
        assert "term 1: O(-2)^3" in out
        assert "term 3: O(-6)" in out

    def test_koszul_too_many_degrees_exits_one(self, capsys):
        assert cli.run(["koszul", "--n", "2", "--degrees", "2,2,2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_koszul_unprintable_multiplicity_exits_two(self, capsys):
        degrees = ",".join(["1"] * 14300)
        start = time.perf_counter()
        assert cli.run(["koszul", "--n", "14300", "--degrees", degrees]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"precondition violated: multiplicity too large to report: more than {MAX_REPORTED_BITS} bits"
        ]

    def test_koszul_many_distinct_degrees_exit_two(self, capsys):
        degrees = ",".join(map(str, range(1, 201)))
        start = time.perf_counter()
        assert cli.run(["koszul", "--n", "200", "--degrees", degrees]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"precondition violated: {bott.FAIL_KOSZUL_WORK}"]

    def test_bad_degrees_flag_exits_one(self):
        assert cli.run(["koszul", "--n", "2", "--degrees", "a,b"]) == 1
        assert cli.run(["koszul", "--n", "2", "--degrees", ""]) == 1

    def test_eagon_northcott_report(self, capsys):
        assert cli.run(
            ["eagon-northcott", "--n", "2", "--quadrics", "1", "--twist", "2", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["node_count"] == 3
        assert report["resolution"]["terms"] == [
            [{"mult": 3, "twist": 1}],
            [{"mult": 2, "twist": 0}],
        ]
        assert report["verdict"]["vanishes"] is True

    def test_eagon_northcott_obstructed(self, capsys):
        assert cli.run(
            ["eagon-northcott", "--n", "2", "--quadrics", "3", "--twist", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "vanishes: false" in out
        assert "node count: 10" in out


class TestGridCommand:
    def test_round_trip_through_points(self, tmp_path, capsys):
        out_path = tmp_path / "grid.json"
        assert cli.run(["grid", "--n", "2", "--k", "4", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert cli.run(
            ["points", "--input", str(out_path), "--degree", "4", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conditions"]["independent"] is True

    def test_json_output_reparses(self, capsys):
        assert cli.run(["grid", "--n", "2", "--k", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        pts = ProjectivePointSet.from_json(doc)
        assert pts.delta == 4

    def test_k_one_exits_one(self):
        assert cli.run(["grid", "--n", "2", "--k", "1"]) == 1


class TestPaperExamplesCommand:
    def test_small_sweep_passes(self, capsys):
        code = cli.run(
            [
                "paper-examples", "--max-n", "3", "--max-k", "5",
                "--max-h", "3", "--grid-cap", "100", "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_match"] is True
        cells = {(c["n"], c["k"]): c for c in report["ci_table"]}
        defective = cells[(2, 5)]
        assert defective["chase_vanishes"] is False
        assert defective["exact_h1"] == 1
        assert defective["grid_h1"] == 1
        assert defective["consistent"] is True
        assert cells[(2, 4)]["chase_vanishes"] is True
        assert cells[(2, 4)]["grid_h1"] == 0
        en = {(c["n"], c["h"]): c for c in report["en_table"]}
        assert en[(2, 1)]["node_count"] == 3
        assert en[(2, 1)]["chase_vanishes"] is True
        assert en[(3, 3)]["chase_vanishes"] is False
        assert {"N": 9, "delta": 4, "expected_dim": 5} in report["severi_samples"]

    def test_grid_cap_skips_large_cells(self, capsys):
        assert cli.run(
            [
                "paper-examples", "--max-n", "3", "--max-k", "4",
                "--max-h", "1", "--grid-cap", "5", "--json",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        cells = {(c["n"], c["k"]): c for c in report["ci_table"]}
        assert cells[(3, 4)]["grid_h1"] is None
        assert cells[(3, 4)]["consistent"] is None
        assert cells[(2, 3)]["grid_h1"] == 0

    def test_text_table(self, capsys):
        assert cli.run(
            ["paper-examples", "--max-n", "2", "--max-k", "3", "--max-h", "1",
             "--grid-cap", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "all asserted verdicts match: true" in out
        assert "chase_vanishes" in out

    def test_deviation_exits_two(self, capsys, monkeypatch):
        # break the asserted table on purpose: the sweep must notice
        monkeypatch.setattr(cli, "_EXPECTED_EN_MAX_H", 1)
        code = cli.run(
            ["paper-examples", "--max-n", "2", "--max-k", "2", "--max-h", "2",
             "--grid-cap", "0", "--json"]
        )
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["all_match"] is False

    def test_defaults_are_the_api_defaults(self):
        # the parser restates paper_examples' defaults; they must not drift
        args = cli._COMMANDS["paper-examples"].parse_args([])
        names = inspect.signature(cli.paper_examples).parameters
        assert tuple(getattr(args, name) for name in names) == cli.paper_examples.__defaults__


class TestSurface:
    def test_missing_file_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.run(["ic-stalk", "--input", missing]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.run(["ic-stalk", "--input", str(path)]) == 1

    @pytest.mark.parametrize(
        "content",
        [
            # a literal past the interpreter's 4300-digit limit for int()
            json.dumps({"ambient_dim": 1, "points": [["1" * 5000 + "/7", 1]]}).encode(),
            b'{"ambient_dim": 1, "points": [[' + b"1" * 5000 + b", 1]]}",
            b'{"ambient_dim": 1, "points": [[1, 2]], "note": "\xff\xfe"}',
            b"[" * 100000 + b"]" * 100000,
        ],
        ids=["long-rational-string", "long-json-number", "not-utf8", "deep-nesting"],
    )
    def test_unparsable_input_gives_one_error_line(self, tmp_path, capsys, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert cli.run(["points", "--input", str(path), "--degree", "1"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_oversized_twist_gives_one_precondition_line(self, tmp_path, capsys):
        # its h1 bound would run past the interpreter's 4300-digit limit for
        # printing an int
        term = [{"twist": -(10**3000 - 1), "mult": 1}]
        doc = {"ambient_dim": 2, "resolved_twist": 0, "terms": [term, term]}
        path = write_doc(tmp_path, "resolution.json", doc)
        assert cli.run(["chase", "--input", path, "--twist", "2", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"precondition violated: {bott.FAIL_TWIST_RANGE}"
        ]

    def test_oversized_multiplicity_gives_one_precondition_line(
        self, tmp_path, capsys
    ):
        # a 4291-digit multiplicity parses, but its h1 bound has 4302 digits
        term = [{"twist": -(10**6), "mult": 10**4290}]
        doc = {"ambient_dim": 2, "resolved_twist": 0, "terms": [term, term]}
        path = write_doc(tmp_path, "resolution.json", doc)
        assert cli.run(["chase", "--input", path, "--twist", "0", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "precondition violated: h1 bound too large to report: "
            f"more than {MAX_REPORTED_BITS} bits"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["grid", "--n", str(10**9), "--k", "3"], points.FAIL_GRID_SIZE),
            (["grid", "--n", "3", "--k", str(10**6)], points.FAIL_GRID_SIZE),
            (["points", "--degree", str(10**9)], points.FAIL_MONOMIALS),
            (
                ["eagon-northcott", "--n", "10000", "--quadrics", "10000"],
                f"multiplicity too large to report: more than {MAX_REPORTED_BITS} bits",
            ),
        ],
        ids=["grid-dimension", "grid-degree", "points-degree", "eagon-northcott"],
    )
    def test_oversized_request_gives_one_precondition_line(
        self, tmp_path, capsys, argv, message
    ):
        if argv[0] == "points":
            doc = {"ambient_dim": 2, "points": [[1, 2, 3], [0, 1, "1/2"]]}
            argv = argv + ["--input", write_doc(tmp_path, "points.json", doc)]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"precondition violated: {message}"]

    def test_unknown_subcommand_exits_one(self, capsys):
        assert cli.run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_one(self, capsys):
        assert cli.run(["points", "--degree", "1"]) == 1
        capsys.readouterr()

    def test_no_arguments_exits_one(self, capsys):
        assert cli.run([]) == 1
        capsys.readouterr()

    def test_out_flag_writes_stdout_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert cli.run(
            ["koszul", "--n", "2", "--degrees", "3,3", "--twist", "4",
             "--json", "--out", str(out_path)]
        ) == 0
        stdout = capsys.readouterr().out
        assert out_path.read_text(encoding="utf-8") == stdout

    @pytest.mark.parametrize(
        "flags, renders",
        [([], 0), (["--json"], 1), (["--out", "{out}"], 1), (["--json", "--out", "{out}"], 1)],
    )
    def test_a_report_renders_once(self, tmp_path, monkeypatch, capsys, flags, renders):
        dumps, calls = cli._dumps, []

        def counting(report):
            calls.append(report)
            return dumps(report)

        monkeypatch.setattr(cli, "_dumps", counting)
        out = str(tmp_path / "report.json")
        argv = ["koszul", "--n", "2", "--degrees", "3,3", "--twist", "4"]
        assert cli.run(argv + [flag.format(out=out) for flag in flags]) == 0
        assert len(calls) == renders
        capsys.readouterr()

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "x.json")
        assert cli.run(
            ["koszul", "--n", "2", "--degrees", "3,3", "--twist", "4",
             "--out", target]
        ) == 1
        capsys.readouterr()


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write_doc(tmp_path, "monodromy.json", DEFECTIVE_DOC)
        commands = [
            ["ic-stalk", "--input", path, "--json"],
            ["koszul", "--n", "2", "--degrees", "4,4", "--twist", "5", "--json"],
            ["grid", "--n", "2", "--k", "4", "--json"],
            ["paper-examples", "--max-n", "2", "--max-k", "4", "--max-h", "2",
             "--grid-cap", "16", "--json"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                assert cli.run(argv) == 0
                runs.append(capsys.readouterr().out)
            assert runs[0] == runs[1]
            assert json.loads(runs[0]) == json.loads(runs[1])
            assert runs[0].endswith("\n")

    def test_reports_reparse_to_same_record(self, capsys):
        assert cli.run(
            ["eagon-northcott", "--n", "3", "--quadrics", "2", "--twist", "2",
             "--json"]
        ) == 0
        text = capsys.readouterr().out
        assert json.loads(text) == json.loads(json.dumps(json.loads(text)))


class TestRenderBackstop:
    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_unprintable_count_exits_two(self, monkeypatch, capsys, tmp_path, fmt):
        monkeypatch.setattr(points, "node_count_quadrics", lambda n, h: 10**5000)
        out = tmp_path / "report.json"
        argv = ["eagon-northcott", "--n", "3", "--quadrics", "2", "--out", str(out)]
        assert cli.run(argv + fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"precondition violated: number too large to report: more than {MAX_REPORTED_BITS} bits"
        ]
        assert not out.exists()

    def test_other_value_errors_still_propagate(self, monkeypatch):
        def broken(n, h):
            raise ValueError("not a digit limit")

        monkeypatch.setattr(points, "node_count_quadrics", broken)
        with pytest.raises(ValueError, match="not a digit limit"):
            cli.run(["eagon-northcott", "--n", "3", "--quadrics", "2"])


def test_requests_load_no_test_dependency(tmp_path):
    # sympy, hypothesis and pytest serve the tests only, never a request
    path = write_doc(tmp_path, "grid.json", points.grid_nodes(2, 5).to_json())
    script = (
        "import sys\nfrom nodalic import cli\n"
        "codes = [cli.run(['paper-examples', '--max-n', '3', '--max-k', '5', '--max-h', '3']),"
        " cli.run(['points', '--input', sys.argv[1], '--degree', '5', '--json'])]\n"
        "test_only = {'sympy', 'hypothesis', 'pytest', '_pytest', 'helpers'}\n"
        "import json\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] in test_only)]))"
    )
    assert _run_script(script, path, cwd=tmp_path) == [[0, 0], []]


def _run_script(script, *args, cwd):
    """Run ``script`` in a fresh interpreter; its last stdout line, read as JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nodalic.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert done.stderr == ""
    return json.loads(done.stdout.splitlines()[-1])


def test_each_command_loads_only_its_engines(tmp_path):
    # no wall clock: what a fresh process imports is the start-up cost
    grid = write_doc(tmp_path, "grid.json", points.grid_nodes(2, 4).to_json())
    stalk = write_doc(tmp_path, "stalk.json", DEFECTIVE_DOC)
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "before = set(sys.modules)\n"
        "from nodalic import cli\n"
        "loaded = []\n"
        "for argv in (['points', '--input', sys.argv[1], '--degree', '2'],\n"
        "             ['ic-stalk', '--input', sys.argv[2]],\n"
        "             ['koszul', '--n', '2', '--degrees', '2,2', '--twist', '3']):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        code = cli.run(argv)\n"
        "    loaded.append([code, sorted(set(sys.modules) - before)])\n"
        "print(json.dumps(loaded))"
    )
    (points_code, after_points), (stalk_code, after_stalk), (koszul_code, after_koszul) = (
        _run_script(script, grid, stalk, cwd=tmp_path)
    )
    assert (points_code, stalk_code, koszul_code) == (0, 0, 0)
    assert "nodalic.points" in after_points
    for name in ("dataclasses", "inspect", "nodalic.bott", "nodalic.monodromy"):
        assert name not in after_points
    assert "nodalic.monodromy" in after_stalk and "nodalic.bott" not in after_stalk
    assert "nodalic.bott" in after_koszul
    assert "dataclasses" not in after_koszul and "inspect" not in after_koszul


def test_submodules_load_on_first_use(tmp_path):
    script = (
        "import json, sys\n"
        "import nodalic\n"
        "engines = ('bott', 'cli', 'linalg', 'monodromy', 'points')\n"
        "on_import = [m for m in engines if 'nodalic.' + m in sys.modules]\n"
        "grid = nodalic.points.grid_nodes(2, 3).delta\n"
        "from nodalic import *\n"
        "bound = [name for name in nodalic.__all__ if name in globals()]\n"
        "try:\n"
        "    nodalic.nothing\n"
        "    missing = None\n"
        "except AttributeError as err:\n"
        "    missing = str(err)\n"
        "print(json.dumps([on_import, grid, bound, monodromy.__name__, missing]))"
    )
    on_import, grid, bound, monodromy_name, missing = _run_script(script, cwd=tmp_path)
    assert on_import == []
    assert grid == 4
    assert bound == nodalic.__all__
    assert monodromy_name == "nodalic.monodromy"
    assert missing == "module 'nodalic' has no attribute 'nothing'"


def test_python_m_nodalic_runs_the_command_line(tmp_path, capsys):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nodalic.__file__)))

    def module_run(*args):
        return subprocess.run(
            [sys.executable, "-m", "nodalic", *args],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    bare = module_run()
    assert bare.returncode == 1 and bare.stdout == ""
    assert bare.stderr.count("\n") == 1 and bare.stderr.startswith("error: ")
    grid = module_run("grid", "--n", "1", "--k", "3")
    assert cli.run(["grid", "--n", "1", "--k", "3"]) == grid.returncode == 0
    assert (grid.stdout, grid.stderr) == (capsys.readouterr().out, "")
