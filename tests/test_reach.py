"""Every function of the package runs in some golden command, or says why not.

The golden corpus (:func:`test_golden.corpus`) holds every command line
whose output is pinned.  Each run goes through ``cli.run`` under
``sys.setprofile``, which sees every call of a Python function.  A
function or method defined in ``src/nodalic`` that no run calls is API
that no command uses: it must be on ``KEEP``, with the reason it stays.
Each entry of ``KEEP`` must name a function that exists and that no run
calls, so the list cannot hold a name that has gone or come into use.
An entry kept for the benchmark's tracer must be one of its ``TARGETS``.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import nodalic
from nodalic import cli

import test_golden

TRACER = "resolved by name by the benchmark's tracer, perfbench/tracing.py"
KEEP = {
    "nodalic.linalg.check_matrix": TRACER,
    "nodalic.linalg.matmul": "the tests' product oracle, and the one caller of check_matrix",
    "nodalic.points.evaluation_matrix": TRACER,
    "nodalic.points.evaluation_columns": "the columns that evaluation_matrix transposes",
    "nodalic.points.node_span_dim": TRACER,
    "nodalic.points.normal_crossing_check": TRACER,
    "nodalic.monodromy.MonodromyData.from_rationals": "documented constructor",
    "nodalic.points.ProjectivePointSet.from_coordinates": "documented constructor",
    "nodalic.linalg.as_rational": "documented converter of API input",
    "nodalic.linalg.rational_pairs": "converter of the documented constructors",
    "nodalic.linalg.rational_to_json": "documented converter to the JSON form",
    "nodalic.bott.bott_h": "the checked public form of the Bott formula",
    "nodalic.bott.Resolution._make": "keeps _replace checked",
    "nodalic.cli.entry": "runs only from the console script",
    "nodalic.cli._build_parser": "runs once, at import",
    "nodalic.__getattr__": "runs on the first access of each submodule",
    "nodalic.errors.unreportable": "the exit-2 path pinned in test_cli.py",
}


def defined_functions():
    """``{(file, first line): dotted name}`` of each def in the package.

    The first line is that of the code object, the first decorator's
    when there is one.  Each module is imported here, so that no run
    imports one through ``nodalic.__getattr__``.
    """
    package = Path(nodalic.__file__).parent
    out = {}
    for path in sorted(package.glob("*.py")):
        module = "nodalic" if path.stem == "__init__" else f"nodalic.{path.stem}"
        importlib.import_module(module)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.FunctionDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path), line] = f"{module}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def called_code(directory):
    """The code objects that the golden runs call, run from ``directory``."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    runs = test_golden.corpus(directory)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in runs.values():
                cli.run(argv)
        finally:
            sys.setprofile(None)
    return codes


def test_every_function_runs_or_is_kept(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    defined = defined_functions()
    reached = {
        defined[code.co_filename, code.co_firstlineno]
        for code in called_code(tmp_path)
        if (code.co_filename, code.co_firstlineno) in defined
    }
    names = set(defined.values())
    assert len(names) == len(defined)
    assert sorted(set(KEEP) - names) == [], "kept names that are not defined"
    assert sorted(set(KEEP) & reached) == [], "kept names that a command calls"
    assert sorted(names - reached - set(KEEP)) == [], "names that no command calls"


def test_tracer_entries_are_tracer_targets():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {f"nodalic.{dotted}" for _, paths in tracing.TARGETS for dotted in paths}
    kept = {name for name, reason in KEEP.items() if reason == TRACER}
    assert sorted(kept - targets) == [], "kept for the tracer, but not one of its targets"
