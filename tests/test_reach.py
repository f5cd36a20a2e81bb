"""Every statement of the package runs in some golden command, or says why not.

The golden corpus (:func:`test_golden.corpus`) holds every command line
whose output is pinned.  One pass runs each through ``cli.run`` under
``sys.settrace``, which sees every call of a Python function and, in the
files of ``src/nodalic``, every line that runs.  Both reach tests read
that one pass:

- a function or method defined in ``src/nodalic`` that no run calls is
  API that no command uses, and its dotted name must be on ``KEEP``;
- a statement inside a function that no run executes must be covered
  by its function's entry or by its own.  A statement's entry is keyed
  ``"<dotted function name>: <source text>"``, the text being the
  statement's lines (a compound statement's header alone), stripped,
  without comment lines and joined by spaces.  Where statements of one
  function share a text, each key ends in `` #i``, its place among them
  in source order, so an entry names exactly one statement.  The key
  holds no line number, so an edit elsewhere does not move it, and a
  failure lists each unreached statement by the key that would keep it.

A statement ran when one of its own lines ran, or one of the
statements inside it did; a nested def is a statement of its enclosing
function, and its body belongs to the nested function.  Each entry of
``KEEP`` says why the code stays.  It must name a function or a
statement that exists and that no run reaches, so the list cannot hold
an entry that has gone or come into use.  An entry kept for the
benchmark's tracer must be one of its ``TARGETS``.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

import nodalic
from nodalic import cli

import test_golden

TRACER = "resolved by name by the benchmark's tracer, perfbench/tracing.py"
CROSS_CHECK = "a cross-check of two independent roads, which fires only if they disagree"
JSON_EQUALITY = (
    "keeps _dumps byte-equal to json.dumps on any value, as test_cli_fuzz.py pins; "
    "no report holds an empty dict, a float or a deep structure"
)
DIGIT_LIMIT = (
    "the net for an int past the interpreter's digit limit that no engine bounded; "
    "without it a traceback escapes the CLI"
)
NO_COLUMNS = (
    "rank(matrix) without ncols, as documented and pinned in test_linalg.py; commands pass ncols"
)
KEEP = {
    "nodalic.linalg.check_matrix": TRACER,
    "nodalic.linalg.matmul": "the tests' product oracle, and the one caller of check_matrix",
    "nodalic.linalg.rank": (
        "documented validating entry for API rows; every command hands the rank core ints "
        "its constructors built"
    ),
    "nodalic.linalg._int_rows": TRACER,
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
    "nodalic.cli.entry": "runs only from the console script and python -m nodalic",
    "nodalic.cli._build_parser": "runs once, at import",
    "nodalic.__getattr__": "runs on the first access of each submodule",
    "nodalic.bott._bott_h: return comb(n + a, n) if a >= 0 else 0": (
        "h^0, which only bott_h asks for: the chase reads degrees 1 to n"
    ),
    "nodalic.cli._json_text: return \"{}\"": JSON_EQUALITY,
    "nodalic.cli._json_text: raise TypeError(f\"{type(value).__name__} is left to json.dumps\")": (
        JSON_EQUALITY
    ),
    "nodalic.cli._dumps: return json.dumps(report, indent=2, sort_keys=True) + \"\\n\"": JSON_EQUALITY,
    "nodalic.cli.run: if \"integer string conversion\" not in str(err):": DIGIT_LIMIT,
    "nodalic.cli.run: raise": DIGIT_LIMIT,
    "nodalic.cli.run: print(f\"precondition violated: {unreportable('number')}\", file=sys.stderr)": (
        DIGIT_LIMIT
    ),
    "nodalic.cli.run: return 2 #2": DIGIT_LIMIT,
    "nodalic.cli.run: print(\"precondition violated: a sweep cell deviates from its asserted "
    "verdict\", file=sys.stderr)": CROSS_CHECK,
    "nodalic.monodromy.ic_stalk: raise PreconditionError( \"closed-form and complex stalk "
    "computations disagree: \" f\"closed (h0={h0}, h1={h1}), complex {cohomology}\" )": CROSS_CHECK,
    "nodalic.errors.check_int: raise InputError(f\"{name} must be at most {maximum}, got {value}\")": (
        "the upper bound of severi_expected_dim's r, which no command chooses"
    ),
    "nodalic.linalg._check_shape: raise InputError(f\"matrix must be a list of rows, got "
    "{type(matrix).__name__}\")": (
        "rank of a generator would see its rows consumed by this scan and return 0"
    ),
    "nodalic.linalg._check_shape: raise InputError(f\"row {i} is not a list\")": (
        "a set or dict row would be read in its iteration order, and give a wrong rank"
    ),
    "nodalic.linalg._check_shape: width = len(row)": NO_COLUMNS,
    "nodalic.linalg._check_shape: raise InputError(\"cannot infer the column count of a matrix "
    "with no rows\")": NO_COLUMNS,
    "nodalic.monodromy.build_stalk_complex: raise InputError(f\"sign must be +1 or -1, got "
    "{sign!r}\")": (
        "a float or Fraction sign would put non-ints into d0; the CLI offers only -1 and 1"
    ),
    "nodalic.monodromy.build_stalk_complex: raise PreconditionError(FAIL_ORTHOGONALITY)": (
        "the builder's own proof that degrees >= 2 are empty; ic_stalk validates first"
    ),
    "nodalic.points._shaped_prefix: return arrays, InputError(f\"point {arrays} is not a "
    "coordinate vector\")": (
        "from_coordinates would silently drop a point that is no list or tuple; "
        "from_json refuses one first"
    ),
}


def defined_functions():
    """``{(file, first line): (dotted name, def node)}`` of each def in the package.

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
                    out[str(path), line] = f"{module}.{prefix}{child.name}", child
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def traced_runs(directory, files):
    """Run the golden corpus from ``directory`` under ``sys.settrace``.

    Returns ``(called, lines)``: the ``(file, first line)`` of each code
    object of ``files`` that a run calls, and ``{file: line numbers}``
    of the lines that run in each of ``files``.  Frames of other files
    are not traced line by line.  A tracer already set is put back.
    """
    called = set()
    lines = {path: set() for path in files}

    def line_tracer(seen):
        def trace(frame, event, arg):
            seen.add(frame.f_lineno)
            return trace

        return trace

    tracers = {path: line_tracer(seen) for path, seen in lines.items()}

    def trace_calls(frame, event, arg):
        code = frame.f_code
        trace = tracers.get(code.co_filename)
        if trace is not None:
            called.add((code.co_filename, code.co_firstlineno))
        return trace

    runs = test_golden.corpus(directory)
    sink = io.StringIO()
    previous = sys.gettrace()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.settrace(trace_calls)
        try:
            for argv in runs.values():
                cli.run(argv)
        finally:
            sys.settrace(previous)
    return called, lines


def _inner(stmt):
    """The statements directly inside ``stmt``, its handlers' included."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(stmt, field, ()):
            yield from child.body if isinstance(child, ast.ExceptHandler) else (child,)


def _body(function):
    """The statements of ``function``'s body; the docstring is no statement."""
    body = function.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        return body[1:]
    return body


def _start(stmt):
    return min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])


def statement_keys(name, function, source):
    """``{statement: key}`` of each statement of ``function``, nested ones included.

    ``source`` holds the lines of its file.  A nested def is a statement,
    and its body is left to its own function.  A key is ``"<name>:
    <text>"``; when k > 1 statements of the function have the same text,
    the i-th of them in source order has `` #i`` appended, so that no two
    statements share a key.
    """
    texts = {}

    def visit(stmts):
        for stmt in stmts:
            inner = list(_inner(stmt))
            end = max(stmt.lineno, inner[0].lineno - 1) if inner else stmt.end_lineno
            lines = [line.strip() for line in source[_start(stmt) - 1:end]]
            texts[stmt] = " ".join(t for t in lines if t and not t.startswith("#"))
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                visit(inner)

    visit(_body(function))
    totals = Counter(texts.values())
    seen = Counter()
    keys = {}
    for stmt in sorted(texts, key=lambda stmt: (stmt.lineno, stmt.col_offset)):
        text = texts[stmt]
        keys[stmt] = f"{name}: {text}"
        if totals[text] > 1:
            seen[text] += 1
            keys[stmt] += f" #{seen[text]}"
    return keys


def unreached_statements(name, function, source, ran):
    """``{key: line}`` of the statements of ``function`` that no run executes.

    ``source`` holds the lines of its file and ``ran`` the numbers of
    the lines that ran there; the keys are those of :func:`statement_keys`.
    """
    keys = statement_keys(name, function, source)
    out = {}

    def reached(stmt):
        inner = list(_inner(stmt))
        own = set(range(_start(stmt), stmt.end_lineno + 1)).difference(
            *(range(s.lineno, s.end_lineno + 1) for s in inner)
        )
        # a nested def's body is checked as its own function
        scoped = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        runs = [reached(s) for s in ([] if scoped else inner)]
        if any(runs) or not own.isdisjoint(ran):
            return True
        out[keys[stmt]] = stmt.lineno
        return False

    for stmt in _body(function):
        reached(stmt)
    return out


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """The one traced pass of the golden corpus, read for both reach tests.

    Returns ``(defined, called, unreached)``: ``{(file, first line):
    dotted name}`` of each def, the dotted names that a run calls, and
    ``{key: "file:line"}`` of each statement no run executes, over the
    functions that ``KEEP`` does not name.
    """
    directory = tmp_path_factory.mktemp("reach")
    functions = defined_functions()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        called, lines = traced_runs(directory, {path for path, _ in functions})
    unreached = {}
    sources = {path: Path(path).read_text(encoding="utf-8").splitlines() for path in lines}
    for (path, _), (name, node) in functions.items():
        if name not in KEEP:
            found = unreached_statements(name, node, sources[path], lines[path])
            unreached.update((key, f"{Path(path).name}:{line}") for key, line in found.items())
    defined = {place: name for place, (name, _) in functions.items()}
    return defined, {defined[place] for place in called if place in defined}, unreached


def _listed(title, keys):
    return "\n".join([title, *sorted(keys)])


def test_every_function_runs_or_is_kept(reach):
    defined, reached, _ = reach
    names = set(defined.values())
    kept = {key for key in KEEP if ": " not in key}
    assert len(names) == len(defined)
    assert not kept - names, _listed("kept names that are not defined:", kept - names)
    assert not kept & reached, _listed("kept names that a command calls:", kept & reached)
    missing = names - reached - kept
    assert not missing, _listed("names that no command calls:", missing)


def test_every_statement_runs_or_is_kept(reach):
    _, _, unreached = reach
    kept = {key for key in KEEP if ": " in key}
    assert not kept - set(unreached), _listed(
        "kept statements that are not defined, that a command runs, "
        "or that a kept function holds:",
        kept - set(unreached),
    )
    missing = [f"{key}  ({unreached[key]})" for key in unreached if key not in kept]
    assert not missing, _listed("statements that no command runs:", missing)


def test_statement_keys_name_their_source():
    # the docstring is no statement, an unreached compound statement is
    # keyed by its header, and comment lines drop out of a key
    source = [
        "def f(x):",
        '    """Doc."""',
        "    if x:",
        "        # why",
        "        return (",
        "            1",
        "        )",
        "    return 2",
    ]
    function = ast.parse("\n".join(source)).body[0]
    assert unreached_statements("m.f", function, source, {3, 8}) == {"m.f: return ( 1 )": 5}
    assert unreached_statements("m.f", function, source, {8}) == {
        "m.f: if x:": 3,
        "m.f: return ( 1 )": 5,
    }
    # a line inside the if's body marks the if as run
    assert unreached_statements("m.f", function, source, {6}) == {"m.f: return 2": 8}
    # statements of one function with the same text are numbered in
    # source order, the nested ones included
    source = [
        "def g(x):",
        "    if x:",
        "        return 2",
        "    try:",
        "        return 2",
        "    finally:",
        "        x = 1",
        "    return 2",
    ]
    function = ast.parse("\n".join(source)).body[0]
    assert sorted(statement_keys("m.g", function, source).values()) == [
        "m.g: if x:", "m.g: return 2 #1", "m.g: return 2 #2", "m.g: return 2 #3",
        "m.g: try:", "m.g: x = 1",
    ]
    assert unreached_statements("m.g", function, source, {2, 3, 4, 7, 8}) == {
        "m.g: return 2 #2": 5,
    }


def test_each_kept_statement_names_one_statement():
    keys = Counter()
    sources = {}
    for (path, _), (name, node) in defined_functions().items():
        if path not in sources:
            sources[path] = Path(path).read_text(encoding="utf-8").splitlines()
        keys.update(statement_keys(name, node, sources[path]).values())
    assert [key for key, times in keys.items() if times > 1] == []
    kept = [key for key in KEEP if ": " in key]
    assert {key: keys[key] for key in kept if keys[key] != 1} == {}


def test_the_pass_puts_back_a_tracer_already_set(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(test_golden, "corpus", lambda _: {"grid": ["grid", "--n", "1", "--k", "3"]})

    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        called, lines = traced_runs(tmp_path, {cli.__file__})
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
    run = cli.run.__code__
    assert (run.co_filename, run.co_firstlineno) in called
    assert run.co_firstlineno + 3 in lines[cli.__file__]


def test_tracer_entries_are_tracer_targets():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {f"nodalic.{dotted}" for _, paths in tracing.TARGETS for dotted in paths}
    kept = {name for name, reason in KEEP.items() if reason == TRACER}
    assert sorted(kept - targets) == [], "kept for the tracer, but not one of its targets"
