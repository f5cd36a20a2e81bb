"""Fuzzed command lines keep the exit-code contract; reports keep json's text.

Whatever the document or the flags, a run of ``nodalic`` exits with 0, 1
or 2 and writes nothing or exactly one line to stderr: no traceback
escapes, and a command line parsed by its command's own parser reads as
the top-level parser reads it.  Documents are valid inputs of each command with random parts
replaced, deleted or repeated; flags take small, huge, negative and
non-numeric values.  Sizes stay small or far past a named bound:
``koszul`` gets up to a few hundred degrees, either many distinct ones,
which its work bound turns away before counting, or long runs of two,
and ``paper-examples`` maxima up to 16 with a small grid cap.  Examples
are derandomised, so every run checks the same cases.  Random JSON
values render through ``cli._dumps`` to json.dumps's text.
"""

import contextlib
import io
import json
import tempfile
from collections import namedtuple
from pathlib import Path

import pytest

from nodalic import bott, cli, points
from nodalic.errors import InputError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    derandomize=True, database=None, deadline=None, max_examples=200
)

DOCUMENTS = {
    "points": points.ProjectivePointSet.from_coordinates(
        2, [[1, 2, 3], [0, 1, -1], [3, 0, 1], [1, 1, 1]]
    ).to_json(),
    "ic-stalk": {
        "dim": 4,
        "pairing": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        "cycles": [[1, 0, 0, 0], ["1/2", 0, 0, 0], [0, 0, 1, 0]],
        "h_ambient": 1,
    },
    "chase": bott.koszul_resolution(2, [3, 3]).to_json(),
}

scalars = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([10**6, -(10**6) - 1, 2**64, 10**4290, -(10**4290)]),
    st.sampled_from(["1/2", "-3/4", "1/0", "0/5", "x", "", "1" * 4400]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "points", "twist", "mult"]), inner),
    max_leaves=8,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def documents(draw, command):
    """A valid document of ``command``, often with up to three random edits."""
    doc = json.loads(json.dumps(DOCUMENTS[command]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        if not path:
            doc = draw(values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        edit = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if edit == "replace":
            parent[key] = draw(values)
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
    return doc


HUGE = [str(10**9), str(-(10**9)), "9" * 4400]
INPUT = "{input}"


def numbers(low, high, huge):
    """Flag values: mostly small ints, a few huge ones and some non-ints."""
    small = st.integers(low, high).map(str)
    return st.one_of(
        small, small, small, st.sampled_from(huge), st.sampled_from(["x", "1.5", ""])
    )


@st.composite
def command_lines(draw):
    """(argv, document); the document is written where argv says INPUT."""
    command = draw(st.sampled_from(sorted(cli._DISPATCH) + ["frobnicate"]))
    groups = []
    doc = None
    if command == "points":
        doc = draw(documents("points"))
        groups.append(["--degree", draw(numbers(-2, 6, HUGE))])
    elif command == "ic-stalk":
        doc = draw(documents("ic-stalk"))
        groups.append(["--sign", draw(st.sampled_from(["-1", "1", "0"]))])
    elif command == "chase":
        doc = draw(documents("chase"))
        groups.append(["--twist", draw(numbers(-6, 10, HUGE))])
    elif command == "koszul":
        degrees = draw(
            st.one_of(
                st.lists(st.integers(-1, 5), max_size=4),
                st.lists(st.integers(1, 400), min_size=120, max_size=300),
                st.lists(st.integers(1, 2), min_size=50, max_size=300),
            )
        )
        if len(degrees) > 4 and draw(st.integers(0, 4)):
            n = str(len(degrees))
        else:
            n = draw(numbers(-1, 4, HUGE))
        groups.append(["--n", n])
        groups.append(["--degrees", ",".join(map(str, degrees))])
    elif command == "eagon-northcott":
        # n = h = 10000 fails by name on its first multiplicity; a large n
        # with a small h would be a slow but valid request
        n, h = draw(
            st.one_of(
                st.tuples(numbers(-1, 6, ["x"]), numbers(-1, 6, ["x"])),
                st.just(("10000", "10000")),
            )
        )
        groups += [["--n", n], ["--quadrics", h]]
    elif command == "grid":
        groups.append(["--n", draw(numbers(-1, 3, HUGE))])
        groups.append(["--k", draw(numbers(0, 5, HUGE))])
    elif command == "paper-examples":
        # the sweep loops over every n, k and h up to the maxima and ranks
        # every grid of at most --grid-cap points (1000 by default), so
        # large maxima always come with a small cap
        large = draw(st.booleans())
        for flag, low, high in (
            ("--max-n", 1, 3),
            ("--max-k", 1, 4),
            ("--max-h", 0, 2),
            ("--grid-cap", -1, 30),
        ):
            if large and flag != "--grid-cap":
                value = str(draw(st.integers(high + 1, 16)))
            elif large or draw(st.booleans()):
                value = draw(numbers(low, high, ["x"]))
            else:
                continue
            groups.append([flag, value])
    if command in ("koszul", "eagon-northcott") and draw(st.booleans()):
        groups.append(["--twist", draw(numbers(-6, 10, HUGE))])
    if draw(st.booleans()):
        groups.append(["--json"])
    if doc is not None and draw(st.integers(0, 9)):
        groups.append(["--input", INPUT])
    if draw(st.integers(0, 9)) == 0:
        groups.append([draw(st.sampled_from(["--bogus", "--out", "--help"]))])
    # a dropped value, as in "--degree" with nothing after it
    if groups and draw(st.integers(0, 9)) == 0:
        groups[-1] = groups[-1][:1]
    groups = draw(st.permutations(groups))
    return [command] + [arg for group in groups for arg in group], doc


@SETTINGS
@hypothesis.given(command_lines())
def test_exit_code_and_one_line_of_stderr(case):
    argv, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(path) if arg == INPUT else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as done:  # --help prints usage and exits
                code = done.code
    assert code in (0, 1, 2)
    # nothing, or one line ended by its newline
    text = err.getvalue()
    assert text.count("\n") == len(text.splitlines()) <= 1


def _parse_outcome(parse, argv):
    """The parsed namespace, error text or exit code, and what the parse printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            result = ("args", vars(parse(argv)))
        except InputError as err:
            result = ("error", str(err))
        except SystemExit as done:  # -h prints usage and exits
            result = ("exit", done.code)
    return result, out.getvalue()


def assert_parses_as_the_top_level_parser(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(cli._PARSER.parse_args, argv)


@SETTINGS
@hypothesis.given(command_lines())
def test_a_command_parses_as_the_top_level_parser(case):
    assert_parses_as_the_top_level_parser(case[0])


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["pointz", "--input", "x.json", "--degree", "2"],
        ["--", "points", "--input", "x.json", "--degree", "2"],
        ["--json", "points", "--input", "x.json", "--degree", "2"],
        ["points", "--input", "x.json", "--degree", "2", "extra"],
        ["points", "--input", "x.json"],
        ["points", "--input", "x.json", "--degree", "x"],
        ["points", "--input", "x.json", "--", "--degree", "2"],
        ["ic-stalk", "--input", "x.json", "--sign", "2"],
        ["points", "--inp", "x.json", "--deg", "2"],
        ["points", "--input=x.json", "--degree", "2"],
        ["points", "--input", "x.json", "--degree", "-1", "--he"],
        ["points", "-h"],
        ["paper-examples", "--max", "3"],
        ["koszul", "--n", "2", "--degrees", "2,2", "--json", "--out"],
    ],
)
def test_an_edge_line_parses_as_the_top_level_parser(argv):
    assert_parses_as_the_top_level_parser(argv)


def test_a_command_line_that_names_its_command_skips_the_top_level_parser(monkeypatch):
    monkeypatch.setattr(cli, "_PARSER", None)
    args = cli._parse_args(["points", "--input", "x.json", "--degree", "2"])
    assert vars(args) == {
        "command": "points", "input": "x.json", "degree": 2, "json": False, "out": None,
    }


Pair = namedtuple("Pair", "left right")

# quotes, backslashes, control characters and non-ASCII, from the BMP
# and past it
awkward_characters = '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'
awkward_text = st.text(st.one_of(st.characters(), st.sampled_from(awkward_characters)), max_size=8)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-(2**64) - 1, 2**64, 2**64 + 1, -(2**200), 10**400]),
    awkward_text,
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(Pair, inner, inner),
        st.dictionaries(awkward_text, inner, max_size=4),
    ),
    max_leaves=24,
)


@SETTINGS
@hypothesis.given(json_values)
def test_reports_render_as_json_dumps_writes_them(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def _circular():
    value = [1]
    value.append(value)
    return value


@pytest.mark.parametrize(
    "value",
    [
        [1.5, -0.0, float("inf"), float("nan")],
        {"ratio": 0.25},
        {10: "ten", 9: "nine"},
        {"a": {2: None, 1: [{}]}},
        {"a", "b"},
        {"a": 1, 2: "b"},
        _circular(),
    ],
)
def test_other_values_render_or_fail_as_json_dumps_does(value):
    def outcome(render):
        try:
            return render(value)
        except (TypeError, ValueError) as err:
            return type(err), str(err)

    assert outcome(cli._dumps) == outcome(
        lambda v: json.dumps(v, indent=2, sort_keys=True) + "\n"
    )
