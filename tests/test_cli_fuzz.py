"""Fuzzed command lines keep the exit-code contract.

Whatever the document or the flags, a run of ``nodalic`` exits with 0, 1
or 2 and writes nothing or exactly one line to stderr: no traceback
escapes.  Documents are valid inputs of each command with random parts
replaced, deleted or repeated; flags take small, huge, negative and
non-numeric values.  Sizes stay small or far past a named bound, so
every example runs in milliseconds.  Examples are derandomised, so every
run checks the same cases.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from nodalic import bott, cli, points

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
        degrees = draw(st.lists(st.integers(-1, 5).map(str), max_size=4))
        groups.append(["--n", draw(numbers(-1, 4, HUGE))])
        groups.append(["--degrees", ",".join(degrees)])
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
        # the sweep loops over every n, k and h up to the maxima, so only
        # small maxima (and invalid ones) are drawn
        for flag, low, high in (
            ("--max-n", 1, 3),
            ("--max-k", 1, 4),
            ("--max-h", 0, 2),
            ("--grid-cap", -1, 30),
        ):
            if draw(st.booleans()):
                groups.append([flag, draw(numbers(low, high, ["x"]))])
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
