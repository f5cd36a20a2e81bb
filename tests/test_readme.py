"""The README's Python API block runs and computes what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def api_block():
    """The code of the first ``python`` block after "## Python API"."""
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_python_api_block_states_its_values():
    ns = {}
    exec(compile(api_block(), str(README), "exec"), ns)
    assert (ns["r"], ns["r_core"], ns["r_leads"]) == (1, 1, 2)
    assert ns["pivots"] == [0, 1]
    # the rank core read its rows and left them as they were
    assert ns["rows"] == [[2, 4, 6], [1, 2, 3]]
    assert ns["json_value"] == "3/2"
    report = ns["report"]
    assert (report.rank, report.h1_ideal) == (15, 1)
    assert ns["conditions"] == report and ns["crossing"].span_dim == 2
    assert ns["fields"] == {
        "delta": 16, "degree": 5, "h0_ambient": 21, "rank": 15,
        "h0_ideal": 6, "h1_ideal": 1, "independent": False,
    }
    columns, matrix = ns["columns"], ns["matrix"]
    assert len(columns) == 21 and {len(row) for row in columns} == {16}
    assert len(matrix) == 16 and matrix == [list(row) for row in zip(*columns)]
    stalk = ns["stalk"]
    assert (stalk.h0, stalk.h1, stalk.defect) == (1, 0, 0)
