"""Command-line reports over the exact engines.

One executable, ``nodalic``, with a subcommand per engine plus a
self-verifying sweep (``paper-examples``) that tabulates the chase
verdicts for the two node configurations and cross-checks them against
explicit grid ranks where those are cheap.  Exit codes are part of the
contract: 0 success, 1 malformed input, 2 violated precondition or a
sweep cell deviating from its asserted verdict.

Each command imports the engines it uses when it runs, so a process
loads only those: ``points`` never imports :mod:`nodalic.bott` or
:mod:`nodalic.monodromy`.

A command line that starts with a command name is parsed once, by that
command's own parser.  The top-level parser sees only the command lines
that do not: none at all, ``-h``, ``--`` or an option before the
command, or an unknown command.  Parse errors raise their bare message,
so a command's errors read the same either way.
"""

import argparse
import json
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii

from .errors import InputError, PreconditionError, check_int, unreportable

_EXPECTED_EN_MAX_H = 2
_SEVERI_SAMPLES = ((3, 1), (4, 0), (4, 4), (5, 2), (7, 3), (9, 4))


# the keys of each paper-examples table's cells, in column order; the
# text table heads each column with its key, or with its _HEADERS entry
_CI_COLUMNS = (
    "n", "k", "delta", "chase_vanishes", "exact_h1", "grid_h1", "consistent",
    "expected_vanishes", "matches",
)
_EN_COLUMNS = ("n", "h", "node_count", "chase_vanishes", "expected_vanishes", "matches")
_SEVERI_COLUMNS = ("N", "delta", "expected_dim")
_HEADERS = {"expected_vanishes": "expected"}


def _cell(columns, *values):
    return dict(zip(columns, values, strict=True))


class PaperExamplesReport(
    namedtuple("PaperExamplesReport", "ci_table en_table severi_samples all_match")
):
    """Verdict tables for both node configurations plus sample dimensions.

    Each table is a tuple of cells, dicts keyed as its columns.
    ``all_match`` is the self-check: every chase verdict equals the
    asserted one and every computed grid column is consistent with its
    chase column.
    """

    __slots__ = ()


def paper_examples(max_n=6, max_k=8, max_h=6, grid_cap=1000):
    """Sweep both tables and self-check them against asserted verdicts.

    The complete-intersection cells also get an explicit evaluation-rank
    column whenever the grid has at most ``grid_cap`` points; the chase
    bound and the rank must then agree (sufficiency in one direction,
    exact value when the chase certifies one).
    """
    from . import bott, points

    check_int(max_n, "max_n", minimum=2)
    check_int(max_k, "max_k", minimum=2)
    check_int(max_h, "max_h", minimum=1)
    check_int(grid_cap, "grid_cap", minimum=0)
    all_match = True

    ci_table = []
    for n in range(2, max_n + 1):
        for k in range(2, max_k + 1):
            verdict = bott.h1_vanishing_chase(
                bott.koszul_resolution(n, [k - 1] * n), k
            )
            delta = points.node_count_ci(n, k)
            grid_h1 = None
            consistent = None
            if delta <= grid_cap:
                grid = points.grid_nodes(n, k)
                grid_h1 = points.conditions_report(grid, k).h1_ideal
                consistent = (not verdict.vanishes or grid_h1 == 0) and (
                    verdict.exact_h1 is None or verdict.exact_h1 == grid_h1
                )
            expected = k in bott.ci_threshold(n).admissible_k
            matches = verdict.vanishes == expected and consistent is not False
            all_match = all_match and matches
            ci_table.append(
                _cell(
                    _CI_COLUMNS, n, k, delta, verdict.vanishes, verdict.exact_h1,
                    grid_h1, consistent, expected, matches,
                )
            )

    en_table = []
    for n in range(2, max_n + 1):
        for h in range(1, max_h + 1):
            verdict = bott.h1_vanishing_chase(
                bott.eagon_northcott_resolution(n, h), 2
            )
            expected = h <= _EXPECTED_EN_MAX_H
            matches = verdict.vanishes == expected
            all_match = all_match and matches
            en_table.append(
                _cell(
                    _EN_COLUMNS, n, h, points.node_count_quadrics(n, h),
                    verdict.vanishes, expected, matches,
                )
            )

    severi = tuple(
        _cell(_SEVERI_COLUMNS, big_n, r, points.severi_expected_dim(big_n, r))
        for big_n, r in _SEVERI_SAMPLES
    )
    return PaperExamplesReport(
        ci_table=tuple(ci_table),
        en_table=tuple(en_table),
        severi_samples=severi,
        all_match=all_match,
    )


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; here that status is
    # reserved for precondition violations, so route parse failures
    # through InputError -> exit 1 instead
    def error(self, message):
        raise InputError(message)


def _build_parser():
    """The top-level parser and the parser of each command, by name."""
    shared = _Parser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", help="emit the JSON report instead of text"
    )
    shared.add_argument("--out", help="also write the JSON report to this file")

    parser = _Parser(prog="nodalic", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    p = commands.add_parser(
        "ic-stalk",
        parents=[shared],
        help="stalk report from a monodromy JSON document",
    )
    p.add_argument("--input", required=True, help="monodromy JSON document")
    p.add_argument(
        "--sign",
        type=int,
        choices=(-1, 1),
        default=-1,
        help="sign convention for the monodromy logarithms (default -1)",
    )

    p = commands.add_parser(
        "points",
        parents=[shared],
        help="independence report for a point-set JSON document",
    )
    p.add_argument("--input", required=True, help="point-set JSON document")
    p.add_argument("--degree", required=True, type=int, help="form degree")

    p = commands.add_parser(
        "chase",
        parents=[shared],
        help="h1 chase over a resolution JSON document",
    )
    p.add_argument("--input", required=True, help="resolution JSON document")
    p.add_argument("--twist", required=True, type=int, help="target twist")

    p = commands.add_parser(
        "koszul",
        parents=[shared],
        help="complete-intersection resolution, optionally chased",
    )
    p.add_argument("--n", required=True, type=int, help="ambient dimension")
    p.add_argument(
        "--degrees",
        required=True,
        help="comma-separated degrees of the regular sequence, e.g. 3,3",
    )
    p.add_argument("--twist", type=int, help="chase this target twist")

    p = commands.add_parser(
        "eagon-northcott",
        parents=[shared],
        help="degeneracy-locus resolution, optionally chased",
    )
    p.add_argument("--n", required=True, type=int, help="ambient dimension")
    p.add_argument("--quadrics", required=True, type=int, help="number h of extra quadrics")
    p.add_argument("--twist", type=int, help="chase this target twist")

    p = commands.add_parser(
        "grid",
        parents=[shared],
        help="emit the (k-1)^n rational grid nodes as a point-set document",
    )
    p.add_argument("--n", required=True, type=int, help="ambient dimension")
    p.add_argument("--k", required=True, type=int, help="hypersurface degree")

    p = commands.add_parser(
        "paper-examples",
        parents=[shared],
        help="reproduce and self-check both verdict tables",
    )
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-k", type=int, default=8)
    p.add_argument("--max-h", type=int, default=6)
    p.add_argument(
        "--grid-cap",
        type=int,
        default=1000,
        help="compute the grid rank column only up to this many points",
    )
    return parser, commands.choices


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise InputError(f"{path} is not UTF-8 text: {err}") from err
    except RecursionError as err:
        raise InputError(f"{path} nests JSON values too deeply to parse") from err
    except ValueError as err:
        # JSONDecodeError, or an integer literal past int()'s digit limit
        raise InputError(f"{path} is not valid JSON: {err}") from err


def _parse_degrees(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise InputError(f"--degrees must be comma-separated integers: {err}") from err
    if not values:
        raise InputError("--degrees must list at least one degree")
    return values


def _verdict_lines(verdict):
    lines = [
        f"target twist: {verdict.target_twist}",
        f"vanishes: {str(verdict.vanishes).lower()}",
        f"upper bound for h1: {verdict.upper_bound}",
    ]
    if verdict.exact_h1 is None:
        lines.append("exact h1: not certified")
    else:
        lines.append(f"exact h1: {verdict.exact_h1}")
    for p, twist, value in verdict.obstructions:
        lines.append(f"obstruction at position {p}: twist {twist}, dimension {value}")
    return lines


def _sum_text(term):
    return " + ".join(
        f"O({a})" if r == 1 else f"O({a})^{r}" for a, r in term.summands
    )


def _resolution_lines(res):
    lines = [
        f"ambient dimension: {res.ambient_dim}",
        f"resolved twist: {res.resolved_twist}",
    ]
    for i, term in enumerate(res.terms, start=1):
        lines.append(f"term {i}: {_sum_text(term)}")
    return lines


def _table_lines(columns, cells):
    # a missing value (None) shows as "-"
    cells = [[_HEADERS.get(key, key) for key in columns]] + [
        ["-" if cell[key] is None else str(cell[key]) for key in columns]
        for cell in cells
    ]
    widths = [max(len(line[i]) for line in cells) for i in range(len(columns))]
    out = []
    for line in cells:
        out.append("  ".join(text.ljust(w) for text, w in zip(line, widths)).rstrip())
    return out


def _run_ic_stalk(args):
    from . import monodromy

    data = monodromy.MonodromyData.from_json(_load_json(args.input))
    report = monodromy.ic_stalk(data, sign=args.sign)
    graded_0, graded_1 = report.filtration
    lines = [
        f"h0: {report.h0}",
        f"h1: {report.h1}",
        f"higher: {list(report.higher)}",
        f"span_dim: {report.span_dim}",
        f"excision_rank: {report.excision_rank}",
        f"h_top_singular: {report.h_top_singular}",
        f"defect: {report.defect}",
        f"filtration: negative 0, graded 0 piece {graded_0}, graded 1 piece {graded_1}",
    ]
    return report._asdict(), lines, 0


def _run_points(args):
    from . import points

    pts = points.ProjectivePointSet.from_json(_load_json(args.input))
    conditions, crossing = points.point_reports(pts, args.degree)
    span = crossing.span_dim
    report = {
        "conditions": conditions._asdict(),
        "node_span_dim": span,
        "normal_crossing": crossing.to_json(),
    }
    lines = [
        f"points: {conditions.delta}",
        f"degree: {conditions.degree}",
        f"h0_ambient: {conditions.h0_ambient}",
        f"rank: {conditions.rank}",
        f"h0_ideal: {conditions.h0_ideal}",
        f"h1_ideal: {conditions.h1_ideal}",
        f"independent: {str(conditions.independent).lower()}",
        f"node_span_dim: {span}",
        f"independent_branches: {str(crossing.independent_branches).lower()}",
        f"tangent_intersection_dim: {crossing.tangent_intersection_dim}",
    ]
    return report, lines, 0


def _run_chase(args):
    from . import bott

    res = bott.Resolution.from_json(_load_json(args.input))
    verdict = bott.h1_vanishing_chase(res, args.twist)
    return verdict.to_json(), _verdict_lines(verdict), 0


def _run_koszul(args):
    from . import bott

    res = bott.koszul_resolution(args.n, _parse_degrees(args.degrees))
    if args.twist is None:
        return res.to_json(), _resolution_lines(res), 0
    verdict = bott.h1_vanishing_chase(res, args.twist)
    report = {"resolution": res.to_json(), "verdict": verdict.to_json()}
    return report, _resolution_lines(res) + _verdict_lines(verdict), 0


def _run_eagon_northcott(args):
    from . import bott, points

    res = bott.eagon_northcott_resolution(args.n, args.quadrics)
    count = points.node_count_quadrics(args.n, args.quadrics)
    report = {"resolution": res.to_json(), "node_count": count}
    lines = _resolution_lines(res) + [f"node count: {count}"]
    if args.twist is not None:
        verdict = bott.h1_vanishing_chase(res, args.twist)
        report["verdict"] = verdict.to_json()
        lines += _verdict_lines(verdict)
    return report, lines, 0


def _run_grid(args):
    from . import points

    pts = points.grid_nodes(args.n, args.k)
    report = pts.to_json()
    lines = [
        f"ambient dimension: {pts.ambient_dim}",
        f"points: {pts.delta}",
    ]
    # the report's entries print as the Fractions they encode
    for point in report["points"]:
        lines.append("  (" + ", ".join(str(x) for x in point) + ")")
    return report, lines, 0


def _run_paper_examples(args):
    report = paper_examples(
        max_n=args.max_n,
        max_k=args.max_k,
        max_h=args.max_h,
        grid_cap=args.grid_cap,
    )
    lines = ["complete intersection nodes, chase at twist k"]
    lines += _table_lines(_CI_COLUMNS, report.ci_table)
    lines.append("")
    lines.append("quadric degeneracy nodes, chase at twist 2")
    lines += _table_lines(_EN_COLUMNS, report.en_table)
    lines.append("")
    lines.append("expected nodal-locus dimensions")
    lines += _table_lines(_SEVERI_COLUMNS, report.severi_samples)
    lines.append("")
    lines.append(f"all asserted verdicts match: {str(report.all_match).lower()}")
    return report._asdict(), lines, 0 if report.all_match else 2


_DISPATCH = {
    "ic-stalk": _run_ic_stalk,
    "points": _run_points,
    "chase": _run_chase,
    "koszul": _run_koszul,
    "eagon-northcott": _run_eagon_northcott,
    "grid": _run_grid,
    "paper-examples": _run_paper_examples,
}


def _json_text(value, indent):
    # json.encoder's isinstance order; a float, or any other type, raises
    # TypeError, and so does a key that is not a str
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in sorted(value.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"{type(value).__name__} is left to json.dumps")


def _dumps(report):
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    CPython's C encoder takes no ``indent`` (checked on 3.11), so
    json.dumps runs its generator-based pure-Python encoder on every
    report.  This joins the same text directly, with json's own string
    escaper and ``int.__repr__`` for the leaves.  Reports hold str-keyed dicts,
    lists, tuples, str, int, bool and None; anything else, and a
    structure too deep or cyclic to recurse through, is handed to
    json.dumps itself, so the text or the error is json's.
    """
    try:
        return _json_text(report, "") + "\n"
    except (TypeError, RecursionError):
        return json.dumps(report, indent=2, sort_keys=True) + "\n"


# built once: parsing never changes the parser, and a parser per call
# costs far more than the parse and leaves cyclic garbage behind
_PARSER, _COMMANDS = _build_parser()


def _parse_args(argv):
    """Parse a command line once, by its command's parser where it names one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _COMMANDS.get(argv[0]) if argv else None
    if parser is None:
        return _PARSER.parse_args(argv)
    args = parser.parse_args(argv[1:])
    args.command = argv[0]
    return args


def run(argv=None):
    """Execute one command line; returns the exit code."""
    try:
        args = _parse_args(argv)
        report, lines, code = _DISPATCH[args.command](args)
        # rendered once, for stdout and --out alike
        document = _dumps(report) if args.json or args.out is not None else None
        text = document if args.json else "\n".join(lines) + "\n"
        if args.out is not None:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(document)
            except OSError as err:
                raise InputError(f"cannot write {args.out}: {err}") from err
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except PreconditionError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # str() refuses an int past the interpreter's digit limit; the
        # engines bound their counts with check_reportable, so this only
        # catches one they missed.  Any other ValueError is a fault.
        if "integer string conversion" not in str(err):
            raise
        print(f"precondition violated: {unreportable('number')}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if code == 2:
        print("precondition violated: a sweep cell deviates from its asserted verdict", file=sys.stderr)
    return code


def entry():
    sys.exit(run())
