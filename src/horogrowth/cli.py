"""Command-line interface.

Subcommands:
  series  print one growth series (prefix, rational form, or LaTeX)
  spell   geodesic word for a lattice vector
  eval    evaluate a word to its normal form
  verify  run a verification suite and report pass/fail with witnesses
  census  coset census table with the certified level-series numerators

census reads its table from the closed forms and checks nothing itself:
certified_to names the horizon through which `verify --suite census`
checks the level series against the stem table.

Exit codes: 0 success, 2 verification failure, 3 budget or parse error.
JSON output is canonical: sorted keys, no whitespace, one line.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetError
from .geodesic import spell
from .group import (
    element_str,
    element_to_json,
    eval_word,
    format_word,
    is_horocyclic,
    parse_word,
)
from .growth import (
    cap_poly,
    coset_census,
    full_series,
    level_series,
    positive_series,
    prefix_suffix_series,
    relative_growth_series,
    subgroup_series,
    suffix_poly,
)
from .series import (
    ONE,
    poly_str,
    rf_latex,
    rf_normalize,
    rf_str,
    rf_to_json,
    series_prefix,
)
from .verify import SUITES, run_suite


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the budget/parse code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        shown = text if len(text) <= 20 else text[:20] + "..."
        raise ValueError(f"--vector expects comma-separated integers, got {shown!r}")


# ---------------------------------------------------------------------------
# subcommands


_SERIES_KINDS = ("W", "V", "R", "P", "sub", "full", "X0", "Xm1", "B")
# largest prefix order: at the rank cap the full series' 2000th coefficient
# has 2,572 digits, under Python's 4,300-digit int-to-string limit
TERMS_CAP = 2000


def _series_function(kind: str, m: int, n: int):
    if kind == "W":
        return rf_normalize(suffix_poly(m), ONE)
    if kind == "V":
        return rf_normalize(cap_poly(m), ONE)
    if kind == "R":
        return prefix_suffix_series(m)
    if kind == "P":
        return positive_series(m)
    if kind == "sub":
        return subgroup_series(m)
    if kind == "full":
        return full_series(m)
    if kind == "X0":
        return level_series(m).X_0
    if kind == "Xm1":
        return level_series(m).X_minus1
    if kind == "B":
        return relative_growth_series(m, n)
    raise ValueError(f"unknown series kind {kind!r}")


def _cmd_series(args) -> int:
    if args.n is not None and args.kind != "B":
        raise ValueError(f"kind {args.kind!r} takes no level depth")
    n = args.n or 0
    # --terms is checked only where a prefix is printed, and ignored elsewhere
    prefix = args.output == "json" or not (args.rational or args.output == "latex")
    if prefix and args.terms < 0:
        raise ValueError("--terms must be nonnegative")
    if prefix and args.terms > TERMS_CAP:
        raise BudgetError(f"--terms {args.terms} exceeds the supported cap {TERMS_CAP}")
    f = _series_function(args.kind, args.m, n)
    if args.output == "json":
        obj = {
            "kind": args.kind,
            "m": args.m,
            "terms": args.terms,
            "rational": rf_to_json(f),
            "prefix": series_prefix(f, args.terms).to_json()["coeffs"],
        }
        if args.kind == "B":
            obj["n"] = n
        _emit_json(obj)
    elif args.output == "latex":
        print(rf_latex(f))
    elif args.rational:
        print(rf_str(f))
    else:
        print(series_prefix(f, args.terms))
    return 0


def _cmd_spell(args) -> int:
    vec = _parse_vector(args.vector)
    word = spell(args.m, vec)
    text = format_word(word)
    if args.output == "json":
        _emit_json(
            {
                "m": args.m,
                "vector": list(vec),
                "word": text,
                "length": word.length,
            }
        )
    else:
        print(f"{text or 'ε'} (length {word.length})")
    return 0


def _cmd_eval(args) -> int:
    word = parse_word(args.word, args.m)
    g = eval_word(word)
    if args.output == "json":
        _emit_json(
            {
                "m": args.m,
                "word": args.word,
                "element": element_to_json(g),
                "display": element_str(g),
                "tau": g.tee,
                "horocyclic": is_horocyclic(g),
            }
        )
    else:
        print(element_str(g))
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.m, args.radius)
    if args.output == "json":
        _emit_json(report)
    else:
        for check in report["checks"]:
            line = ("PASS " if check["pass"] else "FAIL ") + check["name"]
            if not check["pass"] and "witness" in check:
                line += f"  witness: {check['witness']}"
            print(line)
        for diag in report.get("erratum", ()):
            print(
                f"NOTE erratum: rank {diag['m']} published full-group form "
                f"first differs at x^{diag['first_mismatch']} "
                f"(published {diag['published_prefix']}, "
                f"enumerated {diag['enumerated_prefix']})"
            )
        print(f"suite {report['suite']}: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 2


def _cmd_census(args) -> int:
    census = coset_census(args.m, args.rmax)
    fit = level_series(args.m)
    if args.output == "json":
        _emit_json(
            {
                "m": args.m,
                "rmax": args.rmax,
                "chi": census.to_json()["chi"],
                "fit": {
                    "p_hat": [str(c) for c in fit.p_hat.coeffs],
                    "q_hat": [str(c) for c in fit.q_hat.coeffs],
                    "certified_to": fit.certified_to,
                    "X_minus1": rf_to_json(fit.X_minus1),
                    "X_0": rf_to_json(fit.X_0),
                },
            }
        )
    else:
        for level in sorted(census.columns, reverse=True):
            row = " ".join(str(c) for c in census.columns[level])
            print(f"level {level}: {row}")
        print(f"p_hat = {poly_str(fit.p_hat)}")
        print(f"q_hat = {poly_str(fit.q_hat)}")
        print(f"certified through x^{fit.certified_to}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="horogrowth",
        description=(
            "Exact growth-series calculator and verifier for the groups "
            "Z^m extended by an element cubing the lattice."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output(p, choices=("plain", "json")):
        p.add_argument(
            "--output",
            choices=choices,
            default="plain",
            help="output format; json is canonical and one-line",
        )

    p = sub.add_parser("series", help="print a growth series")
    p.add_argument("--kind", required=True, choices=_SERIES_KINDS)
    p.add_argument("--m", type=int, required=True, help="lattice rank")
    p.add_argument("--terms", type=int, default=10, help="prefix order, default 10")
    p.add_argument(
        "--rational",
        action="store_true",
        help="print the canonical rational form instead of the prefix",
    )
    p.add_argument("--n", type=int, default=None, help="level depth for kind B, default 0")
    add_output(p, ("plain", "json", "latex"))
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("spell", help="geodesic word for a lattice vector")
    p.add_argument("--m", type=int, required=True, help="lattice rank")
    p.add_argument(
        "--vector",
        required=True,
        help="comma-separated integer coordinates, e.g. 10,16",
    )
    add_output(p)
    p.set_defaults(func=_cmd_spell)

    p = sub.add_parser("eval", help="evaluate a word to its normal form")
    p.add_argument("--m", type=int, required=True, help="lattice rank")
    p.add_argument("--word", required=True, help="word such as ta^2TA or ttabbTBTab")
    add_output(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--m", type=int, default=None, help="restrict to one rank")
    p.add_argument("--radius", type=int, default=None, help="enumeration radius")
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="coset census with certified level series")
    p.add_argument("--m", type=int, required=True, help="lattice rank")
    p.add_argument("--rmax", type=int, default=12, help="census horizon, default 12")
    add_output(p)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
