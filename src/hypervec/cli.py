"""Command-line front end.

Subcommands:
    check <file> [--json PATH] [--seed N] [--samples N] [--depth N]
    essential <file> --a SCALAR --x VECTOR
    sup <file> --a SCALAR --x VECTOR --y VECTOR
    catalog

Exit codes: 0 when every reported item passed (or was vacuous), 1 when
any item failed or hit an unbounded supremum, 2 on usage, parse, or
semantic errors. A flag given on the command line beats the same
parameter in a check directive; a directive parameter beats the
built-in default.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from .catalog import CATALOG_NOTES, EXPECTED_VERDICTS
from .checker import (
    CheckReport,
    SUITE_NAMES,
    SampleConfig,
    plan_run,
    render_json,
    report_document,
    run_suites,
)
from .dsl import ModelFile, ModelFileError, parse_model_file
from .essential import essential_points
from .inner import DotProduct, UnboundedSupremumError, sup_pairing
from .scalars import parse_scalar
from .vectors import Vector, parse_vector


def _load_model_file(path: str) -> ModelFile:
    # read as bytes: the lexer counts lines at \n only, so a lone \r must
    # reach it as it is for its positions to be the file's
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # positioned as the lexer counts: a column is one character
        lines = data[: exc.start].decode("utf-8").split("\n")
        raise ModelFileError(
            f"invalid UTF-8 byte {data[exc.start]:#04x}", len(lines), len(lines[-1]) + 1
        ) from None
    return parse_model_file(text)


def _effective_config(params: dict[str, int], args: argparse.Namespace) -> SampleConfig:
    flags = {"seed": args.seed, "samples": args.samples}
    cfg = SampleConfig(**{
        **{key: value for key, value in params.items() if key != "depth"},
        **{key: value for key, value in flags.items() if value is not None},
    })
    # --depth is accepted for old scripts and read by nothing, but checked
    if args.depth is not None and args.depth < 1:
        raise ValueError("depth must be positive")
    return cfg


def _print_report(report: CheckReport, out: IO[str]) -> None:
    print(f"== {report.model} :: {report.suite} ==", file=out)
    for item in report.items:
        print(
            f"  [{item.status}] {item.id}: {item.anchor}  ({item.samples} samples)",
            file=out,
        )
        for witness in item.witnesses:
            bindings = "  ".join(f"{k} = {v}" for k, v in witness.bindings.items())
            print(f"      {bindings}", file=out)
            print(f"      -> {witness.relation}", file=out)


def _cmd_check(args: argparse.Namespace) -> int:
    mf = _load_model_file(args.file)
    # the flags alone: a bad flag exits 2 even when no directive runs, and
    # the report's seed is --seed or the default
    flags_cfg = _effective_config({}, args)
    cfgs = [_effective_config(directive.params, args) for directive in mf.checks]
    reports: list[CheckReport] = []
    memo: dict = {}  # shared by the directives, so no report is computed twice
    # planned whole, so one pass over each sample stream serves every directive
    plan_run(memo, mf.model, mf.inner, zip((d.suite for d in mf.checks), cfgs))
    for directive, cfg in zip(mf.checks, cfgs):
        reports.extend(run_suites(mf.model, mf.inner, cfg, [directive.suite], memo))
    if not mf.checks:
        print("nothing to run: the file declares no check directives")
    for report in reports:
        _print_report(report, sys.stdout)
    if args.json is not None:
        doc = report_document(mf.model.describe(), flags_cfg.seed, reports)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(render_json(doc))
    return 0 if all(report.clean for report in reports) else 1


def _vector(mf: ModelFile, text: str) -> Vector:
    """The vector text in the model's field, admitted by the model."""
    return mf.model.admit_vector(parse_vector(text, mf.model.field))


def _cmd_essential(args: argparse.Namespace) -> int:
    mf = _load_model_file(args.file)
    a = parse_scalar(args.a, mf.model.field)
    x = _vector(mf, args.x)
    print(f"E = {essential_points(mf.model, a, x)} (complete)")
    return 0


def _cmd_sup(args: argparse.Namespace) -> int:
    mf = _load_model_file(args.file)
    ip = mf.inner or DotProduct()
    a = parse_scalar(args.a, mf.model.field)
    x, y = _vector(mf, args.x), _vector(mf, args.y)
    try:
        result = sup_pairing(mf.model, ip, a, x, y)
    except UnboundedSupremumError:
        print("sup is unbounded")
        return 0
    if result.attained:
        print(f"sup = {result.value} (attained at {result.witness})")
    else:
        print(f"sup = {result.value} (not attained)")
    return 0


def _cmd_catalog(_args: argparse.Namespace) -> int:
    names = list(EXPECTED_VERDICTS)  # in the catalog's order
    rows = [["suite", *names]] + [
        [suite, *(EXPECTED_VERDICTS[name][suite] for name in names)] for suite in SUITE_NAMES
    ]
    # each column as wide as its longest cell and two spaces more
    widths = [max(map(len, column)) + 2 for column in zip(*rows)]
    for row in rows:
        print("".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print()
    print("notes:")
    for name in names:
        print(f"  {name}: {CATALOG_NOTES[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypervec",
        description="run verification suites over set-valued scalar products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a model file's check directives")
    p_check.add_argument("file", help="path to a .hvs model file")
    p_check.add_argument("--json", metavar="PATH", help="also write a JSON report")
    p_check.add_argument("--seed", type=int, help="override the sampling seed")
    p_check.add_argument("--samples", type=int, help="override the sample count")
    p_check.add_argument(
        "--depth", type=int, help="accepted for old scripts; changes no report"
    )
    p_check.set_defaults(func=_cmd_check)

    p_ess = sub.add_parser("essential", help="compute an essential-point set")
    p_ess.add_argument("file", help="path to a .hvs model file")
    p_ess.add_argument("--a", required=True, help="scalar, e.g. 3 or 1/2 or 1+1*i")
    p_ess.add_argument("--x", required=True, help="vector, e.g. \"(1, 2)\"")
    p_ess.set_defaults(func=_cmd_essential)

    p_sup = sub.add_parser("sup", help="supremum of the pairing over a o x")
    p_sup.add_argument("file", help="path to a .hvs model file")
    p_sup.add_argument("--a", required=True, help="scalar")
    p_sup.add_argument("--x", required=True, help="vector")
    p_sup.add_argument("--y", required=True, help="vector paired against")
    p_sup.set_defaults(func=_cmd_sup)

    p_cat = sub.add_parser("catalog", help="print the built-in verdict table")
    p_cat.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ModelError and ModelFileError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
