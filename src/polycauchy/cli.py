"""Command-line interface.

Four subcommands: ``gen`` (sequence tables), ``expand`` (connection
coefficients against a target basis, with a reconstruction check),
``verify`` (the identity suite over a configurable grid) and ``series``
(generating-function coefficients).  Output formats: text (default), json
and csv; every rational is written in the canonical ``num/den`` form, and
CSV cells holding rationals are quoted strings so spreadsheets keep them
intact.

Every subcommand writes through ``_emit``; ``verify`` adds a JSON ``meta``
block (the run's timestamp) after ``rows``, so ``rows`` stay deterministic.

Exit codes: 0 success, 1 verification failures, 2 usage errors, including
requests beyond a table's size limit and output files that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Sequence

from . import second_kind as sk
from . import sequences as seq
from .exact import format_rational, parse_rational
from .poly import Basis, Polynomial
from .verify import DEFAULT_LAMBDAS, GridConfig, GridConfigError, catalog_ids, run_suite

__all__ = ["main", "build_parser"]

GEN_SEQUENCES = (
    "polycauchy2-number",
    "polycauchy2-poly",
    "stirling1",
    "bernoulli2",
    "bernoulli-order",
    "frobenius-euler",
    "narumi",
)


class UsageError(Exception):
    """Bad arguments discovered after parsing; reported on stderr, exit 2."""


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Negative rationals such as "-1/3" must parse as flag values, not as options;
# argparse only recognizes plain negative numbers out of the box.  If this
# private knob ever disappears, the "--lambda=-1/3" form still works.
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _subparser(sub, name: str, parents, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, parents=parents, help=help)
    parser._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycauchy",
        description="Exact tables, basis expansions and identity verification "
        "for poly-Cauchy numbers and polynomials of the second kind.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument("--output", default=None, help="write to this file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    gen = _subparser(sub, "gen", [common], "tabulate a sequence for n = 0..n-max")
    gen.add_argument("sequence", choices=GEN_SEQUENCES)
    gen.add_argument("--n-max", type=int, required=True)
    gen.add_argument("--k", type=int, help="order of the polylog-factorial weight")
    gen.add_argument("--alpha", type=int, help="higher-order Bernoulli order")
    gen.add_argument("--r", type=int, help="Frobenius-Euler order")
    gen.add_argument("--lambda", dest="lam", type=_rational_flag, help="Frobenius-Euler parameter")
    gen.add_argument("--a", type=int, help="Narumi order")
    gen.set_defaults(handler=_cmd_gen)

    expand = _subparser(
        sub, "expand", [common], "connection coefficients of one polynomial in a basis"
    )
    expand.add_argument("--n", type=int, required=True)
    expand.add_argument("--k", type=int, required=True)
    expand.add_argument(
        "--basis",
        required=True,
        help="falling | bernoulli:R | frobenius:R:LAMBDA (LAMBDA in num/den form)",
    )
    expand.set_defaults(handler=_cmd_expand)

    verify = _subparser(sub, "verify", [common], "run the identity suite over a grid")
    verify.add_argument("--n-max", type=int, default=12)
    verify.add_argument("--k-min", type=int, default=-3)
    verify.add_argument("--k-max", type=int, default=3)
    verify.add_argument("--r-max", type=int, default=4)
    verify.add_argument(
        "--lambda",
        dest="lambdas",
        type=_rational_flag,
        action="append",
        help="Frobenius-Euler parameter (repeatable; default -1, 2, 1/2, -1/3)",
    )
    verify.add_argument(
        "--identity",
        dest="identities",
        action="append",
        help="identity id to run (repeatable; default: whole catalog)",
    )
    verify.set_defaults(handler=_cmd_verify)

    series = _subparser(
        sub, "series", [common], "coefficients of a named generating function"
    )
    series.add_argument(
        "which", help="lif:K | polycauchy-gf:K | bernoulli2-gf | narumi-gf:A"
    )
    series.add_argument("--order", type=int, required=True)
    series.set_defaults(handler=_cmd_series)

    return parser


# ---------------------------------------------------------------------------
# Output plumbing

def _poly_strings(p: Polynomial) -> list[str]:
    return [format_rational(c) for c in p.coeffs]


def _render_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c, "")) for c in columns])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    if isinstance(value, dict):
        return " ".join(f"{k}={v}" for k, v in value.items())
    return value


def _render_text(columns: list[str], rows: list[dict]) -> str:
    cells = [[str(_csv_cell(row.get(c))) for c in columns] for row in rows]
    widths = [max([len(c)] + [len(line[i]) for line in cells]) for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for line in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip())
    return "\n".join(out)


def _emit(args, command: str, params: dict, rows: list[dict], columns: list[str],
          text: str | None = None, meta: dict | None = None) -> None:
    if args.format == "json":
        payload = {"command": command, "params": params, "rows": rows}
        if meta is not None:
            payload["meta"] = meta
        rendered = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        rendered = _render_csv(columns, rows)
    else:
        rendered = (text if text is not None else _render_text(columns, rows)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)


def _require(args, name: str, flag: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"sequence {args.sequence!r} requires {flag}")
    return value


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_gen(args) -> int:
    if args.n_max < 0:
        raise UsageError("--n-max must be non-negative")
    name = args.sequence
    params: dict = {"sequence": name, "n_max": args.n_max}
    rows: list[dict] = []
    if name == "polycauchy2-number":
        k = _require(args, "k", "--k")
        params["k"] = k
        columns = ["n", "value"]
        rows = [{"n": n, "value": format_rational(sk.number_closed(n, k))}
                for n in range(args.n_max + 1)]
    elif name == "polycauchy2-poly":
        k = _require(args, "k", "--k")
        params["k"] = k
        columns = ["n", "coefficients"]
        rows = [{"n": n, "coefficients": _poly_strings(sk.poly_closed(n, k))}
                for n in range(args.n_max + 1)]
    elif name == "stirling1":
        columns = ["n", "values"]
        rows = [
            {"n": n, "values": [format_rational(seq.stirling1(n, l)) for l in range(n + 1)]}
            for n in range(args.n_max + 1)
        ]
    elif name == "bernoulli2":
        columns = ["n", "coefficients"]
        rows = [{"n": n, "coefficients": _poly_strings(seq.bernoulli_2nd_poly(n))}
                for n in range(args.n_max + 1)]
    elif name == "bernoulli-order":
        alpha = _require(args, "alpha", "--alpha")
        params["alpha"] = alpha
        columns = ["n", "coefficients"]
        rows = [{"n": n, "coefficients": _poly_strings(seq.bernoulli_high_order_poly(n, alpha))}
                for n in range(args.n_max + 1)]
    elif name == "frobenius-euler":
        r = _require(args, "r", "--r")
        lam = _require(args, "lam", "--lambda")
        if r < 0:
            raise UsageError("--r must be non-negative")
        if lam == 1:
            raise UsageError("Frobenius-Euler parameter must differ from 1")
        params["r"] = r
        params["lambda"] = format_rational(lam)
        columns = ["n", "coefficients"]
        rows = [{"n": n, "coefficients": _poly_strings(seq.frobenius_euler_poly(n, r, lam))}
                for n in range(args.n_max + 1)]
    else:  # narumi
        a = _require(args, "a", "--a")
        params["a"] = a
        columns = ["n", "coefficients"]
        rows = [{"n": n, "coefficients": _poly_strings(seq.narumi_poly(n, a))}
                for n in range(args.n_max + 1)]
    _emit(args, "gen", params, rows, columns)
    return 0


def _parse_basis_spec(spec: str) -> Basis:
    name, _, rest = spec.partition(":")
    try:
        if name == "falling":
            if rest:
                raise UsageError("the falling basis takes no parameters")
            return Basis.falling_factorial()
        if name == "bernoulli":
            return Basis.higher_order_bernoulli(int(rest))
        if name == "frobenius":
            r_text, sep, lam_text = rest.partition(":")
            if not sep:
                raise UsageError("frobenius basis needs frobenius:R:LAMBDA")
            return Basis.frobenius_euler(int(r_text), parse_rational(lam_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad basis spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown basis {name!r}; use falling, bernoulli:R or frobenius:R:LAMBDA")


def _cmd_expand(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be non-negative")
    matrix = sk.connection(args.n, args.k, _parse_basis_spec(args.basis))
    check = "pass" if matrix.reconstruct() == sk.poly_closed(args.n, args.k) else "fail"
    params = {"n": args.n, "k": args.k, "basis": args.basis}
    row = {**params, "coefficients": [format_rational(c) for c in matrix.entries], "check": check}
    _emit(args, "expand", params, [row], list(row))
    return 0 if check == "pass" else 1


def _cmd_verify(args) -> int:
    lambdas = tuple(args.lambdas) if args.lambdas else DEFAULT_LAMBDAS
    identities = tuple(args.identities) if args.identities else None
    try:
        config = GridConfig(
            n_max=args.n_max,
            k_range=(args.k_min, args.k_max),
            r_range=(0, args.r_max),
            lambdas=lambdas,
            identities=identities,
        )
        report = run_suite(config)
    except GridConfigError as exc:
        raise UsageError(str(exc)) from None
    params = {
        "n_max": config.n_max,
        "k_range": list(config.k_range),
        "r_range": list(config.r_range),
        "lambdas": [format_rational(v) for v in config.lambdas],
        "y_values": [format_rational(v) for v in config.y_values],
        "identities": sorted(config.identities) if config.identities else sorted(catalog_ids()),
    }
    columns = ["identity", "params", "status", "lhs", "rhs"]
    meta = {"generated_at": datetime.now(timezone.utc).isoformat()}
    _emit(args, "verify", params, report.rows(), columns, text=report.to_text(), meta=meta)
    return 0 if report.failure_count == 0 else 1


def _cmd_series(args) -> int:
    if args.order < 0:
        raise UsageError("--order must be non-negative")
    name, _, param = args.which.partition(":")
    order = args.order
    try:
        if name == "lif":
            gf = seq.lif_series(int(param), order)
        elif name == "polycauchy-gf":
            gf = sk.gf_number_series(int(param), order)
        elif name == "bernoulli2-gf":
            if param:
                raise UsageError("bernoulli2-gf takes no parameter")
            gf = seq.t_over_log1p_series(order)
        elif name == "narumi-gf":
            gf = seq.t_over_log1p_series(order) ** (-int(param))
        else:
            raise UsageError(
                f"unknown generating function {args.which!r}; "
                "use lif:K, polycauchy-gf:K, bernoulli2-gf or narumi-gf:A"
            )
    except ValueError as exc:
        raise UsageError(f"bad generating-function spec {args.which!r}: {exc}") from None
    rows = [{"i": i, "coefficient": format_rational(gf.coefficient(i))} for i in range(order + 1)]
    _emit(args, "series", {"which": args.which, "order": order}, rows, ["i", "coefficient"])
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, seq.TableLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
