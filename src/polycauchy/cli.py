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
Every output is streamed into the ``--output`` file or stdout in bounded
batches, never rendered whole first: the JSON head, each JSON row as one
string and the tail (``_json_text``, byte for byte ``json.dumps(payload,
indent=2)`` plus a newline, with strings escaped by the C escaper of
``json.encoder``), and the rows of the CSV writer, are joined into writes
of about 64 KiB, and text goes in one write.  ``verify`` rows are written
as their checks are made (``verify._Stream``), so its memory does not grow with the
grid, and the ``--output`` file is opened before the first check.  A write
error part-way through still exits 2, as does a grid found part-way through
to need a deeper series; either may leave a partial ``--output`` file.
``verify`` evaluates its grid on every usable CPU and writes the bytes of a
one-CPU run (see ``verify``); CPU affinity (``taskset``) and the cgroup's
CPU quota are the only controls.  An error part-way there may leave a
shorter partial file than one CPU would, since the workers' checks are
merged in only as the report reaches them.

The identity suite (``verify``) and ``datetime`` are imported inside the
``verify`` subcommand and ``csv`` inside the CSV writer, so ``gen``,
``expand`` and ``series`` never load ``verify``, and a start-up pays only for
what its command runs.  The argument parser is built by the first ``main``
call, not at import, and every later call in the process reuses it.

Exit codes: 0 success, 1 verification failures, 2 usage errors, including
requests beyond a table's size limit, values too large to print and output
files that cannot be written.  Every refusal is an ``exact.UsageError``,
raised in whichever layer finds it; ``main`` alone turns it, or an
``OSError``, into exit 2.  The size flags ``gen --n-max``, ``expand --n``
and ``series --order`` share one cap, the Stirling table's
``DEFAULT_STIRLING_LIMIT`` (64), and are checked before any work.  The order
k is uncapped; a huge |k|, a ``polycauchy-gf`` coefficient, the last row of
a ``gen polycauchy2-*`` table and the C_n^(k) that opens an ``expand --basis
falling`` row too wide to print are refused from sizes alone, before the
value is built.  Below those bounds ``gen polycauchy2-poly`` builds and
formats its last row before the rows under it, and ``gen polycauchy2-number``
formats the one number row of ``--n-max``.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import closing, nullcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from . import second_kind as sk
from . import sequences as seq
from .exact import (UnprintableRationalError, UsageError, format_numerators, format_rational,
                    parse_rational, unprintable_power)
from .poly import Basis, BasisKind, Polynomial, _frobenius_euler_lambda

__all__ = ["main", "build_parser"]


def _check_size(flag: str, value: int) -> None:
    if value < 0:
        raise UsageError(f"{flag} must be non-negative")
    cap = seq.DEFAULT_STIRLING_LIMIT
    if value > cap:
        raise UsageError(f"Stirling table capped at n_max={cap}; {flag} must be at most {cap}")


def _refuse_unprintable_k(k: int, times: int = 1, shift: Fraction | int = 0) -> None:
    """Format times * 2^(-k) + shift before any table, series or row is built.

    C_1^(k) = -2^(-k), so that value, up to sign, is in every table of
    ``gen polycauchy2-*`` and at t^1 of ``series polycauchy-gf:K`` and
    ``series lif:K``.  With times = n and the ``shift`` of ``_cmd_expand``
    it is entry n-1 of the ``expand`` row of C_n^(k), negated.  A |k| too
    large to print is refused here, at once, instead of after the row is
    computed.

    Formatting costs time and memory that grow with |k|, so past a margin
    |k| is refused from sizes alone (``exact.unprintable_power``).  From |k|
    >= T plus the bit lengths of ``times`` and of both terms of ``shift``,
    plus 1, with T the bit length of 10^limit, the value holds at least
    2^T: for k > 0 as a factor of its reduced denominator, for k < 0 in its
    numerator."""
    shift = Fraction(shift)
    margin = times.bit_length() + 1 + shift.numerator.bit_length() + shift.denominator.bit_length()
    if unprintable_power(k, margin):
        raise UnprintableRationalError()
    format_rational(times * Fraction(2) ** -k + shift)


def _refuse_unprintable_gf_coefficient(n: int, k: int, over_factorial: bool = True) -> None:
    """Refuse C_n^(k)/n!, or C_n^(k) itself when ``over_factorial`` is
    false, from a lower bound on its reduced denominator (k > 0) or
    numerator (k < 0), before the closed form is summed; below the bound
    nothing is decided.

    For k > 0, a prime p with (n+1)/2 < p <= n+1 divides exactly one of
    1..n+1, so in C_n^(k) = sum_m S1(n,m) (-1)^m / (m+1)^k only the term
    m = p-1 has p in its denominator.  When v = v_p(S1(n, p-1)) < k, the
    sum has p-adic valuation v - k, so p^(k - v) divides the reduced
    denominator of C_n^(k), and p^(k - v + v_p(n!)) that of C_n^(k)/n!.

    For k < 0, every term of C_n^(k) = sum_m (-1)^n |S1(n,m)| (m+1)^|k| has
    the sign (-1)^n, so |C_n^(k)| >= (n+1)^|k|, a bound on the numerator of
    C_n^(k) and, over n!, on that of C_n^(k)/n!."""
    limit = sys.get_int_max_str_digits()
    if not limit or k == 0:
        return
    if k < 0:
        if (n + 1) ** -k >= 10**limit * (factorial(n) if over_factorial else 1):
            raise UnprintableRationalError()
        return
    bound, cap = 1, 10**limit
    for p in range(max(2, (n + 1) // 2 + 1), n + 2):
        if all(p % d for d in range(2, p)):
            s, v = seq.stirling1(n, p - 1), 0
            while s % p == 0:
                s, v = s // p, v + 1
            if v < k:
                bound *= p ** (k - v + (over_factorial and p <= n))
                # Refused as soon as it is past the cap: at n = 64 and k near
                # 14000 the whole product took about 50 ms, one factor 1 ms
                # (2-vCPU host, Python 3.11).
                if bound >= cap:
                    raise UnprintableRationalError()


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
    gen.add_argument("sequence", choices=tuple(_GEN))
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
    return format_numerators(p.nums, p.den)


def _csv_cell(value):
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    if isinstance(value, dict):
        return " ".join(f"{k}={v}" for k, v in value.items())
    return value


def _render_text(columns: list[str], rows: Iterable[dict]) -> str:
    cells = [[str(_csv_cell(row.get(c))) for c in columns] for row in rows]
    widths = [max([len(c)] + [len(line[i]) for line in cells]) for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for line in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip())
    return "\n".join(out)


# Writes are joined into ones of at least this many characters (the last
# excepted), so an unbuffered stdout is not written chunk by chunk or row by row.
_BATCH_CHARS = 1 << 16


class _Batched:
    """A sink over ``handle`` that joins what it is given into writes of at
    least ``_BATCH_CHARS``; ``close`` writes what is left."""

    def __init__(self, handle):
        self._handle = handle
        self._batch: list[str] = []
        self._size = 0

    def writelines(self, chunks: Iterable[str]) -> None:
        batch, size = self._batch, self._size
        for chunk in chunks:
            batch.append(chunk)
            size += len(chunk)
            if size >= _BATCH_CHARS:
                self._handle.write("".join(batch))
                batch.clear()
                size = 0
        self._size = size

    def write(self, text: str) -> None:
        self.writelines((text,))

    def close(self) -> None:
        if self._batch:
            self._handle.write("".join(self._batch))


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it ``indent``
    deep: dicts with str keys, lists and tuples, str, int, bool and None.
    A float, or any other value, and a non-str key raise ``TypeError``."""
    if isinstance(value, str):
        return _quoted(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys are str here; got {key!r}")
            items.append(f"{_quoted(key)}: {_json_text(item, inner)}")
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_chunks(command: str, params: dict, rows: Iterable[dict],
                 meta: dict | None) -> Iterable[str]:
    """The text of ``json.dumps(payload, indent=2)`` plus a newline, for the
    payload of ``command``, ``params``, ``rows`` and, if given, ``meta``: the
    head, then one string per row as it is read, then the tail."""
    yield (f'{{\n  "command": {_json_text(command, "  ")},\n'
           f'  "params": {_json_text(params, "  ")},\n  "rows": [')
    separator = "\n    "
    for row in rows:
        yield separator + _json_text(row, "    ")
        separator = ",\n    "
    # With no row read, the array is written "[]", as json.dumps writes it.
    tail = "]" if separator == "\n    " else "\n  ]"
    if meta is not None:
        tail += f',\n  "meta": {_json_text(meta, "  ")}'
    yield tail + "\n}\n"


def _write_csv(sink: _Batched, columns: list[str], rows: Iterable[dict]) -> None:
    import csv

    writer = csv.writer(sink, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row.get(c, "")) for c in columns] for row in rows)


def _emit(args, command: str, params: dict, rows: Iterable[dict], columns: list[str],
          text: Callable[[], str] | None = None, meta: dict | None = None) -> None:
    """Stream the report into the ``--output`` file or stdout.  ``rows`` is
    read once, after the sink is open, and each row is written as it is
    read.  ``text`` renders the text form in place of the table of
    ``rows``; it is called only for ``--format text``."""
    sink = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with sink as handle:
        out = _Batched(handle)
        if args.format == "json":
            out.writelines(_json_chunks(command, params, rows, meta))
        elif args.format == "csv":
            _write_csv(out, columns, rows)
        else:
            out.write((text() if text is not None else _render_text(columns, rows)) + "\n")
        out.close()


# ---------------------------------------------------------------------------
# Subcommands

def _refuse_unprintable_table(args) -> None:
    """C_1^(k) is in every ``gen polycauchy2-*`` table with n-max >= 1, and
    C_N^(k) in its last row: either one, refused from its size, refuses the
    table before any row is built."""
    if args.n_max >= 1:
        _refuse_unprintable_k(args.k)
        _refuse_unprintable_gf_coefficient(args.n_max, args.k, over_factorial=False)


def _number_column(args) -> list[str]:
    """C_0^(k)..C_N^(k), formatted from the one number row of N."""
    _refuse_unprintable_table(args)
    return format_numerators(*sk._number_row(args.n_max, args.k))


def _poly_column(args) -> list[list[str]]:
    """C_0^(k)(x)..C_N^(k)(x); the last row, the widest, is built and
    formatted before the rows below it."""
    _refuse_unprintable_table(args)
    last = _poly_strings(sk.poly_closed(args.n_max, args.k))
    return [_poly_strings(sk.poly_closed(n, args.k)) for n in range(args.n_max)] + [last]


def _family_column(family: seq._Sheffer, params: Callable) -> Callable:
    """The column of a Sheffer family, whose parameters ``params(args)``
    reads: the first N+1 members of its one grown row of order
    grown_order(N)."""
    def column(args) -> list[list[str]]:
        row = seq._grown_rows(family, params(args), seq.grown_order(args.n_max))
        return [_poly_strings(p) for p in row[: args.n_max + 1]]

    return column


# gen sequence -> (required (dest, flag) pairs, result column, the column's
# values for n = 0..N as a function of the parsed arguments).
_GEN = {
    "polycauchy2-number": ((("k", "--k"),), "value", _number_column),
    "polycauchy2-poly": ((("k", "--k"),), "coefficients", _poly_column),
    "stirling1": (
        (),
        "values",
        lambda args: [[format_rational(seq.stirling1(n, l)) for l in range(n + 1)]
                      for n in range(args.n_max + 1)],
    ),
    "bernoulli2": ((), "coefficients", _family_column(seq._NARUMI, lambda args: (-1,))),
    "bernoulli-order": (
        (("alpha", "--alpha"),),
        "coefficients",
        _family_column(seq._HIGH_ORDER_BERNOULLI, lambda args: (args.alpha,)),
    ),
    "frobenius-euler": (
        (("r", "--r"), ("lam", "--lambda")),
        "coefficients",
        _family_column(seq._FROBENIUS_EULER,
                       lambda args: (args.r, _frobenius_euler_lambda(args.r, args.lam))),
    ),
    "narumi": (
        (("a", "--a"),),
        "coefficients",
        _family_column(seq._NARUMI, lambda args: (args.a,)),
    ),
}


def _cmd_gen(args) -> int:
    _check_size("--n-max", args.n_max)
    name = args.sequence
    required, column, values = _GEN[name]
    params: dict = {"sequence": name, "n_max": args.n_max}
    for dest, flag in required:
        given = getattr(args, dest)
        if given is None:
            raise UsageError(f"sequence {name!r} requires {flag}")
        params[flag[2:]] = format_rational(given) if isinstance(given, Fraction) else given
    rows = [{"n": n, column: value} for n, value in enumerate(values(args))]
    _emit(args, "gen", params, rows, ["n", column])
    return 0


def _parse_basis_spec(spec: str) -> Basis:
    name, sep, rest = spec.partition(":")
    if name == "falling":
        if sep:
            raise UsageError("the falling basis takes no parameters")
        return Basis.falling_factorial()
    r_text, sep, lam_text = rest.partition(":")
    if name == "frobenius" and not sep:
        raise UsageError("frobenius basis needs frobenius:R:LAMBDA")
    try:
        if name == "bernoulli":
            return Basis.higher_order_bernoulli(int(rest))
        if name == "frobenius":
            return Basis.frobenius_euler(int(r_text), parse_rational(lam_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad basis spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown basis {name!r}; use falling, bernoulli:R or frobenius:R:LAMBDA")


def _cmd_expand(args) -> int:
    _check_size("--n", args.n)
    basis = _parse_basis_spec(args.basis)
    if args.n >= 1:
        # C_n^(k)(x) = x^n - (n 2^(-k) + C(n,2)) x^(n-1) + ... and the basis is
        # monic, so entry n-1 of the row is -(that sum + [x^(n-1)] member).
        member = sk.basis_member(basis, args.n)
        _refuse_unprintable_k(args.k, args.n, comb(args.n, 2) + member.coefficient(args.n - 1))
        if basis.kind is BasisKind.FALLING_FACTORIAL:
            # Entry 0 of the falling row is C_n^(k) itself.
            _refuse_unprintable_gf_coefficient(args.n, args.k, over_factorial=False)
    matrix = sk.connection(args.n, args.k, basis)
    # A row too large to print is refused before the check rebuilds it.
    coefficients = [format_rational(c) for c in matrix.entries]
    check = "pass" if matrix.reconstruct() == sk.poly_closed(args.n, args.k) else "fail"
    params = {"n": args.n, "k": args.k, "basis": args.basis}
    row = {**params, "coefficients": coefficients, "check": check}
    _emit(args, "expand", params, [row], list(row))
    return 0 if check == "pass" else 1


def _cmd_verify(args) -> int:
    from datetime import datetime, timezone

    from .verify import DEFAULT_LAMBDAS, GridConfig, _Stream, catalog_ids

    config = GridConfig(
        n_max=args.n_max,
        k_range=(args.k_min, args.k_max),
        r_range=(0, args.r_max),
        lambdas=tuple(args.lambdas) if args.lambdas else DEFAULT_LAMBDAS,
        identities=tuple(args.identities) if args.identities else None,
    )
    params = {
        "n_max": config.n_max,
        "k_range": list(config.k_range),
        "r_range": list(config.r_range),
        "lambdas": [format_rational(v) for v in config.lambdas],
        "y_values": [format_rational(v) for v in config.y_values],
        "identities": list(config.identities) if config.identities else sorted(catalog_ids()),
    }
    columns = ["identity", "params", "status", "lhs", "rhs"]
    meta = {"generated_at": datetime.now(timezone.utc).isoformat()}
    with closing(_Stream(config)) as checks:
        rows = (check.row() for check in checks)
        _emit(args, "verify", params, rows, columns, text=checks.text, meta=meta)
    return 0 if not checks.failures else 1


def _cmd_series(args) -> int:
    _check_size("--order", args.order)
    name, sep, param = args.which.partition(":")
    order = args.order
    if name == "bernoulli2-gf" and sep:
        raise UsageError("bernoulli2-gf takes no parameter")
    if name in ("lif", "polycauchy-gf", "narumi-gf"):
        try:
            k = int(param)
        except ValueError as exc:
            raise UsageError(f"bad generating-function spec {args.which!r}: {exc}") from None
    if name in ("lif", "polycauchy-gf") and order >= 1:
        _refuse_unprintable_k(k)
        # The t^order coefficient by its closed form, before any series is
        # built: 1/(order+1)^k or C_order^(k), over order!.
        if name == "lif":
            last = Fraction(order + 1) ** -k
        else:
            _refuse_unprintable_gf_coefficient(order, k)
            last = sk._stirling_sums(order, k, 1, 1).coefficient(0)
        format_rational(last / factorial(order))
    if name == "lif":
        gf = seq.lif_series(k, order)
    elif name == "polycauchy-gf":
        gf = sk.gf_number_series(k, order)
    elif name == "bernoulli2-gf":
        gf = seq.t_over_log1p_series(order)
    elif name == "narumi-gf":
        gf = seq._NARUMI.amplitude(k, order)
    else:
        raise UsageError(
            f"unknown generating function {args.which!r}; "
            "use lif:K, polycauchy-gf:K, bernoulli2-gf or narumi-gf:A"
        )
    rows = [{"i": i, "coefficient": c} for i, c in enumerate(format_numerators(gf.nums, gf.den))]
    _emit(args, "series", {"which": args.which, "order": order}, rows, ["i", "coefficient"])
    return 0


# Built by the first ``main`` call, not at import, and reused by later calls.
_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
