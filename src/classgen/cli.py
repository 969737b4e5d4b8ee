"""Command line interface.

Subcommands:
  gens     print the generator pair (json, text or gap format)
  certify  run the closure certification and set the exit code
  order    print the theoretical group order

Exit codes: 0 success / PASS, 1 FAIL, 2 unsupported parameters,
3 usage error or a documented size limit, 4 INDETERMINATE (the cap
truncated the closure), 5 internal error (a bug; never a verdict).  A FAIL
for a non-member generator runs no search, so certify then prints no size,
rounds or truncated line.
"""

from __future__ import annotations

import argparse
import sys

from classgen.spec import (
    DEFAULT_CAP,
    GroupSpec,
    UnsupportedParametersError,
    check_gens_limit,
    check_order_limit,
    parse_family,
    theoretical_order,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2, so use 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _rows_payload(m) -> list:
    return [[list(e.coeffs) for e in row] for row in m.rows()]


def _dumps(node, indent: str = "") -> str:
    """json.dumps(indent=2), but coefficient vectors and matrix rows (non-empty
    lists of ints or of non-empty int lists) stay on one line, so the output
    reads well for humans as well as parsers."""
    import json

    def ints(xs) -> bool:
        return all(isinstance(x, int) for x in xs)

    inner = indent + "  "
    if isinstance(node, dict):
        items = [f"{json.dumps(key)}: {_dumps(value, inner)}" for key, value in node.items()]
        brackets = "{}"
    elif not isinstance(node, list):
        return json.dumps(node)
    elif node and (ints(node) or all(isinstance(x, list) and x and ints(x) for x in node)):
        return json.dumps(node, separators=(", ", ": "))
    else:
        items, brackets = [_dumps(x, inner) for x in node], "[]"
    if not items:
        return brackets
    body = ",\n".join(inner + item for item in items)
    return f"{brackets[0]}\n{body}\n{indent}{brackets[1]}"


def _text_rows(m) -> list[str]:
    return ["  " + line for line in str(m).splitlines()]


def cmd_gens(args) -> int:
    spec = GroupSpec(parse_family(args.family), args.degree, args.q)
    check_gens_limit(spec)
    from classgen.families import form_for, generator_pair
    from classgen.gf import field_to_json, poly_string

    pair = generator_pair(spec)
    ctx = pair.ctx
    form = form_for(spec, ctx) if args.emit_form else None
    form_name = "none" if form is None else form.kind.value

    if args.format == "json":
        payload = {
            "family": spec.family.value,
            "degree": spec.degree,
            "q": spec.q,
            "case_label": pair.case_label,
            "field": field_to_json(ctx),
            "generators": [
                {"rows": _rows_payload(pair.a)},
                {"rows": _rows_payload(pair.b)},
            ],
        }
        if args.emit_form:
            payload["form"] = None if form is None else {
                "kind": form_name, "rows": _rows_payload(form.j)}
        lines = [_dumps(payload)]
    elif args.format == "text":
        lines = [
            f"family: {spec.family.value}",
            f"degree: {spec.degree}",
            f"q: {spec.q}",
            f"case: {pair.case_label}",
            f"field: GF({ctx.q}), p={ctx.p}, k={ctx.k}, "
            f"modulus={list(ctx.modulus)}, xi={list(ctx.xi.coeffs)}",
            "generator a:",
            *_text_rows(pair.a),
            "generator b:",
            *_text_rows(pair.b),
        ]
        if args.emit_form:
            lines.append(f"form: {form_name}")
        if form is not None:
            lines += _text_rows(form.j)
    else:  # gap: entries as powers of xi, the xi mapping stated up front
        def gap_row(row) -> str:
            return "  [ " + ", ".join(
                f"xi^{ctx.dlog_code(e.code)}" if e else "0*xi^0" for e in row) + " ]"

        def gap_matrix(name: str, m) -> list[str]:
            return [f"{name} := [", ",\n".join(map(gap_row, m.rows())), "];"]

        lines = [
            f"# family {spec.family.value}, degree {spec.degree}, q {spec.q}, "
            f"case: {pair.case_label}",
            f"# field GF({ctx.q}) = GF({ctx.p})[t] / ({poly_string(ctx.modulus)})",
            f"# xi is the primitive element with coefficients {list(ctx.xi.coeffs)} "
            f"(constant term first)",
            "# entries are powers of xi; zero prints as 0*xi^0",
            *gap_matrix("a", pair.a),
            *gap_matrix("b", pair.b),
        ]
        if args.emit_form:
            lines.append(f"# form: {form_name}")
        if form is not None:
            lines += gap_matrix("j", form.j)
    print("\n".join(lines))
    return 0


def _exact(n: int) -> str:
    """Decimal digits of n >= 0.

    str(n) refuses ints past sys.get_int_max_str_digits() (4300 digits by
    default) and takes time quadratic in the digit count.  Past 1000 digits
    the value is rebuilt in the decimal module instead, leaving that
    process-wide limit alone: n splits at a power-of-two bit position k into
    high * 2**k + low, both halves convert recursively, and the powers 2**k
    are squared up once.  libmpdec multiplies large operands in subquadratic
    time and prints a Decimal in linear time.
    """
    if n < 10**1000:
        return str(n)
    import decimal

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    ctx.traps[decimal.Inexact] = True  # exact integers only: never round
    powers = [decimal.Decimal(2)]  # powers[j] = 2**(2**j)

    def convert(m: int) -> decimal.Decimal:
        if m.bit_length() <= 4096:
            return decimal.Decimal(m)
        j = (m.bit_length() - 1).bit_length() - 1  # 2**j < bits <= 2**(j + 1)
        while len(powers) <= j:
            powers.append(ctx.multiply(powers[-1], powers[-1]))
        k = 1 << j
        return ctx.add(ctx.multiply(convert(m >> k), powers[j]), convert(m & ((1 << k) - 1)))

    return str(convert(n))


def cmd_certify(args) -> int:
    spec = GroupSpec(parse_family(args.family), args.degree, args.q)
    from classgen import enumeration

    cert = enumeration.certify(spec, cap=args.cap)
    res = cert.closure
    print(f"family:     {spec.family.value}")
    print(f"degree:     {spec.degree}")
    print(f"q:          {spec.q}")
    print(f"membership: {'ok' if cert.membership_ok else 'FAILED'}")
    print(f"expected:   {_exact(cert.expected_order)}")
    if res is not None:
        print(f"size:       {res.size}")
        print(f"rounds:     {res.frontier_rounds}")
        print(f"truncated:  {'yes (cap ' + str(args.cap) + ')' if res.truncated else 'no'}")
    print(f"verdict:    {cert.verdict.value}")
    if cert.verdict is enumeration.Verdict.PASS:
        return 0
    if cert.verdict is enumeration.Verdict.INDETERMINATE:
        return 4
    return 1


def cmd_order(args) -> int:
    spec = GroupSpec(parse_family(args.family), args.degree, args.q)
    check_order_limit(spec)
    print(_exact(theoretical_order(spec)))
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True,
                     help="gl, sl, sp, gu, su or a long name like 'special linear'")
    sub.add_argument("--degree", type=int, required=True, help="matrix degree n")
    sub.add_argument("--q", type=int, required=True, help="defining field size q")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="classgen",
                     description="Two-generator pairs for the classical matrix groups, "
                                 "with brute-force certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gens = sub.add_parser("gens", help="print the generator pair")
    _add_common(p_gens)
    p_gens.add_argument("--format", choices=("json", "text", "gap"), default="json")
    p_gens.add_argument("--emit-form", action="store_true",
                        help="also print the preserved Gram matrix (sp/gu/su)")
    p_gens.set_defaults(func=cmd_gens)

    p_cert = sub.add_parser("certify", help="closure-certify the pair")
    _add_common(p_cert)
    p_cert.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help=f"stop the closure after this many elements and report "
                             f"INDETERMINATE (default {DEFAULT_CAP})")
    p_cert.set_defaults(func=cmd_certify)

    p_order = sub.add_parser("order", help="print the theoretical group order")
    _add_common(p_order)
    p_order.set_defaults(func=cmd_order)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedParametersError as exc:
        print(f"classgen: unsupported parameters: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"classgen: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must not read as a FAIL verdict
        print(f"classgen: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
