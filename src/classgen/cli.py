"""Command line interface.

Subcommands:
  gens     print the generator pair (json, text or gap format)
  certify  run the closure certification and set the exit code
  order    print the theoretical group order

gens builds the pair, and the form with --emit-form, before it prints; the
writer of the chosen format then yields the output, printed line by line.

Exit codes: 0 success / PASS, 1 FAIL, 2 unsupported parameters,
3 usage error or a documented size limit, 4 INDETERMINATE (the cap
truncated the closure), 5 internal error (a bug; never a verdict),
130 interrupted (Ctrl-C), 141 stdout closed by its reader (as in
`| head`), printing nothing more.  A FAIL
for a non-member generator runs no search, so certify then prints no size,
rounds or truncated line.
"""

from __future__ import annotations

import argparse
import os
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


def _json_lines(spec, pair, form, emit_form: bool):
    """Indent 2, each coefficient list and matrix row on one line.  str() of an
    int or of a list of ints is already its JSON."""
    import json

    text = {}  # entry code -> the JSON of its coefficients, formatted once per document

    def entry(code):
        return str(list(pair.ctx.code_to_coeffs(code)))

    def rows(m, indent: str):
        yield f'{indent}"rows": ['
        for i, entries in enumerate(m._format_rows(entry, text, ", "), 1):
            yield f"{indent}  [{entries}]" + ("," if i < m.n else "")
        yield f"{indent}]"

    yield "{"
    yield f'  "family": {json.dumps(spec.family.value)},'
    yield f'  "degree": {spec.degree},'
    yield f'  "q": {spec.q},'
    yield f'  "case_label": {json.dumps(pair.case_label)},'
    yield '  "field": {'
    yield f'    "p": {pair.ctx.p},'
    yield f'    "k": {pair.ctx.k},'
    yield f'    "modulus": {list(pair.ctx.modulus)},'
    yield f'    "xi": {list(pair.ctx.xi.coeffs)}'
    yield "  },"
    yield '  "generators": ['
    for m, end in (pair.a, ","), (pair.b, ""):
        yield "    {"
        yield from rows(m, "      ")
        yield "    }" + end
    yield "  ]," if emit_form else "  ]"
    if emit_form and form is None:
        yield '  "form": null'
    elif emit_form:
        yield '  "form": {'
        yield f'    "kind": {json.dumps(form.kind.value)},'
        yield from rows(form.j, "    ")
        yield "  }"
    yield "}"


def _text_lines(spec, pair, form, emit_form: bool):
    ctx, text, entry = pair.ctx, {}, pair.a._text_entry  # as str() prints an entry
    yield f"family: {spec.family.value}"
    yield f"degree: {spec.degree}"
    yield f"q: {spec.q}"
    yield f"case: {pair.case_label}"
    yield (f"field: GF({ctx.q}), p={ctx.p}, k={ctx.k}, "
           f"modulus={list(ctx.modulus)}, xi={list(ctx.xi.coeffs)}")
    for title, m in ("generator a:", pair.a), ("generator b:", pair.b):
        yield title
        yield from ("  " + line for line in m._format_rows(entry, text, " "))
    if emit_form:
        yield f"form: {'none' if form is None else form.kind.value}"
    if form is not None:
        yield from ("  " + line for line in form.j._format_rows(entry, text, " "))


def _gap_lines(spec, pair, form, emit_form: bool):
    """Entries as powers of xi, the xi mapping stated up front."""
    from classgen.gf import poly_string

    ctx, text = pair.ctx, {}

    def entry(code):
        return f"xi^{ctx.dlog_code(code)}" if code else "0*xi^0"

    def matrix(name: str, m):
        yield f"{name} := ["
        for i, entries in enumerate(m._format_rows(entry, text, ", "), 1):
            yield f"  [ {entries} ]" + ("," if i < m.n else "")
        yield "];"

    yield (f"# family {spec.family.value}, degree {spec.degree}, q {spec.q}, "
           f"case: {pair.case_label}")
    yield f"# field GF({ctx.q}) = GF({ctx.p})[t] / ({poly_string(ctx.modulus)})"
    yield (f"# xi is the primitive element with coefficients {list(ctx.xi.coeffs)} "
           f"(constant term first)")
    yield "# entries are powers of xi; zero prints as 0*xi^0"
    yield from matrix("a", pair.a)
    yield from matrix("b", pair.b)
    if emit_form:
        yield f"# form: {'none' if form is None else form.kind.value}"
    if form is not None:
        yield from matrix("j", form.j)


_WRITERS = {"json": _json_lines, "text": _text_lines, "gap": _gap_lines}


def cmd_gens(spec, args) -> int:
    check_gens_limit(spec)
    from classgen.families import form_for, generator_pair

    pair = generator_pair(spec)
    form = form_for(spec, pair.ctx) if args.emit_form else None
    for line in _WRITERS[args.format](spec, pair, form, args.emit_form):
        print(line)
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


def cmd_certify(spec, args) -> int:
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


def cmd_order(spec, args) -> int:
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
    p_gens.add_argument("--format", choices=tuple(_WRITERS), default="json")
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
        code = args.func(GroupSpec(parse_family(args.family), args.degree, args.q), args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except KeyboardInterrupt:
        print("classgen: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UnsupportedParametersError as exc:
        print(f"classgen: unsupported parameters: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"classgen: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must not read as a FAIL verdict
        print(f"classgen: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
