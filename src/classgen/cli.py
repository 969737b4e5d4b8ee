"""Command line interface: gens prints the generator pair (json, text or gap
format), certify runs the closure certification and sets the exit code, and
order prints the theoretical group order.  It parses its own arguments, as
the table _COMMANDS says: the standard library's parser, with the gettext
and locale it loads, would cost every cold run about 4 ms.

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


def _json_lines(spec, pair, form, emit_form: bool):
    """Indent 2, each coefficient list and matrix row on one line.  str() of an
    int or a list of ints, and f'"{s}"' of a label (fixed ASCII, no " or \\), is its JSON."""
    text = {}  # entry code -> the JSON of its coefficients, formatted once per document

    def entry(code):
        return str(list(pair.ctx.code_to_coeffs(code)))

    def rows(m, indent: str):
        yield f'{indent}"rows": ['
        for i, entries in enumerate(m._format_rows(entry, text, ", "), 1):
            yield f"{indent}  [{entries}]" + ("," if i < m.n else "")
        yield f"{indent}]"

    yield "{"
    yield f'  "family": "{spec.family.value}",'
    yield f'  "degree": {spec.degree},'
    yield f'  "q": {spec.q},'
    yield f'  "case_label": "{pair.case_label}",'
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
        yield f'    "kind": "{form.kind.value}",'
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


def cmd_gens(spec, format=_json_lines, emit_form: bool = False) -> int:
    check_gens_limit(spec)
    from classgen.families import form_for, generator_pair

    pair = generator_pair(spec)
    form = form_for(spec, pair.ctx) if emit_form else None
    for line in format(spec, pair, form, emit_form):
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


def cmd_certify(spec, cap: int = DEFAULT_CAP) -> int:
    from classgen import enumeration

    cert = enumeration.certify(spec, cap=cap)
    res = cert.closure
    print(f"family:     {spec.family.value}")
    print(f"degree:     {spec.degree}")
    print(f"q:          {spec.q}")
    print(f"membership: {'ok' if cert.membership_ok else 'FAILED'}")
    print(f"expected:   {_exact(cert.expected_order)}")
    if res is not None:
        print(f"size:       {res.size}")
        print(f"rounds:     {res.frontier_rounds}")
        print(f"truncated:  {'yes (cap ' + str(cap) + ')' if res.truncated else 'no'}")
    print(f"verdict:    {cert.verdict.value}")
    if cert.verdict is enumeration.Verdict.PASS:
        return 0
    if cert.verdict is enumeration.Verdict.INDETERMINATE:
        return 4
    return 1


def cmd_order(spec) -> int:
    check_order_limit(spec)
    print(_exact(theoretical_order(spec)))
    return 0


_COMMON = {"family": str, "degree": int, "q": int}
# command -> its function and options: name -> what converts its value, None for a flag
_COMMANDS = {"gens": (cmd_gens, {**_COMMON, "format": _WRITERS.__getitem__, "emit-form": None}),
             "certify": (cmd_certify, {**_COMMON, "cap": int}),
             "order": (cmd_order, _COMMON)}
_USAGE = "usage: classgen {gens,certify,order} --family FAMILY --degree DEGREE --q Q [options]"
_HELP = f"""{_USAGE}

gens prints the generator pair, certify closure-certifies it and order prints
the group order.  Write an option as --name value, --name=value or a unique prefix.
  --family FAMILY  gl, sl, sp, gu, su or a long name like 'special linear'
  --degree DEGREE  matrix degree n
  --q Q            defining field size q
  --format {{json,text,gap}}  gens: the output format (default json)
  --emit-form      gens: also print the preserved Gram matrix (sp/gu/su)
  --cap CAP        certify: INDETERMINATE past CAP elements (default {DEFAULT_CAP})"""


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}\nclassgen: error: {message}\n")
    raise SystemExit(3)  # 2 is the exit code for unsupported parameters


def _parse(argv: list[str]):
    """The command's function and its options as {name: value}.  -h, --help
    or a prefix of it prints the help and exits 0; a usage error exits 3."""
    func, names = _COMMANDS.get(argv[0] if argv else "", (None, {}))
    if func is None and not (argv and argv[0].startswith("-")):
        _usage_error(f"the first argument must be a command: {', '.join(_COMMANDS)}")
    options, args = {}, iter(argv[1:] if func else argv)  # before a command, only help passes
    for arg in args:
        word, explicit, value = arg[2:].partition("=") if arg[:2] == "--" else ("", "", "")
        found = [name for name in (*names, "help") if word and name.startswith(word)]
        if word in found or arg == "-h":
            found = [word or "help"]
        if found == ["help"]:
            print(_HELP)
            raise SystemExit(0)
        if len(found) != 1:
            _usage_error(f"ambiguous option: {arg} could match --{', --'.join(found)}"
                         if found else f"unrecognized argument: {arg}")
        name, kind = found[0], names[found[0]]
        if kind is None and explicit:
            _usage_error(f"argument --{name}: takes no value")
        if kind is not None and not explicit:
            value = next(args, "-")
            if value.startswith("-") and not value[1:].isdigit():  # -5 is a value
                _usage_error(f"argument --{name}: expected one argument")
        try:
            options[name.replace("-", "_")] = True if kind is None else kind(value)
        except (KeyError, ValueError):
            _usage_error(f"argument --{name}: invalid value: {value!r}")
    missing = [f"--{name}" for name in _COMMON if name not in options]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    return func, options


def main(argv=None) -> int:
    func, options = _parse(sys.argv[1:] if argv is None else argv)
    try:
        spec = GroupSpec(parse_family(options.pop("family")), options.pop("degree"),
                         options.pop("q"))
        code = func(spec, **options)
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
