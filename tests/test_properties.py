"""Property tests over random inputs.

Every test is derandomized, so a run draws the same examples each time and
tier-1 stays deterministic; max_examples bounds the cost.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from classgen import Family, GroupSpec, cli, closure, generator_pair, is_member
from classgen.enumeration import _python_closure
from classgen.gf import DEFAULT_FIELD_CAP
from test_acceptance import CLOSURE_GRID


def _prime_powers(limit: int) -> list[int]:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    out = []
    for p in np.flatnonzero(sieve).tolist():
        power = p
        while power <= limit:
            out.append(power)
            power *= p
    return sorted(out)


# Field size Q <= 2**20: q itself for GL/SL/Sp, q**2 for GU/SU.
LINEAR_Q = _prime_powers(DEFAULT_FIELD_CAP)
UNITARY_Q = _prime_powers(1024)
COVERED_DEGREES = {
    Family.GL: (2, 3, 4),
    Family.SL: (2, 3, 4),
    Family.SP: (2, 4),
    Family.GU: (3, 4),
    Family.SU: (3, 4),
}

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def covered_specs(draw):
    family = draw(st.sampled_from(list(Family)))
    unitary = family in (Family.GU, Family.SU)
    q = draw(st.sampled_from(UNITARY_Q if unitary else LINEAR_Q))
    return GroupSpec(family, draw(st.sampled_from(COVERED_DEGREES[family])), q)


@PROPERTY
@given(covered_specs())
def test_generators_of_covered_specs_are_invertible_members(spec):
    pair = generator_pair(spec)
    for g in (pair.a, pair.b):
        assert g.det()
        assert is_member(spec, g)


FAMILY_NAMES = ["gl", "sl", "sp", "gu", "su", "general linear", "special linear",
                "symplectic", "general unitary", "special_unitary"]
SMALL_PRIME_POWERS = _prime_powers(64)
NON_PRIME_POWERS = [6, 10, 12, 15, 18, 24, 36, 100, 1000, 2**20 - 1]


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["gens", "order", "certify"]))
    # sampled_from spreads the draws where st.integers and st.one_of favour
    # their smallest values and first branch; half the q are covered.
    kind = draw(st.sampled_from(["covered"] * 3 + ["not a prime power", "<= 1", "> 2**40"]))
    q = draw({"covered": st.sampled_from(SMALL_PRIME_POWERS),
              "not a prime power": st.sampled_from(NON_PRIME_POWERS),
              "<= 1": st.integers(-5, 1),
              "> 2**40": st.integers(2**40 + 1, 2**70)}[kind])
    argv = [command, "--family", draw(st.sampled_from(FAMILY_NAMES)),
            "--degree", str(draw(st.sampled_from(range(26)))), "--q", str(q)]
    if command == "gens":
        argv += ["--format", draw(st.sampled_from(["json", "text", "gap"]))]
    if command == "certify":
        argv += ["--cap", str(draw(st.integers(1, 2000)))]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(cli_argvs())
def test_cli_exit_codes_are_documented_and_never_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@st.composite
def capped_generator_lists(draw):
    """A small grid pair in a random order with one generator repeated, and a
    cap in [1, |G| + 1]."""
    family, degree, q, order = draw(st.sampled_from([c for c in CLOSURE_GRID if c[3] <= 6048]))
    pair = generator_pair(GroupSpec(family, degree, q))
    gens = draw(st.permutations([pair.a, pair.b]))
    gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
    return gens, draw(st.integers(1, order + 1))


@PROPERTY
@given(capped_generator_lists())
def test_closure_matches_the_python_bfs_at_any_cap_order_and_repeat(case):
    gens, cap = case
    assert closure(gens, cap) == _python_closure(gens, cap)[0]
