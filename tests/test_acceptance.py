"""Acceptance suite: one criterion per test, one printed verdict line each.

Each criterion collects failures into a list and prints

    [acceptance] criterion N (<name>): PASS|FAIL

on the live terminal before asserting, so a full run always shows one line
per criterion.  Everything is exact: matrices over finite fields either
match or they do not; there are no tolerances anywhere.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from classgen import (
    DualKind,
    Family,
    FormKind,
    GroupSpec,
    Mat,
    UnsupportedParametersError,
    Verdict,
    case_label,
    certify,
    field_create,
    field_for,
    frobenius,
    generator_pair,
    gram,
    hat_w,
    hat_x,
    preserves,
    q_block,
    special_scalar_beta,
    special_scalar_eta,
    theoretical_order,
    tilde_w,
    tilde_x,
    w_prime,
)
from classgen.cli import main

GRID_Q = (2, 3, 4, 5, 7, 8, 9)

# the closure certification grid: (family, degree, q) -> exact group order
CLOSURE_GRID = [
    (Family.GL, 2, 3, 48),
    (Family.GL, 2, 4, 180),
    (Family.GL, 2, 5, 480),
    (Family.GL, 3, 2, 168),
    (Family.GL, 3, 3, 11232),
    (Family.SL, 2, 4, 60),
    (Family.SL, 2, 5, 120),
    (Family.SL, 2, 9, 720),
    (Family.SL, 3, 2, 168),
    (Family.SL, 3, 3, 5616),
    (Family.SP, 2, 5, 120),
    (Family.SP, 4, 2, 720),
    (Family.SP, 4, 3, 51840),
    (Family.GU, 3, 2, 648),
    (Family.GU, 3, 3, 24192),
    (Family.GU, 4, 2, 77760),
    (Family.SU, 3, 2, 216),
    (Family.SU, 3, 3, 6048),
    (Family.SU, 4, 2, 25920),
]

STRETCH_GRID = [
    (Family.SP, 4, 4, 979200),
    (Family.SP, 6, 2, 1451520),
]


def _verdict(capsys, number, name, failures):
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({name}): {status}")
    if failures:
        pytest.fail("\n".join(failures), pytrace=False)


def covered_specs(max_degree, q_values):
    for family in Family:
        for degree in range(2, max_degree + 1):
            for q in q_values:
                spec = GroupSpec(family, degree, q)
                try:
                    case_label(spec)
                except UnsupportedParametersError:
                    continue
                yield spec


# ---------------------------------------------------------------------------
# Criterion 1: every displayed matrix is reproduced bit-exactly
# ---------------------------------------------------------------------------

def test_criterion_1_golden_fixtures(capsys):
    failures = []

    def check(label, spec, expected_a, expected_b=None):
        pair = generator_pair(spec)
        for name, got, want in (("a", pair.a, expected_a), ("b", pair.b, expected_b)):
            if want is None:
                continue
            want_mat = Mat.from_rows(pair.ctx, want)
            if got != want_mat:
                failures.append(f"{label}: generator {name} is\n{got}\nnot\n{want_mat}")

    gf2 = field_create(2, 1)
    gf3 = field_create(3, 1)
    gf4 = field_create(2, 2)
    gf5 = field_create(5, 1)
    gf9 = field_create(3, 2)

    # GL(2,q) and the general GL(n,q) column display
    xi = gf5.xi
    check("GL(2,5)", GroupSpec(Family.GL, 2, 5),
          [[xi, 0], [0, 1]],
          [[-1, 1], [-1, 0]])
    check("GL(3,5)", GroupSpec(Family.GL, 3, 5),
          [[xi, 0, 0], [0, 1, 0], [0, 0, 1]],
          [[-1, 0, 1], [-1, 0, 0], [0, -1, 0]])

    # SL(n,q), q > 3: the diagonal display plus the shared second generator
    check("SL(3,5)", GroupSpec(Family.SL, 3, 5),
          [[xi, 0, 0], [0, xi ** -1, 0], [0, 0, 1]],
          [[-1, 0, 1], [-1, 0, 0], [0, -1, 0]])

    # SL(n,2) and SL(n,3)
    check("SL(2,3)", GroupSpec(Family.SL, 2, 3),
          [[1, 1], [0, 1]],
          [[0, 1], [-1, 0]])
    check("SL(3,2)", GroupSpec(Family.SL, 3, 2),
          [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
          [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    # Sp(4,q), q odd
    xi = gf3.xi
    check("Sp(4,3)", GroupSpec(Family.SP, 4, 3),
          [[xi, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, xi ** -1]],
          [[1, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 1], [0, -1, 0, 0]])

    # Sp(4,q), q even, q != 2
    xi = gf4.xi
    check("Sp(4,4)", GroupSpec(Family.SP, 4, 4),
          [[xi, 0, 0, 0], [0, xi, 0, 0], [0, 0, xi ** -1, 0], [0, 0, 0, xi ** -1]],
          [[1, 1, 1, 0], [1, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 0]])

    # Sp(4,2): fixed matrices
    check("Sp(4,2)", GroupSpec(Family.SP, 4, 2),
          [[1, 0, 1, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1]],
          [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])

    # Sp(2n,2), n > 2: product of transvections, and the 2n-cycle monomial at n=3
    check("Sp(6,2)", GroupSpec(Family.SP, 6, 2),
          [[1, 0, 1, 0, 0, 1], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
           [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
          [[0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
           [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0]])

    # U(2n,q) at n=2 over GF(9), with eta of trace zero
    xi = gf9.xi
    eta = special_scalar_eta(gf9, 3)
    xibar = frobenius(xi)
    check("U(4,3)", GroupSpec(Family.GU, 4, 3),
          [[xi, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, xibar ** -1]],
          [[1, 0, eta, 0], [1, 0, 0, 0],
           [0, eta ** -1, 0, 1], [0, -(eta ** -1), 0, 0]])

    # SU(2n,q): the four-scalar diagonal display
    check("SU(4,3)", GroupSpec(Family.SU, 4, 3),
          [[xi, 0, 0, 0], [0, xi ** -1, 0, 0], [0, 0, xibar, 0], [0, 0, 0, xibar ** -1]])

    # U(2n+1,q) and SU(2n+1,q): boxed-midpoint diagonal displays
    beta9 = special_scalar_beta(gf9, 3)
    check("U(5,3)", GroupSpec(Family.GU, 5, 3),
          [[1, 0, 0, 0, 0], [0, xi, 0, 0, 0], [0, 0, 1, 0, 0],
           [0, 0, 0, xibar ** -1, 0], [0, 0, 0, 0, 1]],
          [[0, 1, 0, 0, 0],
           [beta9, 0, -1, 0, 1],
           [-1, 0, -1, 0, 0],
           [1, 0, 0, 0, 0],
           [0, 0, 0, 1, 0]])
    check("SU(3,3)", GroupSpec(Family.SU, 3, 3),
          [[xi, 0, 0], [0, xibar / xi, 0], [0, 0, xibar ** -1]],
          [[beta9, -1, 1], [-1, -1, 0], [1, 0, 0]])

    # SU(3,2): fixed matrices over GF(4)
    xi = gf4.xi
    check("SU(3,2)", GroupSpec(Family.SU, 3, 2),
          [[1, xi, xi], [0, 1, xi ** 2], [0, 0, 1]],
          [[xi, 1, 1], [1, 1, 0], [1, 0, 0]])

    _verdict(capsys, 1, "golden fixtures", failures)


# ---------------------------------------------------------------------------
# Criterion 2: membership over the full covered grid, degree <= 8
# ---------------------------------------------------------------------------

def test_criterion_2_membership_grid(capsys):
    failures = []
    count = 0
    for spec in covered_specs(8, GRID_Q):
        count += 1
        pair = generator_pair(spec)
        ctx = pair.ctx
        for name, g in (("a", pair.a), ("b", pair.b)):
            tag = f"{spec.family.value}({spec.degree},{spec.q}) generator {name}"
            if not g.det():
                failures.append(f"{tag}: not invertible")
                continue
            if spec.family in (Family.SL, Family.SU) and g.det() != ctx.one:
                failures.append(f"{tag}: determinant is not 1")
            if spec.family is Family.SP:
                if g.det() != ctx.one:
                    failures.append(f"{tag}: determinant is not 1")
                if not preserves(g, gram(ctx, FormKind.SYMPLECTIC, spec.degree)):
                    failures.append(f"{tag}: does not preserve the alternating form")
            if spec.family in (Family.GU, Family.SU):
                if not preserves(g, gram(ctx, FormKind.UNITARY, spec.degree)):
                    failures.append(f"{tag}: does not preserve the hermitian form")
    if count != 210:
        failures.append(f"expected 210 covered specs in the grid, saw {count}")
    _verdict(capsys, 2, "membership grid", failures)


# ---------------------------------------------------------------------------
# Criterion 3: closure certification grid, exact order match
# ---------------------------------------------------------------------------

def test_criterion_3_closure_grid(capsys):
    failures = []
    for family, degree, q, order in CLOSURE_GRID:
        spec = GroupSpec(family, degree, q)
        tag = f"{family.value}({degree},{q})"
        if theoretical_order(spec) != order:
            failures.append(f"{tag}: theoretical order "
                            f"{theoretical_order(spec)} != {order}")
        cert = certify(spec, cap=150_000)
        if cert.verdict is not Verdict.PASS:
            failures.append(f"{tag}: verdict {cert.verdict.value}")
        if cert.closure.size != order:
            failures.append(f"{tag}: closure found {cert.closure.size} != {order}")
    _verdict(capsys, 3, "closure certification grid", failures)


def test_criterion_3_stretch_closures(capsys):
    failures = []
    for family, degree, q, order in STRETCH_GRID:
        cert = certify(GroupSpec(family, degree, q), cap=2_000_000)
        if cert.verdict is not Verdict.PASS or cert.closure.size != order:
            failures.append(f"{family.value}({degree},{q}): size {cert.closure.size}, "
                            f"verdict {cert.verdict.value}, want {order}")
    _verdict(capsys, 3, "stretch closures", failures)


# ---------------------------------------------------------------------------
# Criterion 4: the distinguished scalars behave under conjugation
# ---------------------------------------------------------------------------

def test_criterion_4_scalar_identities(capsys):
    failures = []
    for q in GRID_Q:
        ctx = field_for(GroupSpec(Family.GU, 3, q))
        eta = special_scalar_eta(ctx, q)
        if not eta:
            failures.append(f"q={q}: eta is zero")
        if eta + frobenius(eta, q) != ctx.zero:
            failures.append(f"q={q}: eta + conj(eta) != 0")
        beta = special_scalar_beta(ctx, q)
        if beta + frobenius(beta, q) != -ctx.one:
            failures.append(f"q={q}: beta + conj(beta) != -1")
    _verdict(capsys, 4, "scalar identities", failures)


# ---------------------------------------------------------------------------
# Criterion 5: monomial convention locked by solving A W = displayed product
# ---------------------------------------------------------------------------

def test_criterion_5_convention_locks(capsys):
    failures = []
    gf3 = field_create(3, 1)
    gf9 = field_create(3, 2)

    # displayed x^_12(1) w^ for Sp(4,q), solved for w^
    displayed = Mat.from_rows(gf3, [
        [1, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 1], [0, -1, 0, 0]])
    solved = hat_x(gf3, 1, 2, 1, 2).inverse() * displayed
    if solved != hat_w(gf3, 2):
        failures.append(f"hat_w(2): solved\n{solved}\nconstructed\n{hat_w(gf3, 2)}")

    # displayed x~_12(1) w~ for U(4,q), solved for w~
    eta = special_scalar_eta(gf9, 3)
    displayed = Mat.from_rows(gf9, [
        [1, 0, eta, 0], [1, 0, 0, 0],
        [0, eta ** -1, 0, 1], [0, -(eta ** -1), 0, 0]])
    solved = tilde_x(gf9, 1, 2, 1, 4, DualKind.U_EVEN).inverse() * displayed
    if solved != tilde_w(gf9, 2, eta):
        failures.append(f"tilde_w(2): solved\n{solved}\nconstructed\n{tilde_w(gf9, 2, eta)}")

    # displayed Q(1,beta) w' for U(5,q), solved for w'
    beta = special_scalar_beta(gf9, 3)
    displayed = Mat.from_rows(gf9, [
        [0, 1, 0, 0, 0],
        [beta, 0, -1, 0, 1],
        [-1, 0, -1, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0]])
    solved = q_block(gf9, 1, beta, 5).inverse() * displayed
    if solved != w_prime(gf9, 2):
        failures.append(f"w_prime(2): solved\n{solved}\nconstructed\n{w_prime(gf9, 2)}")

    _verdict(capsys, 5, "convention locks", failures)


# ---------------------------------------------------------------------------
# Criterion 6: gens output is byte-identical across fresh runs
# ---------------------------------------------------------------------------

def _gens_bytes(spec):
    argv = ["gens", "--family", spec.family.value,
            "--degree", str(spec.degree), "--q", str(spec.q)]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return buffer.getvalue().encode()


def test_criterion_6_determinism(capsys):
    failures = []
    for family, degree, q, _ in CLOSURE_GRID:
        spec = GroupSpec(family, degree, q)
        first, second = _gens_bytes(spec), _gens_bytes(spec)
        if first != second:
            failures.append(f"{family.value}({degree},{q}): two in-process runs differ")
        json.loads(first)  # and the bytes are valid JSON

    # three representatives re-run in genuinely fresh interpreters
    for family, degree, q in (("sl", "2", "9"), ("sp", "4", "3"), ("su", "4", "2")):
        argv = [sys.executable, "-m", "classgen", "gens",
                "--family", family, "--degree", degree, "--q", q]
        runs = [subprocess.run(argv, capture_output=True, env=os.environ.copy())
                for _ in range(2)]
        if any(proc.returncode != 0 for proc in runs):
            failures.append(f"{family}({degree},{q}): subprocess run failed")
        elif runs[0].stdout != runs[1].stdout:
            failures.append(f"{family}({degree},{q}): subprocess outputs differ")
    _verdict(capsys, 6, "byte-identical gens output", failures)
