"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (Laurent polynomial or rational equality); there
are no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import io
import json
from operator import floordiv

from conftest import (classical_whitney_recurrence, gauss_product_check,
                      perturb_recurrence, q_binomial_inverse,
                      q_binomial_transform, stirling2_enum)
from qwhitney import (RouteValues, WhitneyParams, cli, classical_hankel_check,
                      q_binomial_alternating_sum, q_binomial_row,
                      q_diff_heads, q_int, w, w_star, whitney_explicit,
                      tableau_sum, w_star_symmetric)
from qwhitney import verify
from qwhitney.hankel import bareiss
from qwhitney.qcore import LaurentPoly

PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


def report(num: int, name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_route_equivalence():
    ok = True
    for p in PARAM_GRID:
        shared = RouteValues.build(p, 9, 9)
        for n in range(10):
            for k in range(n + 1):
                ok = ok and whitney_explicit(shared, n, k) == w(p, n, k)
                if n <= 8:
                    star = w_star(p, n, k)
                    ok = ok and w_star_symmetric(p, n, k) == star
                    ok = ok and tableau_sum(p, n, k) == star
    report(1, "route equivalence (recurrence / explicit / symmetric / tableau)", ok)


def test_criterion_2_recurrence_identities():
    res = verify.suite_recurrences()
    report(2, "vertical and horizontal recurrences", res.ok)


def test_criterion_3_generating_functions():
    res = verify.suite_genfun()
    report(3, "rational GF, EGF, horizontal GF", res.ok)


def test_criterion_4_q_difference_operator():
    ok = True
    for k in range(7):
        for h in (1, 2, 3):
            for b in (1, 2, 3):
                for c in (-3, -1, 0, 2, 3):
                    for n in (0, 1, 3, 4):
                        for x in range(-2, 3):
                            # f(x) = [x + c]_q^n at x, x+h, ..., x+kh
                            values = [q_int(x + i * h + c) ** n
                                      for i in range(k + 1)]
                            heads = q_diff_heads(values, b)
                            ok = ok and heads[k] == \
                                q_binomial_alternating_sum(
                                    values, b, q_binomial_row(k, b))
    report(4, "q-difference operator: recursive vs explicit", ok)


def test_criterion_5_convolutions():
    res = verify.suite_convolution()
    report(5, "first and second convolution identities", res.ok)


def test_criterion_6_hankel_transform():
    res = verify.suite_hankel()
    report(6, "Hankel transform and LU factorization", res.ok)


def test_criterion_7_classical_limits():
    ok = True
    for p in PARAM_GRID:
        for n in range(9):
            for k in range(n + 1):
                v = w(p, n, k).eval(1) if not w(p, n, k).is_zero() else 0
                ok = ok and v == classical_whitney_recurrence(p.m, p.r, n, k)
    p10 = WhitneyParams(1, 0)
    for n in range(9):
        for k in range(n + 1):
            ok = ok and int(w(p10, n, k).eval(1)) == stirling2_enum(n, k)
    ok = ok and stirling2_enum(4, 2) == 7
    ok = ok and bareiss([[1, 1, 1], [0, 1, 3], [0, 1, 7]], floordiv)[0] == 4
    ok = ok and classical_hankel_check(1, 0, 0, 2)
    for p in PARAM_GRID:
        for s in range(4):
            for n in range(5):
                ok = ok and classical_hankel_check(p.m, p.r, s, n)
    report(7, "classical q=1 limits", ok)


def test_criterion_8_q_binomial_infrastructure():
    import random
    from conftest import random_laurent
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        f = [random_laurent(rng, 4, (-2, 4)) for _ in range(9)]
        ok = ok and q_binomial_transform(q_binomial_inverse(f, 8), 8) == f
        ok = ok and q_binomial_inverse(q_binomial_transform(f, 8), 8) == f
    ok = ok and all(gauss_product_check(n) for n in range(11))
    report(8, "q-binomial inversion roundtrip and product generating function", ok)


def test_criterion_9_cli_end_to_end(tmp_path):
    def run(argv):
        buf = io.StringIO()
        return cli.main(argv, out=buf)

    ok = run(["verify", "--suite", "all"]) == 0

    grid = {"m": [1, 2], "r": [0, 1], "nmax": 4, "nmax_tableau": 4,
            "nmax_genfun": 5, "nmax_egf": 5, "nmax_horizontal": 4,
            "kmax_genfun": 3, "t": [2, 5], "qvals": ["2"],
            "nmax_conv": 3, "spmax_conv": 3, "smax_hankel": 1,
            "nmax_hankel": 2}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    with perturb_recurrence():
        for suite in ("recurrences", "explicit", "genfun", "hankel"):
            ok = ok and run(["verify", "--suite", suite,
                             "--grid", str(grid_path)]) == 1
    ok = ok and run(["verify", "--suite", "recurrences",
                     "--grid", str(grid_path)]) == 0
    report(9, "CLI verify exit codes, including mutation test", ok)
