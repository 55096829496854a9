"""The kill matrix of the planted faults over every suite.

Each fault of ``conftest`` mutates one route.  Run over a small grid, the
suites must pass without a fault, each fault must fail at least one cell,
and every identity the suites check must be failed by at least one fault:
a new identity that no fault reaches fails this test (mutation analysis,
DeMillo, Lipton & Sayward 1978).  The whole report of each run is pinned
too, by the sha256 of its text: the order of the failures, their witness
parameters and their side texts.

The tableau-walk, horizontal-falling, alternating-sum, binomial-row,
EGF-normalizer, Newton-base and classical-product faults reach route
code that no other fault reaches, and each fails its one identity alone:
the alternating q-binomial sum and the q-Pascal rows it weighs the
values by are read by the explicit route only, since the EGF check forms
its own sum at one integer point, with Gaussian binomials by their
product formula, and the operator product by the Newton route only.
The vertical-shift and horizontal-shift faults each re-implement one pass
of the recurrences suite with its power of q off by one, and the
first-sides and second-sides faults drop the last term of one
convolution identity's sum; each fails its one identity alone, where the
route-weight and convolution-shift faults fail both of their pair.
The last-minor fault negates the last determinant of each call of
``hankel.leading_minors``, the one elimination that reads every order of
a family's q-matrix and of its q=1 image, so it fails the Hankel
transform, its classical corollary and, through the determinant the L*U
check compares, the LU factorization: 24 cells of GRID, the largest
order of each family.  The h-prefixes fault fails ``h_complete`` and
``rational_gf`` together, since both read one truncated-series pass.
The Newton-remainder fault reads the base q^b of
``qcalculus.q_diff_heads`` as q^(b+1), so that its Newton heads leave a
remainder on division by the normalizer.  A division that raises is a
failed cell whose sides are the head and W times the normalizer, so the
run still exits 1 with its report.

Each fault also runs once on one family off both the default and the
kill grid, where it must fail some cell, so that no fault reaches its
route only on the grid its kill set was measured on.
"""

import contextlib
import hashlib
import io
import json

import pytest

from math import prod

from conftest import (perturb_alternating_sum, perturb_binomial_row,
                      perturb_classical_product, perturb_closed_form,
                      perturb_convolution_shift, perturb_egf_normalizer,
                      perturb_first_sides, perturb_gf_prefactor,
                      perturb_h_prefixes, perturb_horizontal_falling,
                      perturb_horizontal_shift, perturb_last_minor,
                      perturb_newton_base, perturb_newton_remainder,
                      perturb_recurrence, perturb_route_weight,
                      perturb_second_sides, perturb_tableau_walk,
                      perturb_u_factor, perturb_vertical_shift)
from qwhitney import WhitneyParams, cli, q_int, verify, w
from qwhitney.qcore import ONE
from qwhitney.whitney import normalizer_factors

GRID = {"m": [1, 2], "r": [0, 1], "nmax": 4, "nmax_tableau": 4,
        "nmax_genfun": 4, "nmax_egf": 4, "nmax_horizontal": 3,
        "kmax_genfun": 3, "t": [-1, 2, 5], "qvals": ["2", "-1/3"],
        "nmax_conv": 2, "spmax_conv": 2, "smax_hankel": 1,
        "nmax_hankel": 3}

FAULTS = {
    "recurrence": perturb_recurrence,
    "route_weight": perturb_route_weight,
    "convolution_shift": perturb_convolution_shift,
    "u_factor": perturb_u_factor,
    "closed_form": perturb_closed_form,
    "gf_prefactor": perturb_gf_prefactor,
    "tableau_walk": perturb_tableau_walk,
    "horizontal_falling": perturb_horizontal_falling,
    "alternating_sum": perturb_alternating_sum,
    "binomial_row": perturb_binomial_row,
    "egf_normalizer": perturb_egf_normalizer,
    "newton_base": perturb_newton_base,
    "newton_remainder": perturb_newton_remainder,
    "classical_product": perturb_classical_product,
    "last_minor": perturb_last_minor,
    "h_prefixes": perturb_h_prefixes,
    "vertical_shift": perturb_vertical_shift,
    "horizontal_shift": perturb_horizontal_shift,
    "first_sides": perturb_first_sides,
    "second_sides": perturb_second_sides,
}


def test_kill_matrix():
    clean = verify.run_suite("all", GRID)
    assert all(res.ok for res in clean)
    assert sum(res.cells for res in clean) == 840
    checked = {identity for res in clean
               for identity, cells in res.counts.items() if cells}
    assert len(checked) == 14

    killed = {}
    for name, fault in FAULTS.items():
        with fault():
            results = verify.run_suite("all", GRID)
        killed[name] = {f.identity for res in results for f in res.failures}
        assert killed[name], f"fault {name} fails no cell"
    assert set().union(*killed.values()) == checked
    assert killed == {
        "recurrence": checked - {"convolution_first", "convolution_second",
                                 "lu_factorization"},
        "route_weight": {"vertical", "horizontal"},
        "convolution_shift": {"convolution_first", "convolution_second"},
        "u_factor": {"lu_factorization"},
        "closed_form": {"hankel_transform"},
        "gf_prefactor": {"rational_gf"},
        "tableau_walk": {"tableau"},
        "horizontal_falling": {"horizontal_gf"},
        "alternating_sum": {"explicit"},
        "binomial_row": {"explicit"},
        "egf_normalizer": {"egf"},
        "newton_base": {"newton"},
        "newton_remainder": {"newton"},
        "classical_product": {"classical_hankel"},
        "last_minor": {"hankel_transform", "classical_hankel",
                       "lu_factorization"},
        "h_prefixes": {"h_complete", "rational_gf"},
        "vertical_shift": {"vertical"},
        "horizontal_shift": {"horizontal"},
        "first_sides": {"convolution_first"},
        "second_sides": {"convolution_second"},
    }


# One family off both the default and the kill grid, r > m, with GRID's
# sizes and a t at which a falling factor [t-r-jm]_q is [0]_q (12 = 7 + 5).
OFF_GRID = {**GRID, "m": [5], "r": [7], "t": [-1, 2, 5, 12]}


def test_off_grid_family_passes():
    assert all(res.ok for res in verify.run_suite("all", OFF_GRID))


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_off_grid(fault):
    # the identities it fails here are not pinned
    with FAULTS[fault]():
        results = verify.run_suite("all", OFF_GRID)
    assert any(res.failures for res in results)


# Exit code and sha256 of the stdout of `verify --suite all` on GRID,
# clean and under each fault.  The recurrence fault's report is 53,381
# bytes; its egf failures, like its horizontal_gf ones, carry no side
# texts, since the EGF check compares integers at one point.
REPORTS = {
    "clean": (0, "e95dadfbb560bbf37243eee482deef0f"
                 "66c843d265da3c92b1e4431d6c95e471"),
    "recurrence": (1, "43ccd346a16dcdc5d3239011c8bdd60d"
                      "dbd7ea1543d872bcb4bcf5919ce35077"),
    "route_weight": (1, "0c95887c88530fa6e1d925c77df1ec5c"
                        "f3101e48811cf0940e803a9bac0d830d"),
    "convolution_shift": (1, "d63767d168d4d3513a006cc649d03d8f"
                             "1493e618181621a4a2fb8ecb1b63834b"),
    "u_factor": (1, "dee39acad9eef331722b8243d7a6eb24"
                    "dc01b9572ddd86c01df62de736965438"),
    "closed_form": (1, "bf125553f91173d06be9764e505bf349"
                       "34c5acfbbe5283b88a8d11b8a9ffa1d7"),
    "gf_prefactor": (1, "2e24ce4f533366d2266607062eddf1c2"
                        "cad0bcf3e53aea6eeb0f6e9b55675cac"),
    "tableau_walk": (1, "d905dda2efc242759741777948645ef5"
                        "1b5401d5c48119c98488c3c4d1c49561"),
    "horizontal_falling": (1, "e57e24e6c20b33c1db4887dab201bd13"
                              "490db56d7a2aef72905b511229821481"),
    "alternating_sum": (1, "5e5ba00f059f9931097064f686329e1e"
                           "7b81a76c56920f9910a4b5ccfc78374d"),
    "binomial_row": (1, "27c3b29fbe44aaecb8ac877ae7a8e7bb"
                        "df80fc827ecaac38713227c59a08e2a8"),
    "egf_normalizer": (1, "36238923d9ed618e197c338a43ae78e6"
                          "185a4a4148e20514bb65e0c338f0b17c"),
    "newton_base": (1, "d161f6197eb3fc78c3b54a171875c765"
                       "4d8fce2ae5665a7dacd796400f8acd5b"),
    "newton_remainder": (1, "4b127bf102d4da274fd4742aca6dfc0d"
                            "4c043a15eca8b372b378f8a4503a3fa9"),
    "classical_product": (1, "59dd4aaeb34a1c42bc535d268cdec354"
                             "47783a2789e6fc38bb0a35fdefd16da7"),
    "last_minor": (1, "35bd9fbb3763cc0ac0dcecf2c645bcf7"
                      "196d58bee8f104d6e0c780559f599bdb"),
    "h_prefixes": (1, "e2416cb193b41cc6b4172fb9572410ce"
                      "4451751f9f82c99a821f1fc5466731f6"),
    "vertical_shift": (1, "a1e6611d8cf0081835cb03b6a916435f"
                          "371e11360fc5f9ce2f178ae21a7f3cf2"),
    "horizontal_shift": (1, "4baded0767776b21b422aee43728212f"
                            "ae2cfc5c5d4e1ba1aa73d2796489383a"),
    "first_sides": (1, "be56c69ab1d953d011b1e6a9b38e0e80"
                       "113588a411cce2df05f515e01747d003"),
    "second_sides": (1, "39792b85053f7796347186f2e75f22bb"
                        "efcdbeb4859c8be5d6eda8c2a4918c20"),
}


@pytest.mark.parametrize("fault", REPORTS)
def test_golden_report(tmp_path, fault):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRID))
    out = io.StringIO()
    with FAULTS.get(fault, contextlib.nullcontext)():
        rc = cli.main(["verify", "--suite", "all", "--grid", str(path)], out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (rc, digest) == REPORTS[fault]


# Exit code and sha256 of the stdout of `verify --suite all` on the
# default grid: 12,420 cells, all passing.
DEFAULT_REPORT = (0, "c3b63eeb9e50827d236c35174dd97efd"
                     "ff613e9681714293ed18699b4aa8ee89")


def test_default_grid_report():
    out = io.StringIO()
    rc = cli.main(["verify", "--suite", "all"], out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (rc, digest) == DEFAULT_REPORT


def test_a_division_that_raises_is_a_failed_cell():
    # Under the remainder fault every Newton head of column k >= 2 leaves a
    # remainder: 24 cells of GRID, each recorded with the head and W times
    # the normalizer as its sides, and the other suites still run.
    with perturb_newton_remainder():
        results = verify.run_suite("all", GRID)
    assert sum(res.cells for res in results) == 840
    failures = [f for res in results for f in res.failures]
    assert len(failures) == 24
    for f in failures:
        p = WhitneyParams(f.params["m"], f.params["r"])
        n, k = f.params["n"], f.params["k"]
        assert f.identity == "newton" and k >= 2
        norm = prod(map(q_int, normalizer_factors(p, k)), start=ONE)
        assert f.rhs == str(w(p, n, k) * norm)


def test_last_minor_fails_the_largest_order_only():
    # Every order of a family is read from one elimination, so negating
    # its last determinant fails each Hankel identity at the family's
    # largest order alone: 8 families of GRID, 3 identities each.
    with perturb_last_minor():
        res = verify.run_suite("hankel", GRID)[0]
    assert len(res.failures) == 24
    assert {f.params["n"] for f in res.failures} == {GRID["nmax_hankel"]}
