"""The kill matrix of the planted faults over every suite.

Each fault of ``conftest`` mutates one route.  Run over a small grid, the
suites must pass without a fault, each fault must fail at least one cell,
and every identity the suites check must be failed by at least one fault:
a new identity that no fault reaches fails this test (mutation analysis,
DeMillo, Lipton & Sayward 1978).
"""

from conftest import (perturb_closed_form, perturb_convolution_shift,
                      perturb_gf_prefactor, perturb_recurrence,
                      perturb_route_weight, perturb_u_factor)
from qwhitney import verify

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
}


def test_kill_matrix(monkeypatch):
    checked = set()
    check = verify.SuiteResult.check

    def recording(self, condition, params, identity, *values):
        checked.add(identity)
        check(self, condition, params, identity, *values)

    with monkeypatch.context() as mp:
        mp.setattr(verify.SuiteResult, "check", recording)
        clean = verify.run_suite("all", GRID)
    assert all(res.ok for res in clean)
    assert sum(res.cells for res in clean) == 840
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
    }
