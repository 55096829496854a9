import csv
import io
import json
import time
from fractions import Fraction

import pytest

from conftest import perturb_recurrence
from qwhitney import cli, qcalculus, symm, verify
from qwhitney import whitney
from qwhitney.qcore import NonExactDivision
from qwhitney.whitney import InternalNonLaurent


def run(argv):
    buf = io.StringIO()
    rc = cli.main(argv, out=buf)
    return rc, buf.getvalue()


SMALL_GRID = {
    "m": [1], "r": [1], "nmax": 4, "nmax_tableau": 4, "nmax_genfun": 5,
    "nmax_egf": 5, "nmax_horizontal": 4, "kmax_genfun": 3, "t": [2, 5],
    "qvals": ["2", "-2"], "nmax_conv": 3, "spmax_conv": 3,
    "smax_hankel": 1, "nmax_hankel": 2,
}


@pytest.fixture
def small_grid(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(SMALL_GRID))
    return str(path)


class TestTable:
    def test_json_rows(self):
        rc, out = run(["table", "--m", "1", "--r", "1", "--nmax", "2",
                       "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["params"] == {"m": 1, "r": 1}
        assert doc["rows"][2] == [[[0, "1"]], [[1, "2"], [2, "1"]], [[3, "1"]]]

    def test_csv_stirling_at_one(self):
        rc, out = run(["table", "--m", "1", "--r", "0", "--nmax", "3",
                       "--q-eval", "1", "--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,value"
        values = {(int(n), int(k)): v
                  for n, k, v in (line.split(",") for line in lines[1:])}
        assert values[(3, 1)] == "1" and values[(3, 2)] == "3" and values[(3, 3)] == "1"

    def test_invalid_m(self):
        rc, _ = run(["table", "--m", "0", "--r", "1", "--nmax", "2"])
        assert rc == 2

    # (1, 5, 50) is the benchmark's largest table: top-row degree 1,475.
    @pytest.mark.parametrize("fmt, m, r, nmax", [
        pytest.param("json", 1, 3, 30, id="json"),
        pytest.param("csv", 1, 3, 30, id="csv"),
        pytest.param("json", 1, 5, 50, id="json-1-5-50"),
        pytest.param("csv", 1, 5, 50, id="csv-1-5-50")])
    def test_bytes_match_dumps_of_pairs(self, fmt, m, r, nmax):
        entries = whitney.w_table(whitney.WhitneyParams(m, r), nmax)
        if fmt == "json":
            expected = json.dumps(
                {"params": {"m": m, "r": r},
                 "rows": [[v.to_pairs() for v in row] for row in entries]}) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "k", "value"])
            for n, row in enumerate(entries):
                for k, v in enumerate(row):
                    writer.writerow([n, k, json.dumps(v.to_pairs())])
            expected = buf.getvalue()
        rc, out = run(["table", "--m", str(m), "--r", str(r), "--nmax", str(nmax),
                       "--format", fmt])
        assert rc == 0
        assert out == expected

    # The csv text is written without the csv module; csv.writer is the
    # reference.  A zero entry ("[]") and every value at q are unquoted.
    @pytest.mark.parametrize("qval", [None, "1", "2", "-3/5", "-2"])
    @pytest.mark.parametrize("m, r, nmax", [(1, 0, 8), (2, 3, 12)])
    def test_csv_matches_csv_writer(self, qval, m, r, nmax):
        entries = whitney.w_table(whitney.WhitneyParams(m, r), nmax)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        for n, row in enumerate(entries):
            for k, v in enumerate(row):
                writer.writerow([n, k, json.dumps(v.to_pairs()) if qval is None
                                 else str(v.eval(Fraction(qval)))])
        argv = ["table", "--m", str(m), "--r", str(r), "--nmax", str(nmax),
                "--format", "csv"]
        rc, out = run(argv + ([] if qval is None else ["--q-eval", qval]))
        assert rc == 0
        assert out == buf.getvalue()

    def test_deterministic(self):
        a = run(["table", "--m", "2", "--r", "1", "--nmax", "5"])
        b = run(["table", "--m", "2", "--r", "1", "--nmax", "5"])
        assert a == b


class TestSingleValues:
    def test_value(self):
        rc, out = run(["value", "--m", "1", "--r", "1", "--n", "2", "--k", "1"])
        assert rc == 0
        assert json.loads(out) == [[1, "2"], [2, "1"]]

    def test_star(self):
        rc, out = run(["star", "--m", "1", "--r", "1", "--n", "2", "--k", "1"])
        assert rc == 0
        assert json.loads(out) == [[0, "2"], [1, "1"]]

    def test_dowling(self):
        rc, out = run(["dowling", "--m", "1", "--r", "1", "--n", "2",
                       "--q-eval", "1"])
        assert rc == 0
        assert out.strip() == '"5"'

    def test_eval(self):
        rc, out = run(["eval", "--m", "1", "--r", "1", "--n", "2", "--k", "1",
                       "--q", "1/2"])
        assert rc == 0
        assert out.strip() == "5/4"

    @pytest.mark.parametrize("qarg", [["--q", "-3/5"], ["--q=-3/5"]])
    def test_eval_negative_rational(self, qarg):
        rc, out = run(["eval", "--m", "1", "--r", "1", "--n", "2", "--k", "1",
                       *qarg])
        assert rc == 0
        # W[2,1] = 2q + q^2
        assert out.strip() == "-21/25"

    @pytest.mark.parametrize("qarg", [["--q-eval", "-3/5"], ["--q-eval=-3/5"]])
    def test_dowling_negative_rational(self, qarg):
        rc, out = run(["dowling", "--m", "1", "--r", "1", "--n", "2", *qarg])
        assert rc == 0
        # W[2,0] + W[2,1] + W[2,2] = 1 + 2q + q^2 + q^3
        assert out.strip() == '"-7/125"'

    def test_eval_rejects_q_zero(self):
        rc, _ = run(["eval", "--m", "1", "--r", "1", "--n", "2", "--k", "1",
                     "--q", "0"])
        assert rc == 2

    @pytest.mark.parametrize("qarg", [["--q", "1/0"], ["--q", "-1/0"],
                                      ["--q=-1/0"]])
    def test_eval_rejects_zero_denominator(self, qarg):
        rc, _ = run(["eval", "--m", "1", "--r", "1", "--n", "2", "--k", "1",
                     *qarg])
        assert rc == 2

    # Fraction("1e99999999") alone would build 10^99999999 for minutes
    @pytest.mark.parametrize("exponent", ["99999999", "-99999999"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--m", "1", "--r", "1", "--n", "1", "--k", "1", "--q"],
        ["value", "--m", "1", "--r", "1", "--n", "1", "--k", "1", "--q-eval"]])
    def test_huge_exponent_refused_at_once(self, capsys, argv, exponent):
        start = time.perf_counter()
        rc, out = run(argv + [f"1e{exponent}"])
        assert time.perf_counter() - start < 1
        assert rc == 2 and out == ""
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["5e-1", "0.05E+1", "5_0e-0_2"])
    def test_exponent_within_limit_unchanged(self, q):
        rc, out = run(["eval", "--m", "1", "--r", "1", "--n", "2", "--k", "1",
                       "--q", q])
        assert rc == 0
        assert out.strip() == "5/4"


class TestHankelCommand:
    def test_two_by_two(self):
        rc, out = run(["hankel", "--m", "1", "--r", "1", "--s", "0", "--n", "1"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "PASS"
        assert doc["determinant"] == [[0, "1"], [1, "1"]]  # [2]_q

    def test_order_zero(self):
        rc, out = run(["hankel", "--m", "2", "--r", "2", "--s", "3", "--n", "0"])
        assert rc == 0
        assert json.loads(out)["determinant"] == [[0, "1"]]

    def test_classical_stirling_det(self):
        rc, out = run(["hankel", "--m", "1", "--r", "0", "--s", "0", "--n", "2",
                       "--q-eval", "1"])
        assert rc == 0
        assert json.loads(out)["determinant"] == "4"

    # Order 13: its largest Bareiss dividend has degree 1,301, under the
    # bound 2,184 and so under MAX_DEGREE.
    def test_order_thirteen(self):
        rc, out = run(["hankel", "--m", "1", "--r", "1", "--s", "2", "--n", "12"])
        assert rc == 0
        assert out.endswith('"status": "PASS"}\n')

    @pytest.mark.parametrize("s, n", [("-1", "3"), ("1", "-3"), ("-1", "500")])
    def test_negative_s_or_n_refused(self, capsys, s, n):
        rc, out = run(["hankel", "--m", "1", "--r", "1", "--s", s, "--n", n])
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == "error: s and n must be >= 0\n"


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
    def test_help_goes_to_out(self, capsys, argv):
        rc, out = run(argv)
        assert rc == 0
        assert out.startswith("usage:")
        assert capsys.readouterr().out == ""


class TestVerifyCommand:
    def test_single_suite_passes(self, small_grid):
        rc, out = run(["verify", "--suite", "hankel", "--grid", small_grid])
        assert rc == 0
        assert "hankel: PASS" in out

    def test_bad_suite(self):
        rc, _ = run(["verify", "--suite", "bogus"])
        assert rc == 2

    def test_missing_grid_file(self):
        rc, _ = run(["verify", "--suite", "hankel", "--grid", "/nonexistent.json"])
        assert rc == 2

    @pytest.mark.parametrize("grid, key", [({"m": 1}, "'m'"),
                                           ({"nmaxx": 3}, "'nmaxx'"),
                                           ({"nmax": -1}, "'nmax'")])
    def test_bad_grid(self, tmp_path, capsys, grid, key):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc, out = run(["verify", "--suite", "recurrences", "--grid", str(path)])
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_deeply_nested_grid(self, tmp_path, capsys):
        # json.load gives up on it with a RecursionError
        path = tmp_path / "grid.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc, out = run(["verify", "--suite", "all", "--grid", str(path)])
        assert rc == 2 and out == ""
        assert (capsys.readouterr().err
                == f"error: grid file {path} is nested too deeply\n")

    def test_report_schema(self, small_grid):
        rc, out = run(["verify", "--suite", "recurrences", "--grid", small_grid])
        assert rc == 0
        report = json.loads(out.strip().splitlines()[-1])
        assert report["suite"] == "recurrences"
        assert report["cells"] > 0 and report["failures"] == []

    def test_mutation_fails_with_witness(self, small_grid):
        with perturb_recurrence():
            rc, out = run(["verify", "--suite", "recurrences",
                           "--grid", small_grid])
        assert rc == 1
        report = json.loads(out.strip().splitlines()[-1])
        assert report["failures"]
        first = report["failures"][0]
        assert {"params", "identity", "lhs", "rhs"} <= set(first)


class TestSizeLimit:
    @pytest.fixture
    def no_ring_work(self, monkeypatch):
        """Make every command's first ring call fail the test."""
        def refuse(*args, **kwargs):
            raise AssertionError("ring work started before the size check")
        for name in ("w", "w_star", "r_dowling", "w_table", "hankel_matrix"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["value", "--m", "1", "--r", "1", "--n", "3000", "--k", "1"],
        ["star", "--m", "1", "--r", "0", "--n", "92", "--k", "3"],
        ["eval", "--m", "1", "--r", "1", "--n", "3000", "--k", "1", "--q", "2"],
        ["dowling", "--m", "3", "--r", "2", "--n", "60"],
        ["table", "--m", "1", "--r", "1", "--nmax", "3000"],
        ["value", "--m", "1", "--r", "100000", "--n", "1", "--k", "1"],
        ["hankel", "--m", "1", "--r", "0", "--s", "0", "--n", "20"],
        ["hankel", "--m", "1", "--r", "1", "--s", "1000", "--n", "0"],
    ])
    def test_oversized_request_refused(self, no_ring_work, capsys, argv):
        rc, out = run(argv)
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"MAX_DEGREE = {cli.MAX_DEGREE}" in err

    # A hankel family's bound is hankel.degree_bound: the largest of row
    # s+2n's top degree, 2 C(n+1,2) (m(s+n)+r-1) and the U factor's rows.
    # The ids of the cases whose bound it changed keep their former
    # numbers, so the test names stay stable.
    @pytest.mark.parametrize("argv, degree, allowed", [
        (["table", "--m", "1", "--r", "5", "--nmax", "50"], 1475, True),
        (["table", "--m", "1", "--r", "1", "--nmax", "80"], 3240, True),
        (["value", "--m", "1", "--r", "0", "--n", "91", "--k", "0"], 4095, True),
        (["value", "--m", "1", "--r", "0", "--n", "92", "--k", "0"], 4186, False),
        pytest.param(["hankel", "--m", "3", "--r", "5", "--s", "2", "--n", "5"],
                     2 * 15 * 25, True, id="argv4-1548-True"),
        pytest.param(["hankel", "--m", "1", "--r", "0", "--s", "0", "--n", "20"],
                     2 * 210 * 19, False, id="argv5-16380-False"),
        # the hankel suite: 2 C(5,2) (3*7+2-1) at m = 3, r = 2, s = 3, n = 4
        pytest.param(["verify", "--suite", "all"], 440, True,
                     id="argv6-935-True"),
        (["hankel", "--m", "1", "--r", "1", "--s", "2", "--n", "12"], 2184, True),
    ])
    def test_max_degree(self, argv, degree, allowed):
        assert cli._max_degree(cli._parser().parse_args(argv)) == degree
        assert (degree <= cli.MAX_DEGREE) == allowed

    @pytest.fixture
    def no_verify_work(self, monkeypatch):
        """Make a verify request that starts its suites fail the test."""
        def refuse(*args, **kwargs):
            raise AssertionError("a suite started before the size check")
        monkeypatch.setattr(verify, "run_suite", refuse)

    @pytest.mark.parametrize("suite, grid", [
        ("hankel", {"nmax_hankel": 40}),
        ("all", {"nmax_hankel": 40}),
        # the least nmax_hankel over the limit at the default m, r and s:
        # 2 C(11,2) (3*13+2-1) = 4400 (nmax_hankel 9 reaches 3330)
        ("all", {"nmax_hankel": 10}),
        ("explicit", {"nmax": 60}),
        ("recurrences", {"m": [1], "r": [0], "nmax": 91}),
        ("genfun", {"nmax_egf": 60}),
        ("convolution", {"spmax_conv": 30}),
        # [t]_q alone: the rows stay small
        ("genfun", {"t": [100000]}),
        ("all", {"t": [100000]}),
    ])
    def test_oversized_grid_refused(self, no_verify_work, tmp_path, capsys,
                                    suite, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc, out = run(["verify", "--suite", suite, "--grid", str(path)])
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: request too large: ")
        assert f"MAX_DEGREE = {cli.MAX_DEGREE}" in err

    # Row degree m*C(N,2) + r*N at m = 2, r = 1: each suite's largest row N.
    GRID = {"m": [1, 2], "r": [0, 1], "nmax": 5, "nmax_genfun": 4,
            "nmax_egf": 7, "nmax_horizontal": 3, "nmax_tableau": 6,
            "nmax_conv": 3, "spmax_conv": 4, "smax_hankel": 1,
            "nmax_hankel": 2}

    @pytest.mark.parametrize("suite, grid, degree", [
        ("recurrences", GRID, 36),  # row nmax+1 = 6
        ("explicit", GRID, 25),  # row 5
        ("genfun", GRID, 49),  # row nmax_egf = 7
        ("symmetric", GRID, 36),  # row 6
        ("convolution", GRID, 64),  # row 2 * spmax_conv = 8
        # 2 C(3,2) (2*3+1-1) at s = 1, n = 2, over row s+2n = 5 (25)
        pytest.param("hankel", GRID, 36, id="hankel-grid5-75"),
        pytest.param("all", GRID, 64, id="all-grid6-75"),
        # 2 C(41,2) (2*41+1-1), over row 81 (6561)
        pytest.param("hankel", {**GRID, "nmax_hankel": 40}, 134480,
                     id="hankel-grid7-269001"),
        ("explicit", {**GRID, "nmax_hankel": 40}, 25),
        # rows 0 and 1 only, r = 0 and no t (an empty m or r list is
        # refused: test_empty_parameter_list_refused)
        ("all", {**GRID, "m": [1], "r": [0], "t": [],
                 **dict.fromkeys(("nmax", "nmax_genfun", "nmax_egf",
                                  "nmax_horizontal", "nmax_tableau",
                                  "nmax_conv", "spmax_conv", "smax_hankel",
                                  "nmax_hankel"), 0)}, 0),
        ("explicit", {"nmax": 20}, 610),  # default m, r: 3 and 2
        # 2 C(8,2) (3*10+2-1), over row 17 (442)
        pytest.param("all", {"nmax_hankel": 7}, 1736, id="all-grid11-3536"),
        # [t]_q and [t-r-jm]_q, j < nmax_horizontal: |t| + r + m*3
        ("genfun", {**GRID, "t": [-4000, 7]}, 4007),
        ("genfun", {**GRID, "t": [100000]}, 100007),
        ("recurrences", {**GRID, "t": [100000]}, 36),
        ("genfun", {"t": [4000]}, 4026),  # default m, r, nmax_horizontal
    ])
    def test_verify_max_degree(self, suite, grid, degree):
        args = cli._parser().parse_args(["verify", "--suite", suite])
        args.grid = grid
        assert cli._max_degree(args) == degree

    # Such a grid has no (m, r) cell: every suite would pass on 0 cells.
    @pytest.mark.parametrize("suite", ["recurrences", "hankel", "all"])
    @pytest.mark.parametrize("key", ["m", "r"])
    def test_empty_parameter_list_refused(self, no_verify_work, tmp_path,
                                          capsys, suite, key):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({key: []}))
        rc, out = run(["verify", "--suite", suite, "--grid", str(path)])
        assert rc == 2 and out == ""
        least = {"m": 1, "r": 0}[key]
        assert capsys.readouterr().err == (
            f"error: grid key {key!r} must be a non-empty list of ints "
            f">= {least}\n")

    @pytest.fixture
    def no_tableau_work(self, monkeypatch):
        """Make a symmetric suite that starts its cells fail the test."""
        def refuse(*args, **kwargs):
            raise AssertionError("a symmetric cell started before the "
                                 "enumeration check")
        monkeypatch.setattr(symm, "w_star_symmetric", refuse)
        monkeypatch.setattr(symm, "tableau_sum", refuse)

    # Cell (m, r, n, k) enumerates C(n, k) tableaux, so a grid's total is
    # |m| |r| (2^(N+1) - 1) at N = nmax_tableau: 9 (2^26 - 1) at N = 25.
    # From N = 16 on the default m and r it is over the cap of 10^6, though
    # each cell up to N = 22 is under it, so a suite that checked each
    # cell, or only its largest one, would run long before refusing.
    @pytest.mark.parametrize("suite, nmax, code, count", [
        pytest.param("symmetric", 25, 2, 603979767, id="symmetric-2"),
        pytest.param("all", 25, 2, 603979767, id="all-2"),
        pytest.param("explicit", 25, 0, None, id="explicit-0"),
        pytest.param("symmetric", 16, 2, 1179639, id="symmetric-16-2"),
        pytest.param("symmetric", 19, 2, 9437175, id="symmetric-19-2"),
        # far over the cap the total is named by its formula, and refused
        # before the degree bound and without forming 2^(N+1)
        pytest.param("symmetric", 20000, 2, "9 * (2^20001 - 1)",
                     id="symmetric-20000-2"),
        pytest.param("all", 20000, 2, "9 * (2^20001 - 1)", id="all-20000-2"),
        pytest.param("symmetric", 10 ** 9, 2, "9 * (2^1000000001 - 1)",
                     id="symmetric-1e9-2"),
        pytest.param("all", 10 ** 9, 2, "9 * (2^1000000001 - 1)",
                     id="all-1e9-2"),
    ])
    def test_oversized_tableau_grid_refused_first(self, no_tableau_work,
                                                  request, tmp_path, capsys,
                                                  suite, nmax, code, count):
        if suite == "all":
            # refused before the first suite, not only before the
            # symmetric suite's first cell
            request.getfixturevalue("no_verify_work")
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"nmax_tableau": nmax}))
        rc, out = run(["verify", "--suite", suite, "--grid", str(path)])
        assert rc == code
        if code == 2:
            assert out == ""
            assert capsys.readouterr().err == \
                f"error: {count} tableaux exceeds cap 1000000\n"

    def test_tableau_total(self, no_tableau_work):
        # 9 (2^9 - 1) on the default grid; 9 (2^16 - 1) at N = 15 is the
        # largest total under the cap on the default m and r
        assert verify._check_tableau_total(verify._grid()) == 4599
        grid = verify._grid({"nmax_tableau": 15})
        assert verify._check_tableau_total(grid) == 589815
        assert verify.max_degree("symmetric", {"nmax_tableau": 15})
        with pytest.raises(symm.EnumerationTooLarge):
            verify._check_tableau_total(verify._grid({"nmax_tableau": 16}))
        # the exact total is named up to N = 2 bit_length(cap) = 40
        with pytest.raises(symm.EnumerationTooLarge, match="^19791209299959 "):
            verify._check_tableau_total(verify._grid({"nmax_tableau": 40}))
        with pytest.raises(symm.EnumerationTooLarge, match=r"^9 \* \(2\^42 "):
            verify._check_tableau_total(verify._grid({"nmax_tableau": 41}))

    def test_grid_within_bound_runs(self, tmp_path):
        # the bound covers only the suites a request runs
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"nmax": 3, "nmax_hankel": 40}))
        rc, out = run(["verify", "--suite", "explicit", "--grid", str(path)])
        assert rc == 0
        assert json.loads(out.strip().splitlines()[-1])["cells"] == 9 * 2 * 10


class TestDigitLimit:
    # W[80,40] at q = 100 and the row sum at q = 1/100 have numerators or
    # denominators of more digits than str() of an int converts (4,300);
    # so has q = 2.5E4300 itself, whose exponent is within the parse bound
    @pytest.mark.parametrize("argv", [
        ["table", "--m", "1", "--r", "1", "--nmax", "80", "--q-eval", "100"],
        ["table", "--m", "1", "--r", "1", "--nmax", "80", "--q-eval", "100",
         "--format", "csv"],
        ["value", "--m", "1", "--r", "1", "--n", "80", "--k", "40",
         "--q-eval", "100"],
        ["dowling", "--m", "1", "--r", "1", "--n", "80", "--q-eval", "1/100"],
        ["eval", "--m", "1", "--r", "1", "--n", "80", "--k", "40", "--q", "100"],
        ["table", "--m", "1", "--r", "1", "--nmax", "3", "--q-eval", "2.5E4300"],
        ["value", "--m", "1", "--r", "1", "--n", "3", "--k", "1",
         "--q-eval", "2.5E4300"],
        ["eval", "--m", "1", "--r", "1", "--n", "3", "--k", "1",
         "--q", "2.5E4300"],
    ])
    def test_refused_in_one_line(self, capsys, argv):
        rc, out = run(argv)
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: request too large: ")
        assert len(err.splitlines()) == 1
        assert "set_int_max_str_digits" not in err

    def test_within_limit_unchanged(self):
        rc, out = run(["table", "--m", "1", "--r", "1", "--nmax", "80",
                       "--q-eval", "10"])
        assert rc == 0
        rows = whitney.w_table(whitney.WhitneyParams(1, 1), 80)
        assert out == json.dumps(
            {"params": {"m": 1, "r": 1},
             "rows": [[str(v.eval(10)) for v in row] for row in rows]}) + "\n"


class TestInternalError:
    @pytest.mark.parametrize("module, name, error, suite", [
        (qcalculus, "q_binomial_row", NonExactDivision, "explicit"),
        (verify, "w_horizontal", InternalNonLaurent, "recurrences"),
    ])
    def test_exit_three_in_one_line(self, monkeypatch, capsys, small_grid,
                                    module, name, error, suite):
        def broken(*args, **kwargs):
            raise error("planted")
        monkeypatch.setattr(module, name, broken)
        rc, out = run(["verify", "--suite", suite, "--grid", small_grid])
        assert rc == 3 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: internal error: ")
        assert "planted" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1


# Every subcommand, a negative rational, eval --star then eval without it
# (a leaked default would show), help, and usage errors between good requests.
MIXED_STREAM = [
    ["table", "--m", "2", "--r", "1", "--nmax", "6", "--format", "csv"],
    ["value", "--m", "1", "--r", "2", "--n", "5", "--k", "2", "--q-eval", "-3/5"],
    ["eval", "--m", "1", "--r", "1", "--n", "4", "--k", "2", "--q", "-3/5", "--star"],
    ["eval", "--m", "1", "--r", "1", "--n", "4", "--k", "2", "--q", "-3/5"],
    ["eval", "--m", "1", "--r", "1", "--n", "4", "--k", "2", "--q", "1/0"],
    ["star", "--m", "2", "--r", "2", "--n", "5", "--k", "3"],
    ["bogus", "--m", "1"],
    ["dowling", "--m", "3", "--r", "0", "--n", "6", "--q-eval=-3/5"],
    ["table", "--m", "1", "--r", "0", "--nmax", "4", "--q-eval", "2"],
    ["hankel", "--m", "1", "--r", "1", "--s", "1", "--n", "2"],
    ["eval", "--help"],
    ["hankel", "--m", "2", "--r", "0", "--s", "0", "--n", "2", "--q-eval", "-3/5"],
    ["value", "--m", "1", "--r", "1", "--n", "3000", "--k", "1"],
    ["verify", "--suite", "recurrences", "--grid", None],
    ["eval", "--m", "1", "--r", "1", "--n", "4", "--k", "2", "--q", "3/5"],
]


class TestParserReuse:
    def test_parser_built_once(self, monkeypatch):
        builds = []
        build = cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for n in range(10):
                assert run(["value", "--m", "1", "--r", "1", "--n", str(n),
                            "--k", "0"])[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_reuse_is_invisible(self, monkeypatch, capsys, small_grid):
        stream = [[small_grid if a is None else a for a in argv]
                  for argv in MIXED_STREAM]

        def results():
            out = []
            for argv in stream:
                rc, text = run(argv)
                captured = capsys.readouterr()
                out.append((argv, rc, text, captured.out, captured.err))
            return out

        cli._parser.cache_clear()
        shared = results()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = results()
        assert shared == fresh
        assert {argv[0] for argv, *_ in shared} >= {
            "table", "value", "star", "dowling", "eval", "hankel", "verify"}
        assert [rc for _, rc, *_ in shared] == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0,
                                                0, 0, 2, 0, 0]
