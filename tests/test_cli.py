import contextlib
import csv
import io
import json
import os
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import pairs, perturb_recurrence, poly
from qwhitney import cli, hankel, qcalculus, qcore, symm, verify
from qwhitney import whitney
from qwhitney.hankel import HankelSpec, degree_bound
from qwhitney.qcore import NonExactDivision, q_int


def run(argv):
    buf = io.StringIO()
    rc = cli.main(argv, out=buf)
    return rc, buf.getvalue()


LIMIT = sys.get_int_max_str_digits()
SMALL_GRID = {
    "m": [1], "r": [1], "nmax": 4, "nmax_tableau": 4, "nmax_genfun": 5,
    "nmax_egf": 5, "nmax_horizontal": 4, "kmax_genfun": 3, "t": [2, 5],
    "qvals": ["2", "-2"], "nmax_conv": 3, "spmax_conv": 3,
    "smax_hankel": 1, "nmax_hankel": 2,
}


def suite_names(suite):
    """The suites run_suite(suite, ...) runs."""
    return list(verify._SUITE_FUNCS) if suite == "all" else [suite]


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
                 "rows": [[pairs(v) for v in row] for row in entries]}) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "k", "value"])
            for n, row in enumerate(entries):
                for k, v in enumerate(row):
                    writer.writerow([n, k, json.dumps(pairs(v))])
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
                writer.writerow([n, k, json.dumps(pairs(v)) if qval is None
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

    # argparse prints the reason of an ArgumentTypeError only
    @pytest.mark.parametrize("q, reason", [
        ("0", "q must be nonzero"),
        ("1/0", "q has a zero denominator"),
        ("1e99999999", f"q has a decimal exponent over "
                       f"{sys.get_int_max_str_digits()}, more digits than "
                       f"the interpreter converts to text"),
        ("abc", "q must be a rational number such as 3/5, -2 or 0.25, "
                "not 'abc'"),
        ("1e_1", "q must be a rational number such as 3/5, -2 or 0.25, "
                 "not '1e_1'"),
        ("7" * (sys.get_int_max_str_digits() + 1),
         f"q has over {sys.get_int_max_str_digits()} digits, more than "
         f"the interpreter converts to text"),
        ("1e" + "9" * (sys.get_int_max_str_digits() + 1),
         f"q has over {sys.get_int_max_str_digits()} digits, more than "
         f"the interpreter converts to text")])
    @pytest.mark.parametrize("argv", [
        ["eval", "--m", "1", "--r", "1", "--n", "1", "--k", "1", "--q"],
        ["value", "--m", "1", "--r", "1", "--n", "1", "--k", "1", "--q-eval"]])
    def test_refused_q_gives_its_reason(self, capsys, argv, q, reason):
        rc, out = run(argv + [q])
        assert rc == 2 and out == ""
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"qwhitney {argv[0]}: error: argument {argv[-1]}: {reason}")

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

    # A grid's q is read as --q reads it, and must convert to text since it
    # names its cells: Fraction alone would take minutes on the first, and
    # the others have more digits than the interpreter converts.
    @pytest.mark.parametrize("q, reason", [
        ("1e99999999", f"q has a decimal exponent over {LIMIT}, more digits "
                       f"than the interpreter converts to text"),
        ("1e5000", f"q has a decimal exponent over {LIMIT}, more digits "
                   f"than the interpreter converts to text"),
        ("1.5e4300", f"q has over {LIMIT} digits, more than the interpreter "
                     f"converts to text")])
    def test_grid_q_refused_at_once(self, tmp_path, capsys, q, reason):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"qvals": [q]}))
        start = time.perf_counter()
        rc, out = run(["verify", "--suite", "genfun", "--grid", str(path)])
        assert time.perf_counter() - start < 1
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == f"error: grid key 'qvals': {reason}\n"

    def test_deeply_nested_grid(self, tmp_path, capsys):
        # json.load gives up on it with a RecursionError
        path = tmp_path / "grid.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc, out = run(["verify", "--suite", "all", "--grid", str(path)])
        assert rc == 2 and out == ""
        assert (capsys.readouterr().err
                == f"error: grid file {path} is nested too deeply\n")

    def test_grid_integer_over_the_digit_limit(self, tmp_path, capsys):
        # json.load's int() would refuse it with the interpreter's advice
        # to call sys.set_int_max_str_digits
        path = tmp_path / "grid.json"
        path.write_text('{"nmax": ' + "9" * (LIMIT + 1) + "}")
        rc, out = run(["verify", "--suite", "all", "--grid", str(path)])
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: grid file {path} has an integer of over {LIMIT} digits, "
            f"more than the interpreter converts from text\n")

    @pytest.mark.parametrize("data, reason", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
        (b"{x", "Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)")])
    def test_unreadable_grid_file_is_named(self, tmp_path, capsys, data,
                                           reason):
        # not UTF-8, and not JSON
        path = tmp_path / "grid.json"
        path.write_bytes(data)
        rc, out = run(["verify", "--suite", "all", "--grid", str(path)])
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == f"error: grid file {path}: {reason}\n"

    def test_one_reading_per_run(self, monkeypatch, small_grid):
        # run_suite reads a request once for all six suites: one check of
        # the grid, one read of each q, one bound on the tableau total;
        # main reads it only through run_suite
        calls = Counter()
        for name in ("_check_grid", "read_q", "_check_tableau_total"):
            def counted(*args, real=getattr(verify, name), name=name,
                        **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(verify, name, counted)
        results = verify.run_suite("all", SMALL_GRID)
        assert [r.suite for r in results] == list(verify.SUITES[:-1])
        assert all(r.ok for r in results)
        assert calls == {"_check_grid": 1, "read_q": 2,
                         "_check_tableau_total": 1}
        calls.clear()
        rc, _ = run(["verify", "--suite", "all", "--grid", small_grid])
        assert rc == 0
        assert calls == {"_check_grid": 1, "read_q": 2,
                         "_check_tableau_total": 1}

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


def built_within_gate(suite, grid):
    """Run one suite on grid, in an empty row cache, and require it to pass
    with every polynomial it builds, its rows too, within the degree D the
    gate checks.  The explicit suite rolls its values [jm+r]_q^n and the
    terms of its alternating sums as integers at one point q = 2^B per
    family, not as polynomials: each must have bit length at most
    B (D - lo + 1), where lo = 0 since no W of a passing grid has a
    negative exponent.  The largest, [m nmax + r]_X^nmax, reaches about
    twice the top degree of row nmax.  Returns the largest degree built,
    D, and the (B, bit length) of each value rolled at a point."""
    reached, widths = [0], []
    build, roll = qcore._poly, verify.mul_q_int_at_point

    def recorded(lo, c):
        if c:
            reached[0] = max(reached[0], -lo, lo + len(c) - 1)
        return build(lo, c)

    def rolled(x, a, bits):
        y = roll(x, a, bits)
        widths.append((bits, abs(y).bit_length()))
        return y

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(whitney, "_tables", {})
        mp.setattr(qcore, "_poly", recorded)
        mp.setattr(verify, "mul_q_int_at_point", rolled)
        assert verify.run_suite(suite, grid)[0].ok
    degree = verify._max_degree([suite], verify._check_grid(grid))
    assert reached[0] <= degree
    assert all(width <= bits * (degree + 1) for bits, width in widths)
    return reached[0], degree, widths


def hankel_families_within_bound(grid):
    """Run the hankel suite on grid, in an empty row cache, and require
    every polynomial each (m, r, s) family builds, from its matrix on, to
    be within ``hankel.degree_bound`` of that family."""
    families, build, matrix = [], qcore._poly, hankel.hankel_matrix

    def recorded(lo, c):
        if c and families:
            families[-1][1] = max(families[-1][1], -lo, lo + len(c) - 1)
        return build(lo, c)

    def opened(spec):
        families.append([spec, 0])
        return matrix(spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(whitney, "_tables", {})
        mp.setattr(qcore, "_poly", recorded)
        mp.setattr(hankel, "hankel_matrix", opened)
        assert verify.run_suite("hankel", grid)[0].ok
    assert families
    for spec, reached in families:
        assert reached <= degree_bound(spec), spec


# The largest sizes one_family_grids draws.
ONE_FAMILY_SIZES = {
    "nmax": 5, "nmax_tableau": 5, "nmax_genfun": 6, "nmax_egf": 6,
    "nmax_horizontal": 5, "kmax_genfun": 4, "nmax_conv": 3, "spmax_conv": 3,
    "smax_hankel": 2, "nmax_hankel": 3,
}


@st.composite
def one_family_grids(draw):
    """A grid of one family, m in 1..12 and r in 0..15, with small sizes
    per suite, a t list that holds a negative t, and one q that is not an
    integer."""
    grid = {key: draw(st.integers(0, top))
            for key, top in ONE_FAMILY_SIZES.items()}
    negative = draw(st.integers(-20, -1))
    ts = draw(st.lists(st.integers(-20, 30), max_size=3))
    q = draw(st.fractions(-3, 3, max_denominator=9)
             .filter(lambda q: q.denominator > 1))
    return {**grid, "m": [draw(st.integers(1, 12))],
            "r": [draw(st.integers(0, 15))], "t": [negative, *ts],
            "qvals": [str(q)]}


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
        assert err.startswith("error: ") and f"MAX_DEGREE = {whitney.MAX_DEGREE}" in err

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
    def test_max_degree(self, admitted, argv, degree, allowed):
        args = cli._parser().parse_args(argv)
        if args.command == "verify":
            bound = verify._max_degree(suite_names(args.suite),
                                       verify._check_grid(args.grid))
        elif args.command == "hankel":
            bound = degree_bound(HankelSpec(whitney.WhitneyParams(
                args.m, args.r), args.s, args.n))
        else:
            bound = whitney.row_degree(
                args.m, args.r, args.nmax if args.command == "table"
                else args.n)
        assert bound == degree
        assert (degree <= whitney.MAX_DEGREE) == allowed
        assert admitted(argv) == allowed

    @pytest.fixture
    def no_verify_work(self, monkeypatch):
        """Make a verify request that starts its suites fail the test:
        run_suite is the gate, so each suite it would run is stubbed."""
        def refuse(*args, **kwargs):
            raise AssertionError("a suite started before the size check")
        for name in verify._SUITE_FUNCS:
            monkeypatch.setitem(verify._SUITE_FUNCS, name, refuse)

    @pytest.fixture
    def admitted(self, monkeypatch, capsys):
        """Whether main admits an argv: it reaches the first ring call or
        suite, which is stubbed, or it is refused as too large."""
        class Admitted(Exception):
            pass

        def admit(*args, **kwargs):
            raise Admitted
        for name in ("w", "w_star", "r_dowling", "w_table", "hankel_matrix"):
            monkeypatch.setattr(cli, name, admit)
        for name in verify._SUITE_FUNCS:
            monkeypatch.setitem(verify._SUITE_FUNCS, name, admit)

        def run_to_gate(argv):
            try:
                rc, out = run(argv)
            except Admitted:
                return True
            assert rc == 2 and out == ""
            assert capsys.readouterr().err.startswith(
                "error: request too large: ")
            return False
        return run_to_gate

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
        # row 91 reaches degree 4,095, but [91]_q^91 reaches 8,190: it ran
        # for minutes when the gate read the row alone
        ("explicit", {"m": [1], "r": [0], "nmax": 91}),
    ])
    def test_oversized_grid_refused(self, no_verify_work, tmp_path, capsys,
                                    suite, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc, out = run(["verify", "--suite", suite, "--grid", str(path)])
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: request too large: ")
        assert f"MAX_DEGREE = {whitney.MAX_DEGREE}" in err

    # Row degree m*C(N,2) + r*N at m = 2, r = 1: each suite's largest row N,
    # and for the explicit suite the degree N (mN + r - 1) of [mN + r]_q^N
    # at N = nmax.  The ids of the explicit cases keep their former row
    # degrees, so the test names stay stable.
    GRID = {"m": [1, 2], "r": [0, 1], "nmax": 5, "nmax_genfun": 4,
            "nmax_egf": 7, "nmax_horizontal": 3, "nmax_tableau": 6,
            "nmax_conv": 3, "spmax_conv": 4, "smax_hankel": 1,
            "nmax_hankel": 2}

    @pytest.mark.parametrize("suite, grid, degree", [
        ("recurrences", GRID, 36),  # row nmax+1 = 6
        pytest.param("explicit", GRID, 50, id="explicit-grid1-25"),  # 5 * 10
        ("genfun", GRID, 49),  # row nmax_egf = 7
        ("symmetric", GRID, 36),  # row 6
        ("convolution", GRID, 64),  # row 2 * spmax_conv = 8
        # 2 C(3,2) (2*3+1-1) at s = 1, n = 2, over row s+2n = 5 (25)
        pytest.param("hankel", GRID, 36, id="hankel-grid5-75"),
        pytest.param("all", GRID, 64, id="all-grid6-75"),
        # 2 C(41,2) (2*41+1-1), over row 81 (6561)
        pytest.param("hankel", {**GRID, "nmax_hankel": 40}, 134480,
                     id="hankel-grid7-269001"),
        pytest.param("explicit", {**GRID, "nmax_hankel": 40}, 50,
                     id="explicit-grid8-25"),
        # rows 0 and 1 only, r = 0 and no t (an empty m or r list is
        # refused: test_empty_parameter_list_refused)
        ("all", {**GRID, "m": [1], "r": [0], "t": [],
                 **dict.fromkeys(("nmax", "nmax_genfun", "nmax_egf",
                                  "nmax_horizontal", "nmax_tableau",
                                  "nmax_conv", "spmax_conv", "smax_hankel",
                                  "nmax_hankel"), 0)}, 0),
        # default m, r: 3 and 2, 20 (3*20 + 2 - 1)
        pytest.param("explicit", {"nmax": 20}, 1220, id="explicit-grid10-610"),
        # 2 C(8,2) (3*10+2-1), over row 17 (442)
        pytest.param("all", {"nmax_hankel": 7}, 1736, id="all-grid11-3536"),
        # [t]_q and [t-r-jm]_q, j < nmax_horizontal: |t| + r + m*3
        ("genfun", {**GRID, "t": [-4000, 7]}, 4007),
        ("genfun", {**GRID, "t": [100000]}, 100007),
        ("recurrences", {**GRID, "t": [100000]}, 36),
        ("genfun", {"t": [4000]}, 4026),  # default m, r, nmax_horizontal
        # rows 1 and 0 alone, but the weight [m+r]_q read with them:
        # m + r - 1 over the row degree, r or 0
        ("recurrences", {"m": [3], "r": [0], "nmax": 0}, 2),
        ("recurrences", {"m": [5000], "nmax": 0}, 5001),
        ("symmetric", {"m": [5000], "nmax_tableau": 1}, 5001),
    ])
    def test_verify_max_degree(self, admitted, tmp_path, suite, grid,
                               degree):
        assert verify._max_degree(suite_names(suite),
                                  verify._check_grid(grid)) == degree
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert admitted(["verify", "--suite", suite, "--grid", str(path)]) \
            == (degree <= whitney.MAX_DEGREE)

    # Families off both grids: the largest m and r are not those of either.
    OFF_GRID = {"m": [1, 4, 7], "r": [0, 3, 10], "nmax": 7,
                "nmax_tableau": 5, "nmax_genfun": 6, "nmax_egf": 6,
                "nmax_horizontal": 4, "kmax_genfun": 3, "t": [-5, 0, 3, 11],
                "qvals": ["2", "-1/3"], "nmax_conv": 4, "spmax_conv": 3,
                "smax_hankel": 2, "nmax_hankel": 3}

    @pytest.mark.parametrize("grid", [None, GRID, OFF_GRID],
                             ids=["default", "GRID", "off-grid"])
    @pytest.mark.parametrize("suite", list(verify._SUITE_FUNCS))
    def test_gate_covers_every_polynomial_built(self, suite, grid):
        reached, _, widths = built_within_gate(suite, grid)
        assert reached > 0
        assert bool(widths) == (suite == "explicit")

    # The identities are claimed for every m >= 1 and r >= 0, not only on
    # the fixed grids.
    @given(grid=one_family_grids())
    @example(grid={**ONE_FAMILY_SIZES, "m": [2], "r": [9],
                   "t": [-7, 0, 13], "qvals": ["-3/5"]})
    @example(grid={**ONE_FAMILY_SIZES, "m": [7], "r": [0],
                   "t": [-1, 7], "qvals": ["1/2"]})
    @example(grid={**ONE_FAMILY_SIZES, "m": [12], "r": [15],
                   "t": [-20, 3, 27], "qvals": ["7/3"]})
    @settings(max_examples=15, deadline=None)
    def test_every_identity_off_the_grid(self, grid):
        assert all(res.ok for res in verify.run_suite("all", grid))
        for suite in verify._SUITE_FUNCS:
            built_within_gate(suite, grid)
        hankel_families_within_bound(grid)

    def test_run_suite_refuses_oversized_grid(self, no_verify_work):
        # the library path is gated too: the explicit suite's [3*60+2]_q^60
        # reaches 60 (3*60 + 2 - 1) at m = 3, r = 2
        with pytest.raises(ValueError, match=(
                r"^request too large: its polynomials may reach degree 10860,"
                r" over the limit MAX_DEGREE = 4096$")):
            verify.run_suite("all", {"nmax": 60})

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
        monkeypatch.setattr(symm, "h_prefixes", refuse)
        monkeypatch.setattr(symm, "tableau_walk", refuse)

    # Walk (m, r, k) enumerates C(N+1, N-k) tableaux at N = nmax_tableau,
    # so a grid's total is |m| |r| (2^(N+1) - 1): 9 (2^26 - 1) at N = 25.
    # From N = 16 on the default m and r it is over the cap of 10^6, though
    # each walk up to N = 21 is under it, so a suite that checked each
    # walk, or only its largest one, would run long before refusing.
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
        def total(grid):
            return verify._check_tableau_total(verify._check_grid(grid))

        assert total(None) == 4599
        assert total({"nmax_tableau": 15}) == 589815
        with pytest.raises(symm.EnumerationTooLarge):
            total({"nmax_tableau": 16})
        # the exact total is named up to N = 2 bit_length(cap) = 40
        with pytest.raises(symm.EnumerationTooLarge, match="^19791209299959 "):
            total({"nmax_tableau": 40})
        with pytest.raises(symm.EnumerationTooLarge, match=r"^9 \* \(2\^42 "):
            total({"nmax_tableau": 41})

    def test_genfun_work(self):
        # per (t, q): (nh + 1) |m| |r| cells of (|t| + D) (nh |t| + D) b^2
        # squared bits and GENFUN_CELL_WORK each, with D the top degree of
        # row nh at the largest m and r and b the bit lengths of q's
        # numerator and denominator added
        def work(grid):
            return verify._check_genfun_work(verify._check_grid(grid))

        def sizes(ts, nh, degree):
            return sum((abs(t) + degree) * (nh * abs(t) + degree)
                       for t in ts)

        cell = verify.GENFUN_CELL_WORK
        ts = range(-3, 13)
        # D = 3 C(8, 2) + 2 * 8; qvals 2, 1/2, 3/5 and -2: b = 3, 3, 5, 3
        assert work(None) == 81 * (sizes(ts, 8, 100) * 52 + 64 * cell)
        assert work({"t": [0]}) == 81 * (100 ** 2 * 52 + 4 * cell)
        assert work({"t": []}) == work({"qvals": []}) == 0
        assert work({"qvals": ["2"] * 100}) == \
            81 * (sizes(ts, 8, 100) * 9 * 100 + 1600 * cell)
        # D = 3 C(50, 2) + 2 * 50
        assert work({"nmax_horizontal": 50}) == \
            51 * 9 * (sizes(ts, 50, 3775) * 52 + 64 * cell)
        # q reads as 13717421/109739369 in lowest terms: b = 24 + 27
        assert work({"t": [1000], "qvals": ["123456789/987654321"]}) == \
            81 * (1100 * 8100 * 51 ** 2 + cell)
        with pytest.raises(ValueError, match=(
                r"^request too large: 972972 horizontal generating function "
                r"cells are 321264780224544 units of work, over the budget "
                r"GENFUN_WORK_BUDGET = 30000000000000$")):
            work({"t": list(range(-3, 3000))})

    # Each cell's integers grow with the row degree at nmax_horizontal and
    # with the bits of q: the first two grids ran for minutes.  The rest
    # ran in 0.3-9 s and stay admitted.
    @pytest.mark.parametrize("grid, refused", [
        ({"t": [1000] * 80, "qvals": ["123456789/987654321"] * 4}, True),
        ({"nmax_horizontal": 50, "qvals": ["3/5"] * 100}, True),
        ({}, False),
        ({"nmax_horizontal": 50}, False),
        ({"t": list(range(-3, 600))}, False),
        ({"t": list(range(-3, 784))}, False),
        ({"t": [4000] * 20}, False),
        ({"qvals": ["2"] * 1000}, False),
    ])
    def test_genfun_work_weighs_row_degree_and_q_bits(self, no_verify_work,
                                                      tmp_path, capsys, grid,
                                                      refused):
        if not refused:
            verify._check_genfun_work(verify._check_grid(grid))
            return
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        start = time.perf_counter()
        rc, out = run(["verify", "--suite", "genfun", "--grid", str(path)])
        assert time.perf_counter() - start < 1
        assert rc == 2 and out == ""
        assert "GENFUN_WORK_BUDGET" in capsys.readouterr().err

    # A long t or qvals list passes the degree bound, since each value is
    # within MAX_DEGREE; t = -3..2999 ran past 100 s before this bound.
    @pytest.mark.parametrize("suite", ["genfun", "all"])
    def test_oversized_genfun_grid_refused_first(self, no_verify_work,
                                                 tmp_path, capsys, suite):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"t": list(range(-3, 3000))}))
        rc, out = run(["verify", "--suite", suite, "--grid", str(path)])
        assert rc == 2 and out == ""
        assert capsys.readouterr().err.startswith(
            "error: request too large: 972972 horizontal generating "
            "function cells")

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

    # Within MAX_DEGREE, but each value has millions of digits at q: the
    # bound on its numerator (q = 2.5E4300) or denominator (q = 4E-4300)
    # refuses it from bit lengths, where evaluating it took 10 s to minutes
    @pytest.mark.parametrize("argv", [
        ["eval", "--m", "1", "--r", "0", "--n", "40", "--k", "20",
         "--q", "2.5E4300"],
        ["value", "--m", "1", "--r", "0", "--n", "40", "--k", "20",
         "--q-eval", "2.5E4300"],
        ["eval", "--m", "1", "--r", "0", "--n", "40", "--k", "20",
         "--q", "4E-4300"],
        ["eval", "--m", "1", "--r", "0", "--n", "40", "--k", "20",
         "--q", "4E-4300", "--star"],
    ])
    def test_refused_before_evaluation(self, capsys, argv):
        start = time.perf_counter()
        rc, out = run(argv)
        assert time.perf_counter() - start < 1
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: request too large: ")
        assert len(err.splitlines()) == 1

    def test_long_q_named_by_its_digit_count(self, capsys):
        # q = 1/(25 10^4298) converts to text, but 4,302 characters of it
        # would make the refusal a 4 KB line
        rc, out = run(["eval", "--m", "1", "--r", "0", "--n", "40", "--k", "20",
                       "--q", "4E-4300"])
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: request too large: its value at a q of "
                              "4301 digits ")
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200

    @given(coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
           lo=st.integers(0, 6), num=st.integers(-10 ** 6, 10 ** 6),
           den=st.integers(1, 10 ** 6), limit=st.integers(1, 40))
    # q^3 - 50 q^2 + 1 = 1 at q = 50, and 64 q^3 = 1 at q = 1/4: a bound
    # without the sum of |c_i|, or without the top coefficient, refuses them
    @example(coeffs=[1, 0, -50, 1], lo=0, num=50, den=1, limit=1)
    @example(coeffs=[0, 0, 0, 64], lo=0, num=1, den=4, limit=1)
    @settings(max_examples=300, deadline=None)
    def test_bound_refuses_only_what_is_too_long(self, coeffs, lo, num,
                                                 den, limit):
        # The early refusal must not refuse a value that would print.
        value = poly(dict(enumerate(coeffs, lo)))
        q = Fraction(num, den)
        assume(q and value)
        if cli._surely_too_long(value, q, limit):
            exact = value.eval(q)
            assert max(len(str(abs(exact.numerator))),
                       len(str(exact.denominator))) > limit

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


class TestRouteLeavesTheRing:
    """A route whose values leave the polynomial ring, here through a
    weight q^-1 [a]_q, fails its cells with their witnesses: no W has a
    negative exponent, so the comparison alone catches it."""

    GRID = {"m": [1], "r": [0], "nmax": 4}

    @pytest.fixture
    def weight_over_q(self, monkeypatch):
        monkeypatch.setattr(whitney, "q_int", lambda a: q_int(a).shift(-1))

    def test_failed_cells(self, weight_over_q):
        (res,) = verify.run_suite("recurrences", self.GRID)
        assert res.counts == {"vertical": 10, "horizontal": 15}
        assert len(res.failures) == 16
        assert {f.identity for f in res.failures} == {"vertical",
                                                      "horizontal"}

    def test_exit_one_with_the_report(self, weight_over_q, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(self.GRID))
        rc, out = run(["verify", "--suite", "recurrences", "--grid",
                       str(path)])
        report = json.loads(out.splitlines()[-1])
        assert rc == 1 and report["cells"] == 25
        assert len(report["failures"]) == 16


class TestOutOfMemory:
    def test_exit_two_in_one_line(self, monkeypatch, capsys, small_grid):
        # A request that outgrows memory is input the gates let through,
        # not a failed identity (exit 1); the stub allocates nothing.
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(qcalculus, "q_binomial_row", exhausted)
        rc, out = run(["verify", "--suite", "explicit", "--grid", small_grid])
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: request too large")
        assert "Traceback" not in err and len(err.splitlines()) == 1


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


class TestStrictParse:
    def test_canonical_stream_takes_it(self, small_grid):
        # all but an unknown subcommand, a help request and a refused q
        parser = cli._parser()
        for argv in MIXED_STREAM:
            argv = cli._bind_negative_q([small_grid if a is None else a
                                         for a in argv])
            args = cli._strict_parse(parser, argv)
            declined = argv[0] == "bogus" or "--help" in argv or "1/0" in argv
            assert (args is None) == declined, argv
            if args is not None:
                assert vars(args) == vars(parser.parse_args(argv))

    @staticmethod
    def argparse_result(argv):
        """Exit code, stdout and stderr of argparse alone on argv."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.build_parser().parse_args(argv)
                rc = None
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [["eval", "--help"], ["bogus", "--m", "1"]])
    def test_help_and_unknown_subcommand_are_argparse(self, capsys, argv):
        assert cli._strict_parse(cli._parser(), argv) is None
        rc, out = run(argv)
        assert (rc, out, capsys.readouterr().err) == self.argparse_result(argv)

    STAR = ["star", "--m", "2", "--r", "2", "--n", "5", "--k", "3"]
    VALUE = ["value", "--m", "1", "--r", "1", "--n", "2", "--k", "1"]

    # an abbreviation and a repeat are parsed by argparse, to the request
    # spelled in full
    @pytest.mark.parametrize("argv, canonical", [
        (["table", "--m", "2", "--r", "1", "--nm", "6", "--form", "csv"],
         ["table", "--m", "2", "--r", "1", "--nmax", "6", "--format", "csv"]),
        (STAR + ["--k", "3"], STAR),
        (STAR + ["--q-e", "3/5"], STAR + ["--q-eval", "3/5"]),
        # a negative fraction after each abbreviation of --q-eval
        (VALUE + ["--q", "-3/5"], VALUE + ["--q-eval", "-3/5"]),
        (VALUE + ["--q-", "-3/5"], VALUE + ["--q-eval", "-3/5"]),
        (VALUE + ["--q-e", "-3/5"], VALUE + ["--q-eval", "-3/5"]),
        (VALUE + ["--q-ev", "-3/5"], VALUE + ["--q-eval", "-3/5"]),
        (VALUE + ["--q-eva", "-3/5"], VALUE + ["--q-eval", "-3/5"]),
    ])
    def test_abbreviated_or_repeated_is_argparse(self, capsys, argv, canonical):
        parser = cli._parser()
        assert cli._strict_parse(parser, cli._bind_negative_q(argv)) is None
        args = cli._strict_parse(parser, cli._bind_negative_q(canonical))
        assert args is not None
        assert vars(parser.parse_args(cli._bind_negative_q(argv))) == vars(args)
        assert run(argv) == run(canonical)
        assert capsys.readouterr().err == ""

    # argparse before Python 3.13 reads --name=-- as an empty list, which
    # reached the commands as a traceback with exit 1, or as the default
    # grid or the csv format with exit 0
    @pytest.mark.parametrize("argv", [
        ["value", "--m=--", "--r", "1", "--n", "2", "--k", "1"],
        ["eval", "--m", "1", "--r", "1", "--n", "2", "--k", "1", "--q=--"],
        ["table", "--m", "1", "--r", "1", "--nmax", "2", "--format=--"],
        ["verify", "--suite", "all", "--grid=--"],
    ])
    def test_double_dash_value_refused(self, capsys, argv):
        assert cli._strict_parse(cli._parser(), argv) is None
        rc, out = run(argv)
        assert rc == 2 and out == ""
        assert "error: " in capsys.readouterr().err


# The options of each subcommand, with the values of a request that is
# small enough to answer in milliseconds; None marks a flag.
SMALL_INT = st.integers(0, 12).map(str)
Q_VALUES = st.sampled_from(["2", "1/2", "-3/5", "7/3", "-1", "0.5", "1e2"])
MR = {"--m": st.integers(1, 3).map(str), "--r": st.integers(0, 5).map(str)}
FRONT_DOOR = {
    "table": {**MR, "--nmax": SMALL_INT,
              "--format": st.sampled_from(["csv", "json"]),
              "--q-eval": Q_VALUES},
    "value": {**MR, "--n": SMALL_INT, "--k": SMALL_INT, "--q-eval": Q_VALUES},
    "star": {**MR, "--n": SMALL_INT, "--k": SMALL_INT, "--q-eval": Q_VALUES},
    "dowling": {**MR, "--n": SMALL_INT, "--q-eval": Q_VALUES},
    "eval": {**MR, "--n": SMALL_INT, "--k": SMALL_INT, "--q": Q_VALUES,
             "--star": None},
    "hankel": {**MR, "--s": st.integers(0, 2).map(str),
               "--n": st.integers(0, 3).map(str), "--q-eval": Q_VALUES},
    "verify": {"--suite": st.sampled_from(verify.SUITES),
               "--grid": st.sampled_from(["small.json", "types.json",
                                          "empty.json", "list.json",
                                          "bigq.json", "missing.json"])},
}
# The documents of the grid files named above, in the working directory of
# TestFrontDoorContract; missing.json is never written.  bigq.json holds a
# q whose value does not convert to text.
GRID_FILES = {"small.json": SMALL_GRID, "types.json": {"nmax": "3"},
              "empty.json": {"m": []}, "list.json": [1],
              "bigq.json": {**SMALL_GRID, "qvals": ["2", "1.5e4300"]}}
# Negative, huge, empty and malformed values.
BAD_VALUES = st.one_of(
    st.sampled_from(["-1", "-3/5", "0", "", "x", "1/0", "1e99999999",
                     "2.5E4300", "10000000", "9" * 40, "--", "-", "=",
                     " 2", "1_0", "--m", "-h", "all", "csv"]),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.text(max_size=6))
# Tokens that are no option of any subcommand as written, or ask for help.
STRAY = st.sampled_from(["-h", "--help", "--", "--bogus", "--bogus=1", "5",
                         "-m", "--st", "--q-", "--star=1", "--n=", "-1"])


@st.composite
def front_door_argv(draw):
    """An argv for one of the seven subcommands: each option given once,
    dropped or repeated, spelled in full or abbreviated, in the two-token
    or the "=" form, with a good or a bad value, in any order, plus stray
    tokens, or an unknown subcommand.  Each departure from a canonical
    request is drawn rarely, so that about a fifth of the argv are
    canonical."""
    def rarely(n):
        return draw(st.integers(0, n)) == n

    command = draw(st.sampled_from(sorted(FRONT_DOOR)))
    items = []
    for name, good in FRONT_DOOR[command].items():
        for _ in range(draw(st.sampled_from([1] * 6 + [0, 2]))):
            spelled = (name[:draw(st.integers(3, len(name)))] if rarely(5)
                       else name)
            if good is None:
                items.append([f"{spelled}={draw(BAD_VALUES)}"] if rarely(5)
                             else [spelled])
                continue
            value = draw(BAD_VALUES if rarely(6) else good)
            items.append([f"{spelled}={value}"] if draw(st.booleans())
                         else [spelled, value])
    argv = [command] + [t for item in draw(st.permutations(items))
                        for t in item]
    for _ in range(draw(st.sampled_from([0] * 5 + [1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(STRAY))
    if rarely(15):
        argv[0] = draw(st.sampled_from(["bogus", "tab", "", "-h", "--help"])
                       | BAD_VALUES)
    return argv


def parse_or_exit(argv):
    """Namespace of argparse on argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parser().parse_args(argv)
        except SystemExit:
            return None


class TestStrictParseIsArgparse:
    # the strict parse returns argparse's Namespace or declines; it never
    # accepts an argv that argparse refuses
    @given(argv=front_door_argv())
    @example(argv=["verify", "--suite", "all", "--grid=--"])
    @example(argv=["eval", "--m", "1", "--r", "1", "--n", "2", "--k", "1",
                   "--q", "-3/5", "--star"])
    @settings(max_examples=400, deadline=None)
    def test_argparse_or_nothing(self, argv):
        argv = cli._bind_negative_q(argv)
        strict = cli._strict_parse(cli._parser(), argv)
        if strict is not None:
            parsed = parse_or_exit(argv)
            assert parsed is not None and vars(strict) == vars(parsed)


@pytest.fixture(scope="class")
def grid_files(tmp_path_factory):
    """Run the class in a directory holding GRID_FILES."""
    path = tmp_path_factory.mktemp("grids")
    for name, doc in GRID_FILES.items():
        (path / name).write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(cwd)


# The last line of argparse's usage error.
ARGPARSE_ERROR = re.compile(r"qwhitney[ \w-]*: error: .+")


@pytest.mark.usefixtures("grid_files")
class TestFrontDoorContract:
    # Every argv exits 0, 1, 2 or 3.  A usage error (2) leaves stdout empty
    # and writes one "error: " line, or argparse's usage ending in its
    # error line.  No argv gives a traceback or the interpreter's own text.
    @given(argv=front_door_argv())
    @example(argv=["verify", "--suite", "genfun", "--grid", "bigq.json"])
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_and_output(self, argv):
        out, stdout, err = io.StringIO(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            rc = cli.main(argv, out=out)
        assert rc in (0, 1, 2, 3)
        assert stdout.getvalue() == ""
        if rc == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert ((len(lines) == 1 and lines[0].startswith("error: "))
                    or (lines[0].startswith("usage: qwhitney")
                        and ARGPARSE_ERROR.fullmatch(lines[-1])))
        assert "Traceback" not in err.getvalue()
        assert "set_int_max_str_digits" not in err.getvalue()
