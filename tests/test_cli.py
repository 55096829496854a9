import csv
import io
import json

import pytest

from qwhitney import cli
from qwhitney import whitney


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bytes_match_dumps_of_pairs(self, fmt):
        entries = whitney.w_table(whitney.WhitneyParams(1, 3), 30).entries
        if fmt == "json":
            expected = json.dumps(
                {"params": {"m": 1, "r": 3},
                 "rows": [[v.to_pairs() for v in row] for row in entries]}) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "k", "value"])
            for n, row in enumerate(entries):
                for k, v in enumerate(row):
                    writer.writerow([n, k, json.dumps(v.to_pairs())])
            expected = buf.getvalue()
        rc, out = run(["table", "--m", "1", "--r", "3", "--nmax", "30",
                       "--format", fmt])
        assert rc == 0
        assert out == expected

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

    def test_report_schema(self, small_grid):
        rc, out = run(["verify", "--suite", "recurrences", "--grid", small_grid])
        assert rc == 0
        report = json.loads(out.strip().splitlines()[-1])
        assert report["suite"] == "recurrences"
        assert report["cells"] > 0 and report["failures"] == []

    def test_mutation_fails_with_witness(self, small_grid):
        with whitney.perturb_recurrence():
            rc, out = run(["verify", "--suite", "recurrences",
                           "--grid", small_grid])
        assert rc == 1
        report = json.loads(out.strip().splitlines()[-1])
        assert report["failures"]
        first = report["failures"][0]
        assert {"params", "identity", "lhs", "rhs"} <= set(first)
