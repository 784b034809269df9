import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from normclust import cli
from normclust import clustering as cl
from normclust.cli import main
from normclust.separation import SeparationResult


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


@pytest.fixture()
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
    return str(path)


@pytest.fixture()
def twoarc_json(tmp_path):
    path = tmp_path / "twoarc.json"
    path.write_text(json.dumps({"kind": "two_arc", "center": 10.0, "radius": 5 * math.sqrt(13)}))
    return str(path)


class TestSubcommands:
    def test_cluster2_square(self, square_csv):
        rc, out = run_cli(["cluster2", "--points", square_csv, "--norm", "euclidean", "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["result"]["d_star"] == pytest.approx(1.0)

    def test_cluster2c_infeasible_exit_1(self, square_csv):
        rc, out = run_cli([
            "cluster2c", "--points", square_csv, "--norm", "euclidean",
            "--d1", "1.0", "--d2", "0.9", "--json",
        ])
        assert rc == 1
        assert json.loads(out)["result"]["feasible"] is False

    def test_cluster2c_counterexample_exit_1(self, tmp_path, twoarc_json, twoarc_counterexample):
        ce = twoarc_counterexample
        pts = tmp_path / "ce.csv"
        pts.write_text(
            "\n".join(
                f"{float(x)!r},{float(y)!r}"
                for x, y in (ce["p"], ce["q"], ce["r"], ce["s"])
            )
            + "\n"
        )
        rc, out = run_cli([
            "cluster2c", "--points", str(pts), "--norm", twoarc_json,
            "--d1", "1.1", "--d2", "1.0", "--json",
        ])
        assert rc == 1
        assert json.loads(out)["result"]["feasible"] is False

    def test_input_error_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        rc, _ = run_cli(["diameter", "--points", missing])
        assert rc == 2

    def test_bad_norm_file_exit_2(self, square_csv, tmp_path):
        bad = tmp_path / "norm.json"
        bad.write_text('{"kind": "mystery"}')
        rc, _ = run_cli(["diameter", "--points", square_csv, "--norm", str(bad)])
        assert rc == 2

    def test_separate_invariants(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0,0\n1,0\n0.5,0.1\n")
        b = tmp_path / "b.csv"
        b.write_text("-0.35,0.5\n0.6,0.55\n0.15,-0.05\n")
        rc, out = run_cli([
            "separate", "--a", str(a), "--b", str(b), "--norm", "l1", "--json", "--verify",
        ])
        assert rc == 0
        doc = json.loads(out)
        inv = doc["result"]["invariants"]
        assert all(inv.values())

    def test_cluster3(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n0.1,0\n10,0\n10.1,0\n5,8\n5.1,8\n")
        rc, out = run_cli(["cluster3", "--points", str(pts), "--json"])
        assert rc == 0
        assert json.loads(out)["result"]["d_star"] == pytest.approx(0.1)
        rc, out = run_cli(["cluster3", "--points", str(pts), "--d", "0.05", "--json"])
        assert rc == 1
        # a NaN bound is an input error, not an infeasible one
        assert main(["cluster3", "--points", str(pts), "--d", "nan", "--json"]) == 2

    def test_clusterk(self, square_csv):
        rc, out = run_cli([
            "clusterk", "--points", square_csv, "--k", "2",
            "--objective", "max", "--measure", "diameter", "--json",
        ])
        assert rc == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(1.0)

    def test_ballhull_query_delete(self, square_csv):
        rc, out = run_cli([
            "ballhull", "--points", square_csv, "--d", "1.5",
            "--query", "5,5", "--delete", "2", "--json",
        ])
        assert rc == 0
        doc = json.loads(out)
        assert doc["result"]["deleted"] == [1.0, 1.0]
        assert len(doc["result"]["vertices"]) == 3

    def test_ballhull_overfull_root(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("0,0\n10,0\n0,10\n")
        rc, out = run_cli(["ballhull", "--points", str(path), "--d", "1", "--query", "0,0", "--json"])
        assert rc == 0
        result = json.loads(out)["result"]
        assert result["overfull"] is True
        assert result["vertices"] == [] and result["arc_centers"] == []
        assert result["far_point"] is not None
        rc, out = run_cli(["ballhull", "--points", str(path), "--d", "1"])
        assert rc == 0 and "overfull: True" in out

    def test_ballhull_hull_has_no_overfull_key(self, square_csv):
        rc, out = run_cli(["ballhull", "--points", square_csv, "--d", "1.5", "--json"])
        assert rc == 0
        assert "overfull" not in json.loads(out)["result"]

    @pytest.mark.parametrize("index", ["7", "4", "-1"])
    def test_ballhull_bad_delete_index_exit_2(self, square_csv, capsys, index):
        rc = main(["ballhull", "--points", square_csv, "--d", "1.5", "--delete", index, "--json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--delete {index}" in captured.err

    def test_mineball(self, square_csv):
        rc, out = run_cli(["mineball", "--points", square_csv, "--norm", "linf", "--json"])
        assert rc == 0
        assert json.loads(out)["result"]["radius"] == pytest.approx(0.5, abs=1e-7)

    def test_verify_flag(self, square_csv):
        rc, _ = run_cli(["cluster2", "--points", square_csv, "--verify", "--json"])
        assert rc == 0

    @pytest.mark.parametrize("argv", [["cluster3", "--verify"], ["mineball", "--verify"],
                                      ["cluster2", "--seed", "7"]])
    def test_flags_nothing_reads_are_rejected(self, square_csv, argv, capsys):
        # --verify belongs to separate and cluster2 only; no subcommand has --seed
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--points", square_csv, "--json"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_far_out(self, tmp_path):
        # the spanning-tree split and the calipers round d* = 16138235083.91169
        # one ulp apart, which an absolute band of 1e-9 took for a failure
        pts = np.random.default_rng(92).uniform(-1, 1, (12, 2)) * 1e10
        path = tmp_path / "far.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
        rc, out = run_cli(["cluster2", "--points", str(path), "--verify", "--json"])
        assert rc == 0
        assert json.loads(out)["result"]["d_star"] == pytest.approx(16138235083.911692, rel=1e-15)


@pytest.mark.parametrize("command", [
    "diameter", "separate", "cluster2", "cluster2c", "cluster3", "clusterk",
    "ballhull", "mineball", "plot",
])
def test_every_subcommand_reports_through_one_path(command, square_csv, tmp_path):
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("0.5,0.5\n1.5,0.5\n1.5,1.5\n0.5,1.5\n")
    argv = [command] + {
        "separate": ["--a", square_csv, "--b", str(shifted)],
        "cluster2c": ["--points", square_csv, "--d1", "1.5", "--d2", "1.5"],
        "clusterk": ["--points", square_csv, "--k", "2"],
        "ballhull": ["--points", square_csv, "--d", "1.5"],
        "plot": ["--points", square_csv, "--out", str(tmp_path / "out.svg")],
    }.get(command, ["--points", square_csv])
    rc, out = run_cli(argv + ["--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["algorithm"] == command
    assert doc["schema"] == 1
    assert doc["wall_time_ms"] is None
    rc, out = run_cli(argv)
    assert rc == 0
    assert out.startswith(f"[{command}]\n")
    assert "\n  wall_time_ms: " in out


class TestVerifyFailure:
    def test_separate_exit_3(self, square_csv, monkeypatch, capsys):
        real = cli.separate_clusters

        def drops_a_point(plane, a, b):
            res = real(plane, a, b)
            return SeparationResult(res.a_prime[1:], res.b_prime, res.line, res.witness)

        monkeypatch.setattr(cli, "separate_clusters", drops_a_point)
        argv = ["separate", "--a", square_csv, "--b", square_csv, "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--verify"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "union_preserved" in captured.err

    def test_cluster2_exit_3(self, square_csv, monkeypatch, capsys):
        real = cl.avis_min_max_2cluster
        monkeypatch.setattr(cl, "avis_min_max_2cluster",
                            lambda plane, pts: (0.5, real(plane, pts)[1]))
        argv = ["cluster2", "--points", square_csv, "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--verify"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cluster2" in captured.err


class TestDeterminism:
    def test_byte_identical_json(self, square_csv, twoarc_json):
        cases = [
            ["cluster2", "--points", square_csv, "--json"],
            ["cluster3", "--points", square_csv, "--json"],
            ["mineball", "--points", square_csv, "--norm", twoarc_json, "--json"],
            ["diameter", "--points", square_csv, "--norm", "l1", "--json"],
        ]
        for argv in cases:
            rc1, out1 = run_cli(argv)
            rc2, out2 = run_cli(argv)
            assert rc1 == rc2 == 0
            assert out1 == out2

    def test_repeated_calls_share_no_state(self, tmp_path, square_csv, monkeypatch):
        # main reuses one parser: each report equals the one a fresh parser
        # gives, whatever ran before it (--d, --verify and an appended
        # --sphere in one call, not in the next)
        real = cl.avis_min_max_2cluster
        monkeypatch.setattr(cl, "avis_min_max_2cluster",
                            lambda plane, pts: (0.5, real(plane, pts)[1]))
        svg = str(tmp_path / "out.svg")
        cases = [
            ["cluster3", "--points", square_csv, "--d", "1.0", "--json"],
            ["cluster3", "--points", square_csv, "--json"],
            ["cluster2", "--points", square_csv, "--json", "--verify"],
            ["cluster2", "--points", square_csv, "--json"],
            ["plot", "--points", square_csv, "--sphere", "0,0,1", "--out", svg, "--json"],
            ["plot", "--points", square_csv, "--out", svg, "--json"],
        ]
        first = []
        for argv in cases:
            cli.build_parser.cache_clear()
            first.append(run_cli(argv))
        assert [rc for rc, _ in first] == [0, 0, 3, 0, 0, 0]
        for argv, want in zip(cases + cases[::-1], first + first[::-1]):
            assert run_cli(argv) == want, argv


class TestSvg:
    def test_empty_scene_valid(self, tmp_path):
        from normclust.cli import Scene, emit_svg

        out = tmp_path / "empty.svg"
        emit_svg(Scene(), str(out))
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_twoarc_counterexample_scene_counts(self, tmp_path, twoarc_counterexample):
        ce = twoarc_counterexample
        pts = tmp_path / "ce.csv"
        pts.write_text(
            "\n".join(f"{x},{y}" for x, y in (ce["p"], ce["q"], ce["r"], ce["s"])) + "\n"
        )
        norm = tmp_path / "norm.json"
        norm.write_text(json.dumps({"kind": "two_arc", "center": 10.0, "radius": 5 * math.sqrt(13)}))
        out = tmp_path / "ce.svg"
        rc, _ = run_cli([
            "plot", "--points", str(pts), "--norm", str(norm),
            "--sphere", "0,0,1", "--sphere=-9.81,6.24,1.1",
            "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert text.count('class="pt"') == 4
        assert text.count('class="sphere"') == 2

    def test_separation_line_drawn(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0,0\n1,0\n")
        b = tmp_path / "b.csv"
        b.write_text("0,3\n1,3\n")
        out = tmp_path / "sep.svg"
        rc, _ = run_cli([
            "plot", "--points", str(a), "--b", str(b), "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().count('class="line"') == 1


def _rows(points):
    """The loaded points as a list of [x, y] float pairs."""
    return np.asarray(points, dtype=float).tolist()


class TestLoadPoints:
    """The point-file rules: one "x,y" row per line, fields split at commas
    and parsed as float() parses them, errors naming path:line."""

    def write(self, tmp_path, text, name="p.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return str(path)

    def test_header(self, tmp_path):
        path = self.write(tmp_path, "x,y\n0,0\n1,2\n")
        assert _rows(cli.load_points(path)) == [[0.0, 0.0], [1.0, 2.0]]
        path = self.write(tmp_path, " x , y ,label\n3,4\n")
        assert _rows(cli.load_points(path)) == [[3.0, 4.0]]

    def test_header_only_on_the_first_line(self, tmp_path):
        path = self.write(tmp_path, "\nx,y\n0,0\n")
        with pytest.raises(ValueError):
            cli.load_points(path)

    def test_blank_and_whitespace_lines(self, tmp_path):
        path = self.write(tmp_path, "\n0,0\n\n   \n\t\n1,1\n  \n")
        assert _rows(cli.load_points(path)) == [[0.0, 0.0], [1.0, 1.0]]

    def test_crlf(self, tmp_path):
        path = self.write(tmp_path, "x,y\r\n0.5,1\r\n\r\n-2,3e2\r\n")
        assert _rows(cli.load_points(path)) == [[0.5, 1.0], [-2.0, 300.0]]

    def test_spaces_around_fields(self, tmp_path):
        path = self.write(tmp_path, " 1.5 , -2 \n\t3 ,\t4\t\n")
        assert _rows(cli.load_points(path)) == [[1.5, -2.0], [3.0, 4.0]]

    def test_extra_columns_ignored(self, tmp_path):
        path = self.write(tmp_path, "1,2,3\n4,5,foo,\n")
        assert _rows(cli.load_points(path)) == [[1.0, 2.0], [4.0, 5.0]]

    def test_fields_parse_as_float_does(self, tmp_path):
        fields = ["1_0", "+.5", "-0", "1e-320", "0.1", "  7  ", "١٢"]
        path = self.write(tmp_path, "".join(f"{f},{f}\n" for f in fields))
        got = _rows(cli.load_points(path))
        assert [float(x).hex() for x, _ in got] == [float(f).hex() for f in fields]
        assert got[2] == [0.0, 0.0] and math.copysign(1.0, got[2][0]) == -1.0

    @pytest.mark.parametrize("field", ["infinity", "-inf", "nan", "1e400"])
    def test_non_finite_names_the_line(self, tmp_path, field):
        path = self.write(tmp_path, f"x,y\n0,0\n\n1,{field}\n")
        with pytest.raises(ValueError) as exc:
            cli.load_points(path)
        assert str(exc.value) == f"{path}:4: coordinates must be finite"

    def test_too_few_fields_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "0,0\n\n  \n5\n1,1\n")
        with pytest.raises(ValueError) as exc:
            cli.load_points(path)
        assert str(exc.value) == f"{path}:4: expected 'x,y'"

    def test_first_bad_line_wins(self, tmp_path):
        path = self.write(tmp_path, "0,0\nnan,1\n5\n")
        with pytest.raises(ValueError) as exc:
            cli.load_points(path)
        assert str(exc.value) == f"{path}:2: coordinates must be finite"
        path = self.write(tmp_path, "0,0\n5\nnan,1\n")
        with pytest.raises(ValueError) as exc:
            cli.load_points(path)
        assert str(exc.value) == f"{path}:2: expected 'x,y'"

    def test_unparsable_field_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "x,y\n0,0\n\nabc,1\n2,2\n")
        with pytest.raises(ValueError) as exc:
            cli.load_points(path)
        assert str(exc.value).startswith(f"{path}:4: ")
        assert "'abc'" in str(exc.value)

    @pytest.mark.parametrize("text", ["", "\n\n", "x,y\n", "x,y\r\n  \r\n"])
    def test_no_points(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError) as exc:
            cli.load_points(path)
        assert str(exc.value) == f"{path}: no points"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        with pytest.raises(OSError):
            cli.load_points(missing)
        assert main(["cluster2", "--points", missing, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "nope.csv" in captured.err


class TestNormDescriptorErrors:
    """A malformed descriptor file is an input error naming the file and
    the field, not a traceback."""

    @pytest.mark.parametrize("text, field", [
        ("[1,2]", "object"),
        ('"l1"', "object"),
        ('{"kind":"polygon"}', "'vertices'"),
        ('{"kind":"two_arc","center":1}', "'radius'"),
        ('{"kind":"two_arc","center":null,"radius":2}', "'center'"),
        ('{"kind":"polygon","vertices":[1,2]}', "'vertices'"),
    ])
    def test_exit_2_naming_the_field(self, square_csv, tmp_path, capsys, text, field):
        path = tmp_path / "norm.json"
        path.write_text(text)
        rc = main(["diameter", "--points", square_csv, "--norm", str(path), "--json"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert field in captured.err
