"""CLI subcommands: round trips, determinism, exit codes, resume."""

import hashlib
import json
import math
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import spanorm
import spanorm.extremal
import spanorm.graph_core
import spanorm.greedy
import spanorm.oracle
from spanorm.cli import _dumps, main, run_experiment
from spanorm.extremal import named_girth_graph
from spanorm.graph_core import Graph, format_edge_list, parse_edge_list
from spanorm.greedy import Spanner, greedy_spanner

from helpers import child_env, cli_imports


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "pet.edges"
    path.write_text(format_edge_list(named_girth_graph("petersen")))
    return path


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return path


# sha256 of the .spanner.edges and .host.edges files `gen` writes (None: no
# file), recorded before the files were streamed from the instance rules:
# the four desk_suite shapes at center 32, one skewed shape and one LP sample
GEN_PINS = {
    "lcr111": ("lcr", {"L": 1, "C": 1, "R": 1, "p": 2.0, "center": 32}, 0,
               "d1fe50ee16df11bdaab4c1bb8dcbdb9414b565540c03ab05bfd7176073a39002",
               "bf297a3d1f6434ff9850a2d36bfb1d307680dd6ebf1919010f4dfcfeb1a1b3ee"),
    "lcr212": ("lcr", {"L": 2, "C": 1, "R": 2, "p": 2.0, "center": 32}, 0,
               "170d684ab3d3af234a70123e5d7da80422d4909623146464df4c6c422fda2a10",
               None),
    "lcr202": ("lcr", {"L": 2, "C": 0, "R": 2, "p": 1.3, "center": 32}, 0,
               "e825104e43e0aede7e5ca16be46e194b04099dc61f81c221c11dd70e9a1cea1f",
               "1747286765c61e729fdb980f20b92fb2d68be1b66e2726aa1f24e18b1bb3fe96"),
    "lcr012": ("lcr", {"L": 0, "C": 1, "R": 2, "p": 10.0, "center": 32}, 0,
               "dbc2cafe240699fe730fc7126faaf3fd1592e783a69d0aae15c09b9316546caa",
               "79892a3ea053e43b3b97ddbe4a2da165958c29a978b532ca5474a0488eb724a1"),
    "skewed": ("skewed", {"L": 1, "C": 1, "R": 1, "skew": "right", "p": 2.0, "center": 16,
                          "skew_exponent": 0.25}, 0,
               "e9b8c553b5ae5fc413d272fc656a4fbe433344483c9d8ca2b10cb1905f787ce3",
               "cf674b2c64f476d8cfe2e7acbe18e981a7d6a435f641d5be04decbf222d08c93"),
    "lp": ("lp", {"t": 3, "p": "2", "lambda": "1", "n": 256}, 5,
           "262d9b8967de5ce51c0d951f84c4f9f86609ca8394764fe1a637a4705ffa2bc2",
           "9e1c65d3a85d69a33c5503fc378845a60b1851985ba5ac64ae4bb8a5cd86e136"),
}


def gen_pinned(name, tmp_path):
    """Run `gen` on a pinned case; return its exit code and whether both files match."""
    family, params, seed, *digests = GEN_PINS[name]
    out = tmp_path / name
    code = main(["gen", "--family", family, "--params", json.dumps(params),
                 "--seed", str(seed), "--out", str(out)])
    found = []
    for suffix in ("spanner", "host"):
        path = out.with_name(f"{name}.{suffix}.edges")
        found.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None)
    return code, found == digests


# sha256 of the stdout of `lb --exact --certificate` (a plain dual, an LP
# dual at C = 0, a walk frame) and of one `lb-sweep`, recorded before the
# (t, p) facts were cached
LB_STDOUT_PINS = {
    (3, "2", "1"): "88520f2dc1be7389246f1f0d02dee0c3045805257a8f99d440b7673bc307ad98",
    (4, "13/10", "1"): "7a79dc8016d6f8a811d64a34cf750b274b5fd184b5c8308b564637bafbf762cc",
    (5, "5", "6/5"): "cb8c36fa4b347269d500232b75c4b710e55874111f09a60b77b834d1217eb248",
}
LB_SWEEP_GRID = {"t": [2, 3, 5, 8], "p": ["1.3", "2", "5/2", "10"], "lambda_points": 6}
LB_SWEEP_PIN = "f25c5e08190c54237367f348e8b5eb373c2f0651c9e32c4376dc6518fd19d96c"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_greedy_round_trip(self, petersen_file, tmp_path, capsys):
        out_path = tmp_path / "h.edges"
        code, out = run_cli(
            ["greedy", "--input", petersen_file, "--stretch", 3, "--output", out_path],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["m_out"] == 15 and summary["girth"] == 5
        h = parse_edge_list(out_path.read_text())
        assert h == named_girth_graph("petersen")

    def test_greedy_refuses_a_spanner_that_fails_stretch(
        self, petersen_file, tmp_path, capsys, monkeypatch
    ):
        # Petersen has girth 5: without one kept edge its ends are 4 apart
        real = spanorm.greedy.greedy_spanner

        def drop_one(g, t):
            h = real(g, t)
            return Spanner(base=g, kept_edges=h.kept_edges[1:], t=t)

        monkeypatch.setattr(spanorm.greedy, "greedy_spanner", drop_one)
        out_path = tmp_path / "h.edges"
        code = main(["greedy", "--input", str(petersen_file), "--stretch", "3",
                     "--output", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "fails stretch 3" in captured.err
        assert not out_path.exists()

    def test_norm(self, k4_file, capsys):
        code, out = run_cli(["norm", "--input", k4_file, "--p", "1,2,inf"], capsys)
        assert code == 0
        norms = json.loads(out)["norms"]
        assert norms["1"] == 12.0 and norms["2"] == 6.0 and norms["inf"] == 3.0

    def test_norm_huge_p(self, tmp_path, capsys):
        # 2.0 ** p overflows a float; the norm is taken scaled by the max degree
        path = tmp_path / "path.edges"
        path.write_text("3 2\n0 1\n1 2\n")
        code, out = run_cli(["norm", "--input", path, "--p", "1e300,2000,1e308"], capsys)
        assert code == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        norms = json.loads(out, parse_constant=refuse)["norms"]
        assert norms == {"1e300": 2.0, "2000": pytest.approx(2.0), "1e308": 2.0}

    @pytest.mark.parametrize("t,p,lam", sorted(LB_STDOUT_PINS))
    def test_lb_exact_certificate_stdout_pinned(self, t, p, lam, capsys):
        code, out = run_cli(["lb", "--t", t, "--p", p, "--lambda", lam, "--exact",
                             "--certificate"], capsys)
        assert code == 0
        assert sha256_text(out) == LB_STDOUT_PINS[(t, p, lam)]

    def test_lb_sweep_stdout_pinned(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(LB_SWEEP_GRID))
        code, out = run_cli(["lb-sweep", "--grid", grid], capsys)
        assert code == 0
        assert sha256_text(out) == LB_SWEEP_PIN

    def test_lb_exact_certificate(self, capsys):
        code, out = run_cli(
            ["lb", "--t", 3, "--p", 2, "--lambda", 1, "--exact", "--certificate"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["ell_exact"] == {"num": 1, "den": 2}
        assert report["verified"] is True
        assert report["lcr"] == {"L": 1, "C": 1, "R": 1, "skew": "none"}

    def test_lb_exact_lambda_just_above_a_walk_cap(self, capsys):
        # 11/9 + 1e-14 lies just above the cap of the first walk shape at
        # (t, p) = (3, 3); its certificate is the next segment's frame
        code, out = run_cli(
            ["lb", "--t", 3, "--p", 3, "--lambda", "1100000000000009/900000000000000",
             "--exact", "--certificate"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_decompose(self, petersen_file, capsys):
        code, out = run_cli(["decompose", "--input", petersen_file, "--k", 3], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["covered"] is True

    def test_decompose_reports_contributions_above_girth_2k(self, tmp_path, capsys):
        # McGee has girth 7 > 2k, so the report carries each class's
        # contribution and slack; Petersen (girth 5) gets a girth note instead
        from spanorm.decomposition import class_contributions

        g = named_girth_graph("mcgee")
        path = tmp_path / "mcgee.edges"
        path.write_text(format_edge_list(g))
        code, out = run_cli(["decompose", "--input", path, "--k", 3], capsys)
        assert code == 0
        report = json.loads(out)
        expected = class_contributions(g, 3)
        name = {"low": "low", "med": "med", ("high", 0): "high_0"}
        assert set(expected.norms) == set(name)
        assert report["contributions"] == {name[key]: v for key, v in expected.norms.items()}
        assert report["slacks"] == {name[key]: expected.slack(key) for key in expected.norms}
        assert "girth_note" not in report

    @pytest.mark.parametrize("name, coverage", [("mcgee", True), ("petersen", None)])
    def test_verify_stretch_5_checks_coverage(self, name, coverage, tmp_path, capsys):
        # k = 3 at stretch 5: the coverage check needs girth above 2k, which
        # McGee (girth 7) has and Petersen (girth 5) lacks
        path = tmp_path / f"{name}.edges"
        path.write_text(format_edge_list(named_girth_graph(name)))
        code, out = run_cli(["verify", "--input", path, "--stretch", 5], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["coverage"] is coverage
        assert report["failed"] == []

    def test_oracle_k4(self, k4_file, capsys):
        code, out = run_cli(["oracle", "--input", k4_file, "--stretch", 3, "--p", 2], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["optimum_norm"] == pytest.approx(10**0.5)
        assert report["greedy_ratio"] == pytest.approx(1.2**0.5)

    def test_oracle_searches_once(self, k4_file, capsys, monkeypatch):
        # one search (hence one greedy) yields both the optimum and the ratio
        calls = []
        real = spanorm.oracle.greedy_spanner
        monkeypatch.setattr(
            spanorm.oracle, "greedy_spanner", lambda g, t: calls.append(t) or real(g, t)
        )
        code, _ = run_cli(["oracle", "--input", k4_file, "--stretch", 3, "--p", 2], capsys)
        assert code == 0
        assert calls == [3]

    def test_verify_clean(self, petersen_file, capsys):
        code, out = run_cli(["verify", "--input", petersen_file, "--stretch", 3], capsys)
        assert code == 0
        assert json.loads(out)["failed"] == []

    def test_verify_corrupted_spanner(self, tmp_path, capsys):
        g = named_girth_graph("petersen")
        gpath = tmp_path / "g.edges"
        gpath.write_text(format_edge_list(g))
        broken = g.subgraph(g.edges[:-1])  # drop one edge: stretch fails
        hpath = tmp_path / "h.edges"
        hpath.write_text(format_edge_list(broken))
        code, out = run_cli(
            ["verify", "--input", gpath, "--stretch", 3, "--spanner", hpath], capsys
        )
        assert code == 1
        assert "stretch" in json.loads(out)["failed"]

    def test_verify_spanner_with_other_lengths(self, tmp_path, capsys):
        # the spanner file's length 7 is not g's 1: not a subgraph of g
        gpath = tmp_path / "g.edges"
        gpath.write_text("3 3\n0 1 1\n1 2 1\n0 2 5\n")
        hpath = tmp_path / "h.edges"
        hpath.write_text("3 2\n0 1 7\n1 2 1\n")
        code, out = run_cli(
            ["verify", "--input", gpath, "--stretch", 3, "--spanner", hpath], capsys
        )
        assert code == 1
        assert "not a subgraph" in json.loads(out)["checks"]["error"]

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lb", "--t", "not_an_int"])
        assert exc.value.code == 2

    def test_infinite_length_refused(self, tmp_path, capsys):
        path = tmp_path / "inf.edges"
        path.write_text("2 1\n0 1 inf\n")
        code = main(["greedy", "--input", str(path), "--stretch", "3"])
        captured = capsys.readouterr()
        assert code != 0
        assert captured.out == ""
        assert "inf" in captured.err

    def test_bad_p_exit_2(self, k4_file, tmp_path, capsys):
        assert main(["lb", "--t", "3", "--p", "0.5", "--lambda", "1"]) == 2
        assert "p must be" in capsys.readouterr().err
        # p is a finite real >= 1 (or inf where a degree norm is taken); any
        # other value is a usage error with one error line and no output
        lb = ["lb", "--t", "3", "--lambda", "1"]
        calls = [lb + ["--p", p] + exact for p in ("inf", "1e300") for exact in ([], ["--exact"])]
        spanner = tmp_path / "h.edges"
        for p in ("0.5", "0", "nan", "1e400"):
            calls += [
                ["norm", "--input", str(k4_file), "--p", p],
                ["greedy", "--input", str(k4_file), "--stretch", "3", "--p", p,
                 "--output", str(spanner)],
                ["oracle", "--input", str(k4_file), "--stretch", "3", "--p", p],
                ["verify", "--input", str(k4_file), "--p", p],
            ]
        for argv in calls:
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert not spanner.exists()
        # only lb reads a rational p: the other subcommands take float p
        assert main(["norm", "--input", str(k4_file), "--p", "3/2"]) == 2
        assert "could not convert" in capsys.readouterr().err

    def test_infinite_budget_exit_2(self, tmp_path, capsys):
        # 3 * 1e308 is not a finite float: refused before any search, where
        # the greedy used to keep one edge and verify and oracle accept it
        path = tmp_path / "heavy.edges"
        path.write_text("3 3\n0 1 1e308\n0 2 1e308\n1 2 1e308\n")
        for command in ("greedy", "verify", "oracle"):
            argv = [command, "--input", str(path), "--stretch", "3", "--p", "2"]
            assert main(argv) == 2, command
            captured = capsys.readouterr()
            assert captured.out == "" and "finite float" in captured.err, command

    def test_invalid_graph_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "inf.edges"
        path.write_text("2 1\n0 1 inf\n")
        assert main(["greedy", "--input", str(path), "--stretch", "3"]) == 3
        assert main(["norm", "--input", str(path)]) == 3
        # tokens that are not numbers: one error line naming the bad line
        for text, bad_line in [("a b\n", "'a b'"), ("3.5 0\n", "'3.5 0'"),
                               ("2 1\n0 x\n", "'0 x'"), ("2 1\n0 1 abc\n", "'0 1 abc'")]:
            capsys.readouterr()
            path.write_text(text)
            assert main(["norm", "--input", str(path)]) == 3, text
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert bad_line in captured.err

    def test_unconstructible_dual_exit_3(self, capsys, monkeypatch):
        # no CLI input reaches a refused dual today, so the refusal is forced
        def refuse(t, p, lam):
            raise spanorm.lb_lp.DualConstructionError("singular complementary-slackness system")

        monkeypatch.setattr(spanorm.lb_lp, "certificate_for", refuse)
        code = main(["lb", "--t", "3", "--p", "1", "--lambda", "1", "--certificate"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "singular" in captured.err

    def test_p1_odd_t_certificate_verifies(self, capsys):
        # the singular (1,1,1) system at p = 1 falls back to the LP's duals
        code, out = run_cli(
            ["lb", "--t", 3, "--p", 1, "--lambda", 1, "--exact", "--certificate"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["verified"] is True
        assert report["ell"] == 0.5

    def test_lb_stdout_is_strict_json(self, capsys):
        # cond1's slack is infinite at p = 1
        code, out = run_cli(["lb", "--t", 3, "--p", 1, "--lambda", 1], capsys)
        assert code == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(out, parse_constant=refuse)
        assert report["conditions"]["cond1"]["slack"] == "inf"

    def test_json_encoding_of_infinities(self):
        # the one encoder behind stdout and meta.json
        assert _dumps({"b": [-math.inf, 1.5], "a": math.inf}) == (
            '{"a": "inf", "b": ["-inf", 1.5]}'
        )
        with pytest.raises(ValueError):
            _dumps({"a": math.nan})

    def test_gen_deterministic(self, tmp_path, capsys):
        args = [
            "gen", "--family", "lp",
            "--params", '{"t":3,"p":"2","lambda":"1","n":256}',
            "--seed", 5,
        ]
        code, _ = run_cli(args + ["--out", tmp_path / "a"], capsys)
        assert code == 0
        code, _ = run_cli(args + ["--out", tmp_path / "b"], capsys)
        assert code == 0
        assert (tmp_path / "a.spanner.edges").read_text() == (
            tmp_path / "b.spanner.edges"
        ).read_text()
        assert (tmp_path / "a.meta.json").read_text() == (
            tmp_path / "b.meta.json"
        ).read_text()

    def test_gen_named_scans_for_girth_once(self, tmp_path, capsys, monkeypatch):
        # the build proves McGee's girth (a witness, then nothing shorter)
        # and meta["girth"] reads that proof instead of a third scan
        scans = []
        search = spanorm.graph_core.short_cycle

        def counted(adj, limit, roots=None):
            scans.append(limit)
            return search(adj, limit, roots)

        monkeypatch.setattr(spanorm.graph_core, "short_cycle", counted)
        code, out = run_cli(["gen", "--family", "named", "--params", '{"name": "mcgee"}',
                             "--out", tmp_path / "g"], capsys)
        assert code == 0
        assert json.loads(out)["girth"] == 7.0
        assert len(scans) == 2

    @pytest.mark.parametrize(
        "family,params",
        [
            ("named", {"name": "heawood"}),
            ("lcr", {"L": 1, "C": 1, "R": 1, "p": 2.0, "center": 8}),
            ("skewed", {"L": 1, "C": 1, "R": 1, "skew": "right", "p": 2.0,
                        "center": 16, "skew_exponent": 0.25}),
            ("tightness", {"k": 2, "p": 3.0, "n": 100, "Lambda": 50}),
        ],
    )
    def test_gen_family_strict_and_deterministic(self, family, params, tmp_path, capsys):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        args = ["gen", "--family", family, "--params", json.dumps(params), "--seed", 3]
        outputs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            code, out = run_cli(args + ["--out", tmp_path / run / "inst"], capsys)
            assert code == 0
            meta = (tmp_path / run / "inst.meta.json").read_text()
            assert json.loads(meta, parse_constant=refuse)["family"] == family
            assert json.loads(out, parse_constant=refuse) == json.loads(meta)
            files = {f.name: f.read_bytes() for f in sorted((tmp_path / run).iterdir())}
            outputs.append((out, files))
        assert "inst.host.edges" in outputs[0][1]
        assert outputs[0] == outputs[1]

    def test_gen_left_skew_without_center_verified(self, tmp_path, capsys):
        params = {"L": 1, "C": 0, "R": 2, "skew": "left", "p": 2.0, "center": 48,
                  "skew_exponent": 0.7}
        code, out = run_cli(["gen", "--family", "skewed", "--params", json.dumps(params),
                             "--out", tmp_path / "inst"], capsys)
        assert code == 0
        assert json.loads(out)["verified"] is True

    @pytest.mark.parametrize("name", sorted(GEN_PINS))
    def test_gen_files_pinned(self, name, tmp_path, capsys):
        assert gen_pinned(name, tmp_path) == (0, True)

    def test_gen_rule_files_build_no_graph(self, monkeypatch, tmp_path, capsys):
        # both layered files are streamed from the rules: no Graph of the
        # 1.05M-edge host, nor of the spanner
        def refuse(*args, **kwargs):
            raise AssertionError("gen must not build a Graph of a rule-based instance")

        monkeypatch.setattr(spanorm.extremal, "Graph", refuse)
        assert gen_pinned("lcr111", tmp_path) == (0, True)

    @pytest.mark.parametrize(
        "family,params,reason",
        [
            ("tightness", {"k": 2, "p": 1.5, "n": 14, "Lambda": 1.5},
             "smallest pruned norm"),
            ("skewed", {"L": 0, "C": 1, "R": 1, "skew": "left", "p": 2.0, "center": 16,
                        "skew_exponent": 0.4}, "junction"),
            ("lcr", [1], "JSON object"),
            ("lcr", {"L": 1, "C": 1, "R": 1, "p": 2.0}, "lacks the key 'center'"),
            ("lcr", {"L": 1, "C": 1, "R": 1, "p": 2.0, "center": "x"}, "mistyped"),
            ("lcr", {"L": 1, "C": 1, "R": 1, "p": "inf", "center": 16}, "finite p"),
            ("lp", {"t": 3, "p": "2", "lambda": "1", "n": 1}, "n >= 2"),
            ("skewed", {"L": 1, "C": 0, "R": 2, "skew": "right", "p": 2.0, "center": 64,
                        "skew_exponent": 0.5}, "right skew needs C >= 1"),
            ("lcr", {"L": 0, "C": 0, "R": 0, "p": 2.0, "center": 8}, "t = L + C + R >= 1"),
            ("named", {"name": 5}, "unknown named graph 5"),
            ("named", {"name": None}, "unknown named graph None"),
            ("lp", {"t": 3, "p": "1/0", "lambda": "1", "n": 100}, "p must be a rational"),
            ("lp", {"t": 3, "p": "2", "lambda": "1/0", "n": 100}, "lambda must be a rational"),
            ("tightness", {"k": 2, "p": 1.5, "n": 10000, "Lambda": 2001.5 ** (5 / 3)},
             "clique on 2001 vertices"),
            ("lcr", {"L": 1, "C": 1, "R": 1, "p": 2.0, "center": 1e300},
             "center_size 1e+300 at p = 2.0 overflows a float"),
            ("lcr", {"L": 2, "C": 0, "R": 2, "p": 1.3, "center": 1e200},
             "center_size 1e+200 at p = 1.3 overflows a float"),
            ("skewed", {"L": 1, "C": 1, "R": 1, "skew": "right", "p": 2.0, "center": 1e300,
                        "skew_exponent": 0.3}, "center_size 1e+300 at p = 2.0"),
            ("lcr", {"L": 1, "C": 1, "R": 1, "p": 1e300, "center": 16},
             "center_size 16 at p = 1e+300"),
            ("tightness", {"k": 2, "p": 1.5, "n": 10**300, "Lambda": 1e250},
             "n too large: n ** ((1 + p) / p) at p = 1.5 overflows a float"),
            ("lcr", {"L": 1, "C": 1, "R": 1, "p": 2.0, "center": 10**400},
             f"center_size {10**400} at p = 2.0 overflows a float"),
            ("lcr", {"L": 1, "C": 0, "R": 1, "p": 2.0, "center": 10**400},
             f"center_size {10**400} at p = 2.0 overflows a float"),
            ("skewed", {"L": 1, "C": 1, "R": 1, "skew": "right", "p": 2.0, "center": 10**400,
                        "skew_exponent": 0.2}, f"center_size {10**400} at p = 2.0"),
            ("lcr", {"L": True, "C": 1, "R": 1, "p": 2, "center": 8},
             "section length L must be an int, got True"),
            ("lcr", {"L": 1.5, "C": 1, "R": 1, "p": 2, "center": 8},
             "section length L must be an int, got 1.5"),
            ("skewed", {"L": 1, "C": 1, "R": False, "skew": "right", "p": 2.0, "center": 16,
                        "skew_exponent": 0.25}, "section length R must be an int, got False"),
            ("lcr", {"L": 1, "C": 1, "R": 1, "p": 2.0, "center": 8, "skew_exponent": 0.3},
             "family lcr has the unknown key 'skew_exponent'; it reads L, C, R, p, center"),
            ("named", {"name": "mcgee", "center": 8},
             "family named has the unknown key 'center'; it reads name"),
            ("lp", {"t": 3, "p": "2", "lambda": "1", "n": 64, "seed": 1, "L": 1},
             "family lp has the unknown keys 'seed', 'L'; it reads t, p, lambda, n"),
            ("tightness", {"k": 2, "p": 3.0, "n": 100, "Lambda": 50, "lambda": 1},
             "family tightness has the unknown key 'lambda'; it reads k, p, n, Lambda"),
        ],
    )
    def test_gen_refusal_exit_2(self, family, params, reason, tmp_path, capsys):
        code = main(["gen", "--family", family, "--params", json.dumps(params),
                     "--out", str(tmp_path / "inst")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert reason in captured.err
        assert not list(tmp_path.iterdir())

    def test_gen_lp_oversized_host_refused_before_sampling(self, monkeypatch, tmp_path,
                                                           capsys):
        draws = []
        monkeypatch.setattr(random.Random, "sample", lambda *args: draws.append(args))
        params = {"t": 3, "p": "2", "lambda": "1", "n": 10**7}
        code = main(["gen", "--family", "lp", "--params", json.dumps(params),
                     "--out", str(tmp_path / "inst")])
        captured = capsys.readouterr()
        assert (code, captured.out, draws) == (2, "", [])
        assert captured.err.startswith("error: host has at least ")
        assert captured.err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, doc, reason", [
        ("lb-sweep", {"t": []}, "'t' must be a non-empty list"),
        ("lb-sweep", {"p": "2"}, "'p' must be a non-empty list"),
        ("lb-sweep", {"lambda_points": 0}, "'lambda_points' must be a positive integer"),
        ("lb-sweep", {"lambda_points": -1}, "'lambda_points' must be a positive integer"),
        ("lb-sweep", {"lambda_points": "5"}, "'lambda_points' must be a positive integer"),
        ("lb-sweep", {"lambda_points": True}, "'lambda_points' must be a positive integer"),
        ("lb-sweep", [1, 2], "--grid must hold a JSON object"),
        ("experiment", [1], "--spec must hold a JSON object"),
        ("experiment", {"grid": {"n": [40]}, "families": "greedy_bound"},
         "'families' must be a non-empty list"),
        ("experiment", {"grid": [1], "families": ["greedy_bound"]},
         "'grid' must be a non-empty JSON object"),
        ("experiment", {"grid": {"seeds": []}, "families": ["greedy_bound"]},
         "'seeds' must be a non-empty list"),
        ("experiment", {"grid": {"n": 40}, "families": ["greedy_bound"]},
         "'n' must be a non-empty list"),
        ("experiment", {"grid": {"p": ["1/0"]}, "families": ["lb_agreement"], "output": "out"},
         "p must be a rational number, got '1/0'"),
        ("lb-sweep", {"p": ["1/0"]}, "p must be a rational number, got '1/0'"),
        ("lb-sweep", {"p": ["2", "0"]}, "p must be a rational >= 1, got '0'"),
        ("experiment", {"grid": {"n": [40]}, "families": ["greedy_bound", "nope"],
                        "output": "out"},
         "unknown family 'nope'; the families are greedy_bound, lb_agreement"),
    ])
    def test_malformed_document_exit_2(self, command, doc, reason, tmp_path, monkeypatch,
                                       capsys):
        # refused before any row runs: no traceback, no CSV, no summary
        monkeypatch.chdir(tmp_path)
        Path("doc.json").write_text(json.dumps(doc))
        option = "--grid" if command == "lb-sweep" else "--spec"
        code = main([command, option, "doc.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert reason in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_lb_sweep_bool_stretch_writes_no_out_file(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"t": [True], "p": ["2"], "lambda_points": 2}))
        code = main(["lb-sweep", "--grid", str(grid), "--out", str(tmp_path / "sweep.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: stretch t must be a positive integer, got True\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.json"]

    @pytest.mark.parametrize("p, lam", [("1/0", "1"), ("2", "1/0")])
    def test_lb_zero_denominator_exit_2(self, p, lam, capsys):
        code = main(["lb", "--t", "3", "--p", p, "--lambda", lam, "--exact"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be a rational number, got '1/0'" in captured.err

    def test_lb_sweep(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"t": [2, 3], "p": ["2"], "lambda_points": 3}))
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(["lb-sweep", "--grid", grid, "--out", out_csv], capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 6
        assert all(line.endswith(",True") for line in lines[1:])


class TestExperiment:
    def _spec(self, tmp_path):
        return {
            "name": "demo",
            "grid": {"seeds": [1, 2], "n": [40, 60], "t": [3], "p": ["2"]},
            "families": ["greedy_bound", "lb_agreement"],
            "output": str(tmp_path / "out"),
        }

    def test_rejects_empty_grid(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment({"name": "x", "grid": {}, "families": []})

    @staticmethod
    def _strip_timing(text):
        # the seconds column is the one timestamp-like field
        rows = [line.rsplit(",", 1)[0] for line in text.splitlines()]
        return rows

    def test_run_and_resume(self, tmp_path):
        spec = self._spec(tmp_path)
        assert run_experiment(spec) == 0
        csv_path = tmp_path / "out" / "demo.csv"
        full = csv_path.read_text()
        # truncate to simulate an interrupted run, then resume
        lines = full.splitlines()
        csv_path.write_text("\n".join(lines[:4]) + "\n")
        assert run_experiment(spec) == 0
        resumed = csv_path.read_text()
        assert sorted(self._strip_timing(resumed)) == sorted(self._strip_timing(full))

    @pytest.mark.parametrize("cut", ["family", "norm", "ok", "seconds", "newline"])
    def test_resume_after_torn_row(self, tmp_path, cut):
        spec = self._spec(tmp_path)
        assert run_experiment(spec) == 0
        csv_path = tmp_path / "out" / "demo.csv"
        full = csv_path.read_text()
        # cut inside the fourth data row, as a crash mid-write leaves it
        start = sum(len(line) + 1 for line in full.splitlines()[:4])
        row = full.splitlines()[4]
        cols = row.split(",")
        offset = {
            "family": 3,
            "norm": len(",".join(cols[:7])) + 3,
            "ok": len(",".join(cols[:10])) + 1,
            "seconds": len(row) - 1,
            "newline": len(row),
        }[cut]
        csv_path.write_text(full[: start + offset])
        assert run_experiment(spec) == 0
        resumed = csv_path.read_text()
        assert self._strip_timing(resumed) == self._strip_timing(full)
        assert all(line.count(",") == 11 for line in resumed.splitlines())

    def test_resume_drops_short_rows_and_rows_without_ok(self, tmp_path):
        spec = self._spec(tmp_path)
        assert run_experiment(spec) == 0
        csv_path = tmp_path / "out" / "demo.csv"
        full = csv_path.read_text()
        lines = full.splitlines()
        cols = lines[2].split(",")
        cols[10] = ""
        lines[2] = ",".join(cols)
        lines[3] = ",".join(lines[3].split(",")[:8])
        csv_path.write_text("\n".join(lines) + "\n")
        assert run_experiment(spec) == 0
        resumed = csv_path.read_text()
        assert sorted(self._strip_timing(resumed)) == sorted(self._strip_timing(full))

    def test_failed_row_is_recorded_and_exits_1(self, tmp_path, capsys):
        # the LP needs t >= 2, so an lb_agreement row at t = 1 fails; the row
        # is written with ok = 0 and the sweep goes on
        spec = {"name": "bad", "grid": {"t": [1, 3], "p": ["2"]},
                "families": ["lb_agreement"], "output": str(tmp_path / "out")}
        assert run_experiment(spec) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failures"] == 1
        assert captured.err.count("row failed (lb_agreement, seed=0, n=100, t=1, p=2)") == 1
        rows = self._strip_timing((tmp_path / "out" / "bad.csv").read_text())
        assert rows[1] == "lb_agreement,0,100,1,2,,,,,,0"
        assert rows[2].startswith("lb_agreement,0,100,3,2,") and rows[2].endswith(",1")

    def test_resume_over_another_header_runs_every_row(self, tmp_path):
        # a file whose header is not this run's holds no finished rows, so a
        # row it holds is run again rather than kept
        spec = self._spec(tmp_path)
        assert run_experiment(spec) == 0
        csv_path = tmp_path / "out" / "demo.csv"
        full = csv_path.read_text()
        lines = full.splitlines()
        cols = lines[1].split(",")
        cols[5] = "-1"  # m_in
        csv_path.write_text("\n".join([lines[0].replace("ratio", "quotient"),
                                       ",".join(cols), *lines[2:]]) + "\n")
        assert run_experiment(spec) == 0
        assert self._strip_timing(csv_path.read_text()) == self._strip_timing(full)

    def test_threaded_run_matches_and_joins_pool(self, tmp_path):
        spec = self._spec(tmp_path)
        run_experiment(spec, resume=False)
        sequential = (tmp_path / "out" / "demo.csv").read_text()
        before = set(threading.enumerate())
        run_experiment(dict(spec, threads=2), resume=False)
        threaded = (tmp_path / "out" / "demo.csv").read_text()
        assert self._strip_timing(threaded) == self._strip_timing(sequential)
        assert set(threading.enumerate()) <= before

    def test_deterministic_rerun(self, tmp_path):
        spec = self._spec(tmp_path)
        run_experiment(spec)
        first = (tmp_path / "out" / "demo.csv").read_text()
        run_experiment(spec, resume=False)
        second = (tmp_path / "out" / "demo.csv").read_text()
        assert self._strip_timing(second) == self._strip_timing(first)


def _child(argv, cwd=None, timeout=None):
    # the child finds the package where this process found it, so the tests
    # also run from a checkout without PYTHONPATH or an install
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(child_env(), COLUMNS="80"), cwd=cwd, timeout=timeout)


def test_module_entry_point():
    proc = _child(["-m", "spanorm.cli", "lb", "--t", "2", "--p", "1.5",
                   "--lambda", "1", "--exact"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ell_exact"] == {"num": 3, "den": 5}


def test_lb_exact_large_p_finishes():
    # at p = 100000 the exact floor-log searched k near 10**6, each step an
    # exact power of p/(p-1); the search now stops at t + 1
    proc = _child(["-m", "spanorm.cli", "lb", "--t", "3", "--p", "100000", "--lambda", "1",
                   "--exact"], timeout=10)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["lcr"] == {"L": 0, "C": 1, "R": 2, "skew": "none"}
    assert report["ell_exact"] == {"num": 100001, "den": 300000}


def test_verify_tree_input(tmp_path, capsys):
    # tree: greedy keeps everything, idempotence and ratio checks all apply
    path = tmp_path / "tree.edges"
    path.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
    code, out = run_cli(["verify", "--input", path, "--stretch", 3], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks["greedy_idempotent"] is True
    assert checks["greedy_ratio_at_least_1"] is True
    assert json.loads(out)["failed"] == []


@pytest.mark.parametrize("given", [False, True], ids=["greedy", "given-spanner"])
def test_verify_runs_the_greedy_once_per_graph(k4_file, tmp_path, capsys, monkeypatch, given):
    # with m <= 16 the oracle's ratio check reuses h when h is the greedy;
    # the idempotency check still reruns the greedy on h (3 edges of K4).
    # The stdout lines were recorded when the ratio check built its own.
    calls = []
    real = spanorm.greedy.greedy_spanner

    def counted(g, t):
        calls.append(g.m)
        return real(g, t)

    args = ["verify", "--input", k4_file, "--stretch", 3]
    if given:
        h_path = tmp_path / "h.edges"
        h_path.write_text("4 3\n0 1\n0 2\n0 3\n")
        args += ["--spanner", h_path]
    monkeypatch.setattr(spanorm.greedy, "greedy_spanner", counted)
    monkeypatch.setattr(spanorm.oracle, "greedy_spanner", counted)
    code, out = run_cli(args, capsys)
    assert code == 0
    if given:
        assert out == ('{"checks": {"greedy_girth": null, "greedy_ratio_at_least_1": true, '
                       '"stretch": true}, "failed": []}\n')
        # the given spanner is not the greedy: the oracle builds that itself
        assert calls == [6]
    else:
        assert out == ('{"checks": {"greedy_girth": true, "greedy_idempotent": true, '
                       '"greedy_ratio_at_least_1": true, "stretch": true}, "failed": []}\n')
        assert calls == [6, 3]


# Runs ``spanorm <args>`` the way ``python -m spanorm.cli`` does, then writes
# the library modules the run loaded as the last line of stderr.
HELP = """\
usage: spanorm [-h] [--threads THREADS]
               {greedy,norm,decompose,lb,lb-sweep,gen,oracle,verify,experiment}
               ...

Greedy lp-norm spanners, universal lower bounds, extremal generators

positional arguments:
  {greedy,norm,decompose,lb,lb-sweep,gen,oracle,verify,experiment}
    greedy              construct the greedy t-spanner
    norm                lp norms of a graph
    decompose           vertex classes and bound slacks
    lb                  lower-bound exponent for (t, p, lambda)
    lb-sweep            LP vs closed-form agreement grid
    gen                 generate an extremal instance
    oracle              brute-force minimum-norm spanner
    verify              run the applicable check suite
    experiment          run a parameter-grid experiment

options:
  -h, --help            show this help message and exit
  --threads THREADS     accepted for compatibility; rows run sequentially
"""


class TestColdStart:
    """Each subcommand imports only the library modules it runs."""

    @staticmethod
    def _run(args, cwd=None):
        proc, imported = cli_imports(args, cwd)
        return proc, {m.removeprefix("spanorm.") for m in imported if m.startswith("spanorm.")}

    def test_lb_loads_only_the_lp(self):
        proc, loaded = self._run(["lb", "--t", 3, "--p", 2, "--lambda", 1, "--exact",
                                  "--certificate"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verified"] is True
        assert "lb_lp" in loaded
        assert not loaded & {"graph_core", "greedy", "extremal", "decomposition", "oracle"}

    @pytest.mark.parametrize("command", ["greedy", "verify"])
    def test_graph_commands_skip_lp_and_oracle(self, command, tmp_path):
        # more than 16 edges, so verify skips the oracle's greedy-ratio check
        g = named_girth_graph("heawood")
        assert g.m > 16
        (tmp_path / "g.edges").write_text(format_edge_list(g))
        proc, loaded = self._run([command, "--input", "g.edges", "--stretch", 3], tmp_path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)
        assert {"graph_core", "greedy"} <= loaded
        assert not loaded & {"lb_lp", "simplex", "extremal", "oracle"}

    def test_import_spanorm_loads_no_submodule(self):
        proc = _child(["-c", "import spanorm, sys; "
                       "print([m for m in sys.modules if m.startswith('spanorm.')])"])
        assert proc.returncode == 0
        assert proc.stdout == "[]\n"

    def test_star_import_binds_every_public_name(self):
        proc = _child(["-c", "from spanorm import *\n"
                       "import spanorm, spanorm.graph_core as gc, spanorm.greedy as gr\n"
                       "print([n for n in spanorm.__all__ if n not in globals() or "
                       "globals()[n] is not getattr(gc, n, getattr(gr, n, None))])"])
        assert proc.returncode == 0
        assert proc.stdout == "[]\n"
        assert spanorm.Graph is Graph and spanorm.greedy_spanner is greedy_spanner

    def test_help_unchanged(self):
        proc = _child(["-m", "spanorm.cli", "--help"])
        assert proc.returncode == 0
        assert proc.stdout == HELP

    def test_bad_input_file_exit_3(self, tmp_path):
        (tmp_path / "inf.edges").write_text("2 1\n0 1 inf\n")
        proc, loaded = self._run(["greedy", "--input", "inf.edges", "--stretch", 3], tmp_path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "error:" in proc.stderr
        assert "lb_lp" not in loaded

    # the stdlib modules the LP side needs, and the LP side itself
    LP_IMPORTS = {"dataclasses", "fractions", "csv", "spanorm.lb_lp", "spanorm.simplex"}

    @pytest.mark.parametrize("args", [
        ["greedy", "--stretch", 3],
        ["verify", "--stretch", 3],
        ["oracle", "--stretch", 3, "--p", 2],
        ["decompose", "--k", 3],
        ["norm"],
    ], ids=lambda args: args[0])
    def test_graph_commands_import_no_lp_stdlib(self, args, petersen_file):
        # Petersen has 15 edges, so verify runs the oracle's ratio check too
        proc, imported = cli_imports([args[0], "--input", petersen_file, *args[1:]])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)
        assert "spanorm.graph_core" in imported
        assert not imported & self.LP_IMPORTS

    def test_gen_named_imports_no_lp(self, tmp_path):
        proc, imported = cli_imports(["gen", "--family", "named", "--params",
                                      '{"name": "mcgee"}', "--out", tmp_path / "g"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["girth"] == 7.0
        assert "spanorm.extremal" in imported
        # two checks, so either module alone fails the test
        assert "spanorm.lb_lp" not in imported
        assert "spanorm.simplex" not in imported

    # the record machinery the package leaves out: ``dataclasses`` loads
    # ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``)
    RECORD_IMPORTS = {"dataclasses", "inspect"}

    @pytest.mark.parametrize("args", [
        ["lb", "--t", 3, "--p", 2, "--lambda", 1, "--exact", "--certificate"],
        ["lb-sweep", "--grid", "grid.json"],
        ["gen", "--family", "lp", "--params", {"t": 3, "p": "2", "lambda": "1", "n": 64}],
        ["gen", "--family", "lcr", "--params", {"L": 1, "C": 1, "R": 1, "p": 2.0,
                                                "center": 8}],
        ["gen", "--family", "skewed", "--params", {"L": 1, "C": 1, "R": 1, "skew": "right",
                                                   "p": 2.0, "center": 16,
                                                   "skew_exponent": 0.25}],
        ["experiment", "--spec", "spec.json", "--fresh"],
    ], ids=["lb", "lb-sweep", "gen-lp", "gen-lcr", "gen-skewed", "experiment"])
    def test_lp_and_layered_commands_import_no_dataclasses(self, args, tmp_path):
        (tmp_path / "grid.json").write_text(json.dumps(
            {"t": [2, 3], "p": ["2", "5/2"], "lambda_points": 3}))
        (tmp_path / "spec.json").write_text(json.dumps(
            {"name": "e", "families": ["greedy_bound", "lb_agreement"], "output": "e",
             "grid": {"seeds": [0], "n": [40], "t": [3], "p": ["2"]}}))
        if args[0] == "gen":
            args = [*args[:-1], json.dumps(args[-1]), "--out", "inst"]
        proc, imported = cli_imports(args, cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout
        # lb_lp is loaded by ``from . import lb_lp``; the probe reads it off
        # sys.modules, where -X importtime did not log it
        assert {"spanorm.lb_lp", "spanorm.simplex"} <= imported
        assert not imported & self.RECORD_IMPORTS

    def test_lp_and_layered_modules_import_no_dataclasses(self):
        proc = _child(["-c", "import sys, spanorm.lb_lp, spanorm.extremal; "
                       "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"])
        assert proc.returncode == 0
        assert proc.stdout == "[]\n"
