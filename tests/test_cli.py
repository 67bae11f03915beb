"""CLI subcommands: round trips, determinism, exit codes, resume."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import spanorm
import spanorm.oracle
from spanorm.cli import _dumps, main, run_experiment
from spanorm.extremal import named_girth_graph
from spanorm.graph_core import format_edge_list, parse_edge_list


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

    def test_norm(self, k4_file, capsys):
        code, out = run_cli(["norm", "--input", k4_file, "--p", "1,2,inf"], capsys)
        assert code == 0
        norms = json.loads(out)["norms"]
        assert norms["1"] == 12.0 and norms["2"] == 6.0 and norms["inf"] == 3.0

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

    def test_decompose(self, petersen_file, capsys):
        code, out = run_cli(["decompose", "--input", petersen_file, "--k", 3], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["covered"] is True

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

    def test_bad_p_exit_2(self, capsys):
        assert main(["lb", "--t", "3", "--p", "0.5", "--lambda", "1"]) == 2
        assert "p must be" in capsys.readouterr().err

    def test_invalid_graph_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "inf.edges"
        path.write_text("2 1\n0 1 inf\n")
        assert main(["greedy", "--input", str(path), "--stretch", "3"]) == 3
        assert main(["norm", "--input", str(path)]) == 3

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


def test_module_entry_point():
    # the child finds the package where this process found it, so the test
    # also runs from a checkout without PYTHONPATH or an install
    src = str(Path(spanorm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spanorm.cli", "lb", "--t", "2", "--p", "1.5",
         "--lambda", "1", "--exact"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ell_exact"] == {"num": 3, "den": 5}


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
