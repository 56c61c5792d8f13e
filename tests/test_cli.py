"""Command-line surface: formats, exit codes, reproducibility."""

import json

import pytest

from driftcf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_log(tmp_path):
    path = tmp_path / "log.tsv"
    code = main([
        "synth", "--seed", "7", "--out", str(path),
        "--users", "40", "--items", "120", "--events", "1600", "--topics", "6",
    ])
    assert code == 0
    return path


class TestSynth:
    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["synth", "--seed", "7", "--users", "30", "--items", "90",
                "--events", "900", "--topics", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, capsys):
        code, out, _err = run(
            capsys, "synth", "--seed", "1", "--users", "5", "--items", "30",
            "--events", "40", "--topics", "3",
        )
        assert code == 0
        assert len(out.splitlines()) == 40

    def test_infeasible_config_fails_cleanly(self, capsys):
        code, _out, err = run(
            capsys, "synth", "--seed", "1", "--users", "2", "--items", "5",
            "--events", "100", "--topics", "2",
        )
        assert code == 1
        assert "catalog" in err


class TestIngest:
    def test_summary_json(self, small_log, capsys):
        code, out, _err = run(capsys, "ingest", "--in", str(small_log))
        assert code == 0
        summary = json.loads(out)
        assert set(summary) == {"users", "items", "ratings", "sparsity", "excluded_users"}
        assert summary["users"] > 0

    def test_missing_file_exit_one(self, capsys):
        code, _out, err = run(capsys, "ingest", "--in", "/nonexistent/x.tsv")
        assert code == 1
        assert "error" in err

    def test_json_errors_mode(self, capsys):
        code, _out, err = run(
            capsys, "--json-errors", "ingest", "--in", "/nonexistent/x.tsv"
        )
        assert code == 1
        payload = json.loads(err.strip().splitlines()[-1])
        assert "error" in payload

    def test_custom_columns(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("5,u1,a\n6,u2,a\n7,u1,b\n8,u2,b\n")
        code, out, _err = run(
            capsys, "ingest", "--in", str(path),
            "--delimiter", ",", "--columns", "timestamp,user,item",
        )
        assert code == 0
        assert json.loads(out)["ratings"] == 4


class TestAnalyzeSsnr:
    def test_curve_csv_and_trend_json(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        assert main([
            "synth", "--seed", "3", "--out", str(log),
            "--users", "120", "--items", "300", "--events", "9000", "--topics", "8",
        ]) == 0
        curve = tmp_path / "curve.csv"
        trend = tmp_path / "trend.json"
        code, _out, _err = run(
            capsys, "analyze-ssnr", "--in", str(log),
            "--curve-out", str(curve), "--trend-out", str(trend),
        )
        assert code == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == "age_lo,age_hi,mean_ssnr,count"
        assert len(lines) > 10
        fit = json.loads(trend.read_text())
        assert set(fit) == {"t_s", "t_l", "k_s", "k_l", "plateau", "residual"}
        assert fit["t_s"] <= fit["t_l"]

    def test_curve_reproducible(self, small_log, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main([
                "analyze-ssnr", "--in", str(small_log), "--curve-out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFitTrend:
    def test_refit_from_curve_file(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        assert main([
            "synth", "--seed", "3", "--out", str(log),
            "--users", "120", "--items", "300", "--events", "9000", "--topics", "8",
        ]) == 0
        curve = tmp_path / "curve.csv"
        trend = tmp_path / "trend.json"
        assert main([
            "analyze-ssnr", "--in", str(log),
            "--curve-out", str(curve), "--trend-out", str(trend),
        ]) == 0
        code, out, _err = run(capsys, "fit-trend", "--curve", str(curve))
        assert code == 0
        refit = json.loads(out)
        original = json.loads(trend.read_text())
        # refit consumes 12-significant-digit CSV values, so the residual
        # may wobble at that precision; the parameters must not
        assert refit["t_s"] == original["t_s"]
        assert refit["t_l"] == original["t_l"]
        for key in ("k_s", "k_l", "plateau"):
            assert refit[key] == pytest.approx(original[key], rel=1e-9, abs=1e-12)
        assert refit["residual"] == pytest.approx(original["residual"], rel=1e-9, abs=1e-12)

    def test_bad_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2,3,4\n")
        code, _out, err = run(capsys, "fit-trend", "--curve", str(bad))
        assert code == 1
        assert "header" in err


class TestRecommend:
    def test_json_list_of_item_score(self, small_log, capsys):
        code, out, _err = run(
            capsys, "recommend", "--in", str(small_log), "--user", "u0001",
            "--at", "200000000", "--decay", "piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3",
            "--n", "5",
        )
        assert code == 0
        results = json.loads(out)
        assert 0 < len(results) <= 5
        scores = [r["score"] for r in results]
        assert scores == sorted(scores, reverse=True)
        assert all(set(r) == {"item", "score"} for r in results)

    def test_unknown_user(self, small_log, capsys):
        code, _out, err = run(
            capsys, "recommend", "--in", str(small_log), "--user", "nobody",
            "--at", "200000000",
        )
        assert code == 1
        assert "nobody" in err

    def test_bad_decay_spec_names_key(self, small_log, capsys):
        code, _out, err = run(
            capsys, "recommend", "--in", str(small_log), "--user", "u0001",
            "--at", "200000000", "--decay", "exp:Tq=5",
        )
        assert code == 1
        assert "tq" in err.lower()


class TestEvaluate:
    def test_report_shape(self, small_log, capsys):
        code, out, _err = run(
            capsys, "evaluate", "--in", str(small_log),
            "--decay", "constant", "--n", "5,10",
        )
        assert code == 0
        report = json.loads(out)
        assert report["decay"] == "constant"
        assert [r["n"] for r in report["results"]] == [5, 10]
        for r in report["results"]:
            assert 0.0 <= r["hit_rate"] <= 1.0 / r["n"]
            assert "hit_fraction" not in r

    def test_normalize_hitrate_column(self, small_log, capsys):
        code, out, _err = run(
            capsys, "evaluate", "--in", str(small_log), "--normalize-hitrate",
        )
        assert code == 0
        report = json.loads(out)
        for r in report["results"]:
            assert r["hit_fraction"] == pytest.approx(r["hit_rate"] * r["n"])

    def test_byte_reproducible(self, small_log, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["evaluate", "--in", str(small_log), "--decay",
                "piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sim_cache_round_trip(self, small_log, tmp_path, capsys):
        cache = tmp_path / "sim.bin"
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        base = ["evaluate", "--in", str(small_log), "--sim-cache", str(cache)]
        assert main(base + ["--out", str(out1)]) == 0
        assert cache.exists()
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sim_cache_mismatch_refused(self, small_log, tmp_path, capsys):
        other = tmp_path / "other.tsv"
        assert main([
            "synth", "--seed", "99", "--out", str(other),
            "--users", "40", "--items", "120", "--events", "1600", "--topics", "6",
        ]) == 0
        cache = tmp_path / "sim.bin"
        assert main([
            "evaluate", "--in", str(small_log), "--sim-cache", str(cache),
            "--out", str(tmp_path / "x.json"),
        ]) == 0
        code, _out, err = run(
            capsys, "evaluate", "--in", str(other), "--sim-cache", str(cache),
        )
        assert code == 1
        assert "different training set" in err


class TestSweep:
    def test_table_and_best_are_consistent(self, small_log, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        best = tmp_path / "best.json"
        code, _out, _err = run(
            capsys, "sweep", "--in", str(small_log),
            "--family", "constant,exp,piecewise", "--grid-points", "2",
            "--table-out", str(table), "--best-out", str(best), "--threads", "2",
        )
        assert code == 0
        lines = table.read_text().splitlines()
        header = lines[0].split(",")
        h10 = header.index("h_at_10")
        rates = [float(row.split(",")[h10]) for row in lines[1:]]
        chosen = json.loads(best.read_text())
        assert chosen["best"]["hit_rate"]["10"] == pytest.approx(max(rates))
        assert set(chosen["per_family"]) == {"constant", "exp", "piecewise"}
        # constant row has no parameters
        constant_rows = [r for r in lines[1:] if r.startswith("constant,")]
        assert len(constant_rows) == 1

    def test_table_header(self, small_log, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        code, _out, _err = run(
            capsys, "sweep", "--in", str(small_log), "--family", "logistic",
            "--grid-points", "1", "--table-out", str(table),
        )
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "family,t_w,t_g,b,t_e,k_o,t_s,t_l,k_s,k_l,h_at_10,h_at_20,h_at_50"
        # logistic rows carry the default offset b read from the spec
        assert lines[1].startswith("logistic,,1,5,,,,,,,")

    def test_unknown_family_rejected(self, small_log, capsys):
        code, _out, err = run(
            capsys, "sweep", "--in", str(small_log), "--family", "linear",
            "--table-out", "/tmp/never.csv",
        )
        assert code == 1
        assert "linear" in err

    def test_zero_grid_points_rejected(self, small_log, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        code, _out, err = run(
            capsys, "sweep", "--in", str(small_log), "--grid-points", "0",
            "--table-out", str(table),
        )
        assert code == 1
        assert "points per parameter must be at least 1" in err
        assert not table.exists()

    def test_threads_flag_hidden_and_ignored(self, small_log, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "--threads" not in capsys.readouterr().out
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--in", str(small_log), "--family", "exp", "--grid-points", "2"]
        assert main(args + ["--table-out", str(a), "--threads", "3"]) == 0
        assert main(args + ["--table-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_reproducible(self, small_log, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--in", str(small_log), "--family", "outraday",
                "--grid-points", "3", "--threads", "2"]
        assert main(args + ["--table-out", str(a)]) == 0
        assert main(args + ["--table-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "driftcf" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--nope"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
