"""Command-line surface: formats, exit codes, reproducibility."""

import argparse
import dataclasses
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftcf import cli
from driftcf.cli import build_parser, main
from driftcf.dataset import preprocess
from driftcf.decay import FAMILIES, Constant, parse_decay
from driftcf.evaluation import evaluate_split, prepare_evaluation
from driftcf.synthetic import SyntheticConfig, generate_synthetic
from driftcf.temporal import TrendFit
from helpers import error_class


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_any_exit(capsys, *argv):
    """Exit code, stderr and the RuntimeWarning messages of one run, usage
    errors (argparse's exit 2) included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, capsys.readouterr().err, runtime


@pytest.fixture(scope="module")
def depth_split():
    """The split and model of a small synthetic log."""
    return prepare_evaluation(preprocess(generate_synthetic(SyntheticConfig(
        users=20, items=60, events=500, topics=4, seed=11,
    ))))


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
        # one line, naming the error's class
        assert err.startswith("driftcf: error: FileNotFoundError: ") and err.count("\n") == 1

    def test_json_errors_mode(self, capsys):
        # every pipeline error is one line naming its class; there is no second format
        code, err, _runtime = run_any_exit(
            capsys, "--json-errors", "ingest", "--in", "/nonexistent/x.tsv"
        )
        assert code == 2
        assert "unrecognized arguments: --json-errors" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--delimiter", "--columns"])
    def test_log_format_flags_are_usage_errors(self, small_log, capsys, flag):
        # the log format is fixed: user<TAB>item<TAB>epoch-seconds
        code, err, _runtime = run_any_exit(capsys, "ingest", "--in", str(small_log), flag, ",")
        assert code == 2
        assert f"unrecognized arguments: {flag} ," in err
        assert "Traceback" not in err


class TestAnalyzeSsnr:
    def test_curve_csv_and_trend_json(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        assert main([
            "synth", "--seed", "3", "--out", str(log),
            "--users", "120", "--items", "300", "--events", "9000", "--topics", "8",
        ]) == 0
        curve = tmp_path / "curve.csv"
        trend = tmp_path / "trend.json"
        code, _out, err = run(
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
        # stderr gives the fit as a decay spec that evaluate takes as it is
        spec = re.search(r"note: trend fit as a decay: ([^;\s]+)", err).group(1)
        decay = dataclasses.asdict(parse_decay(spec))
        assert decay == {k: fit[k] for k in ("t_s", "t_l", "k_s", "k_l")}
        report = tmp_path / "report.json"
        assert main(["evaluate", "--in", str(log), "--decay", spec, "--out", str(report)]) == 0

    @pytest.mark.parametrize("fit, note", [
        (
            TrendFit(100.0, 5e7, 0.0, 0.3, 1.0, 0.0),
            "note: trend fit as a decay: piecewise:Ts=100,Tl=50000000,Ks=0,Kl=0.3; "
            "Ts is on the edge of its grid 100-100000; Tl is on the edge of its grid "
            "500000-50000000; Ks is clamped to 0\n",
        ),
        (
            TrendFit(1e5, 1e6, 100.0, 0.5, 1.0, 0.0),
            "note: the trend fit is no decay spec: the weight at the 1 s age floor overflows: "
            "Ts=100000.0 Ks=100.0\n",
        ),
    ])
    def test_decay_note_names_edges_clamps_and_overflow(
        self, small_log, tmp_path, capsys, monkeypatch, fit, note
    ):
        monkeypatch.setattr(cli, "fit_piecewise_trend", lambda curve: fit)
        trend = tmp_path / "trend.json"
        code, _out, err = run(
            capsys, "analyze-ssnr", "--in", str(small_log), "--curve-out", str(tmp_path / "c.csv"),
            "--trend-out", str(trend),
        )
        assert code == 0
        assert err.endswith(note)
        assert json.loads(trend.read_text()) == dataclasses.asdict(fit)

    def test_fit_trend_is_usage_error(self, tmp_path, capsys):
        # the trend is fitted by analyze-ssnr --trend-out; the curve CSV is an output only
        curve = tmp_path / "curve.csv"
        curve.write_text("age_lo,age_hi,mean_ssnr,count\n1,1.25,0.5,3\n")
        code, err, _runtime = run_any_exit(
            capsys, "fit-trend", "--curve", str(curve), "--out", str(tmp_path / "trend.json")
        )
        assert code == 2
        assert "invalid choice: 'fit-trend'" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [curve]

    def test_curve_reproducible(self, small_log, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main([
                "analyze-ssnr", "--in", str(small_log), "--curve-out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failed_trend_fit_writes_no_curve(self, tmp_path, capsys):
        # every rating shares one timestamp, so every age is 0 and the curve
        # has one bin to fit
        log = tmp_path / "log.tsv"
        log.write_text("".join(f"u{u}\ti{i}\t1000\n" for u in range(2) for i in range(3)))
        code, _out, err = run(
            capsys, "analyze-ssnr", "--in", str(log), "--curve-out", str(tmp_path / "c.csv"),
            "--trend-out", str(tmp_path / "t.json"),
        )
        assert code == 1
        assert "no (t_s, t_l) candidate" in err
        assert list(tmp_path.iterdir()) == [log]

    @pytest.mark.parametrize("flag, value", [("--bin-ratio", "2"), ("--age-min", "10")])
    def test_binning_flags_are_usage_errors(self, small_log, tmp_path, capsys, flag, value):
        # ages are binned ten to a decade from 1 s
        code, err, _runtime = run_any_exit(
            capsys, "analyze-ssnr", "--in", str(small_log), "--curve-out", str(tmp_path / "c.csv"),
            flag, value,
        )
        assert code == 2
        assert f"unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [small_log]

    def test_timestamp_above_int64_skipped(self, small_log, tmp_path, capsys):
        padded = tmp_path / "padded.tsv"
        padded.write_text(small_log.read_text() + "u0001\ti0001\t99999999999999999999\n")
        curves = []
        for log in (small_log, padded):
            curve = tmp_path / f"{log.stem}.csv"
            code, _out, err = run(
                capsys, "analyze-ssnr", "--in", str(log), "--curve-out", str(curve)
            )
            assert code == 0
            curves.append(curve.read_bytes())
        assert "skipped 1 malformed line" in err
        assert curves[0] == curves[1]


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

    @pytest.mark.parametrize("decay", [
        "exp:Te=1e-320", "logistic:Tg=1e-300", "piecewise:Ts=1e-320,Tl=1e-320,Ks=1,Kl=1",
    ])
    def test_tiny_time_scale_warns_nothing(self, small_log, capsys, decay):
        # weights past one second overflow to their exact limit, 0
        code, err, runtime_warnings = run_any_exit(
            capsys, "recommend", "--in", str(small_log), "--user", "u0001",
            "--at", "9000000000", "--decay", decay,
        )
        assert code == 0
        assert runtime_warnings == []
        assert "Warning" not in err

    def test_no_positive_score_prints_empty_list_and_a_note(self, small_log, capsys):
        # every age is at least 1e8 s, so every exp weight underflows to 0
        code, out, err = run(
            capsys, "recommend", "--in", str(small_log), "--user", "u0001",
            "--at", "200000000", "--decay", "exp:Te=5e4",
        )
        assert code == 0
        assert json.loads(out) == []
        assert "user u0001 at --at 200000000" in err
        assert " 0 of " in err and "nonzero decay weight" in err

    def test_unknown_user(self, small_log, capsys):
        code, _out, err = run(
            capsys, "recommend", "--in", str(small_log), "--user", "nobody",
            "--at", "200000000",
        )
        assert code == 1
        assert "ValueError: unknown user 'nobody'" in err

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

    def test_repeated_depth_rejected(self, small_log, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _out, err = run(
            capsys, "evaluate", "--in", str(small_log), "--n", "10,10", "--out", str(out)
        )
        assert code == 1
        assert "invalid depth list '10,10': depth 10 is listed twice" in err
        assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(depths=st.lists(st.integers(-2, 60), max_size=4))
    @example(depths=[])
    @example(depths=[10, 10])
    @example(depths=[0, 5])
    def test_cli_and_library_take_the_same_depth_lists(self, depth_split, depths):
        train, probes, model = depth_split
        try:
            parsed = cli._parse_n_list(",".join(map(str, depths)))
        except ValueError:
            parsed = None
        try:
            report = evaluate_split(train, probes, model, Constant(), depths)
        except ValueError:
            report = None
        assert (parsed is None) == (report is None)
        if report is not None:
            assert parsed == [r.n for r in report.results] == depths

    def test_normalize_hitrate_is_usage_error(self, small_log, capsys):
        # the report holds hits and evaluated_users, whose ratio is the hit fraction
        code, err, _runtime = run_any_exit(
            capsys, "evaluate", "--in", str(small_log), "--normalize-hitrate"
        )
        assert code == 2
        assert "unrecognized arguments: --normalize-hitrate" in err
        assert "Traceback" not in err

    def test_byte_reproducible(self, small_log, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["evaluate", "--in", str(small_log), "--decay",
                "piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overflowing_piecewise_rejected(self, small_log, capsys):
        code, out, err = run(
            capsys, "evaluate", "--in", str(small_log),
            "--decay", "piecewise:Ts=1e300,Tl=1e300,Ks=2,Kl=0",
        )
        assert code == 1
        assert out == ""
        assert "overflows" in err and "Traceback" not in err

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

    def test_repeated_depth_rejected(self, small_log, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        code, _out, err = run(
            capsys, "sweep", "--in", str(small_log), "--grid-points", "1",
            "--n", "20,20", "--table-out", str(table),
        )
        assert code == 1
        assert "invalid depth list '20,20': depth 20 is listed twice" in err
        assert not table.exists()

    def test_objective_is_the_first_depth(self, small_log, tmp_path, capsys):
        table, best = tmp_path / "sweep.csv", tmp_path / "best.json"
        code, _out, _err = run(
            capsys, "sweep", "--in", str(small_log), "--family", "constant,exp",
            "--grid-points", "2", "--n", "20,10", "--table-out", str(table),
            "--best-out", str(best),
        )
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0].endswith(",h_at_20,h_at_10")
        rates = [float(row.split(",")[-2]) for row in lines[1:]]
        chosen = json.loads(best.read_text())
        assert chosen["objective_n"] == 20
        assert list(chosen["best"]["hit_rate"]) == ["20", "10"]
        assert chosen["best"]["hit_rate"]["20"] == pytest.approx(max(rates))

    def test_objective_n_is_usage_error(self, small_log, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        code, err, _runtime = run_any_exit(
            capsys, "sweep", "--in", str(small_log), "--grid-points", "1",
            "--objective-n", "20", "--table-out", str(table),
        )
        assert code == 2
        assert "unrecognized arguments: --objective-n 20" in err
        assert not table.exists()

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


# a refused flag value, as the last two arguments, and its error
REFUSED_FLAGS = [
    (["evaluate", "--decay", "bogus"], "DecayParseError: unknown decay family 'bogus'"),
    (["evaluate", "--n", "0"], "invalid depth list '0'"),
    (["recommend", "--user", "u0001", "--at", "1", "--decay", "exp:Tq=5"],
     "unknown parameter 'tq'"),
    (["recommend", "--user", "u0001", "--at", "1", "--n", "0"],
     "search depth must be at least 1, got 0"),
    (["recommend", "--user", "u0001", "--at", "99999999999999999999"],
     "query time 99999999999999999999 is outside [0, 2**63 - 1]"),
    (["recommend", "--user", "u0001", "--at", "-1"], "query time -1 is outside [0, 2**63 - 1]"),
    (["sweep", "--table-out", "t.csv", "--family", "bogus"], "unknown decay family 'bogus'"),
    (["sweep", "--table-out", "t.csv", "--grid-points", "0"],
     "points per parameter must be at least 1"),
    (["sweep", "--table-out", "t.csv", "--n", "10,10"], "depth 10 is listed twice"),
]


class TestFlagsBeforeLog:
    """A refused flag value is reported before the log is read."""

    @pytest.mark.parametrize(
        "argv, message", REFUSED_FLAGS,
        ids=[" ".join(argv[:1] + argv[-2:]) for argv, _m in REFUSED_FLAGS],
    )
    def test_refused_flag_named_without_reading_the_log(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        code, _out, err = run(capsys, *argv, "--in", str(tmp_path / "missing.tsv"))
        assert code == 1
        assert message in err
        assert "FileNotFoundError" not in err
        assert list(tmp_path.iterdir()) == []


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


def readme_commands() -> list[str]:
    """The ``driftcf ...`` lines of README's "Command line" code block,
    backslash continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1].replace("\\\n", " ")
    return [line for line in block.splitlines() if line.startswith("driftcf ")]


class TestReadme:
    def test_command_block_lists_every_subcommand(self):
        names = {shlex.split(line, comments=True)[1] for line in readme_commands()}
        [subparsers] = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert names == set(subparsers.choices)

    @pytest.mark.parametrize("line", readme_commands(), ids=lambda line: line.split()[1])
    def test_command_parses(self, line):
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The bytes of a small synthetic log."""
    log = tmp_path_factory.mktemp("fuzz") / "log.tsv"
    assert main([
        "synth", "--seed", "11", "--out", str(log),
        "--users", "20", "--items", "60", "--events", "500", "--topics", "4",
    ]) == 0
    return log.read_bytes()


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """``blob`` with one to four bytes replaced, inserted or deleted."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out) - 1))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "delete":
            del out[at]
        else:
            out[at:at + (kind == "replace")] = bytes([draw(st.integers(0, 255))])
    return bytes(out)


class TestMutatedInputs:
    """Byte-mutated inputs end in exit 0 or 1 with a named error, never a
    traceback."""

    fuzz = settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    @staticmethod
    def exits_cleanly(capsys, *argv) -> int:
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert "Traceback" not in err
        if code == 1:
            assert error_class(err)
        return code

    @staticmethod
    def log_commands(log, out: str) -> list[list[str]]:
        """The remaining subcommands that read a log, at sizes a fuzz run affords."""
        return [
            ["analyze-ssnr", "--in", str(log), "--curve-out", out],
            ["recommend", "--in", str(log), "--user", "u0014", "--at", "9000000000", "--out", out],
            ["sweep", "--in", str(log), "--grid-points", "1", "--table-out", out],
        ]

    def test_unmutated_inputs_succeed(self, fuzz_inputs, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_bytes(fuzz_inputs)
        out = str(tmp_path / "out")
        assert self.exits_cleanly(capsys, "ingest", "--in", str(log), "--out", out) == 0
        assert self.exits_cleanly(capsys, "evaluate", "--in", str(log), "--out", out) == 0
        for argv in self.log_commands(log, out):
            assert self.exits_cleanly(capsys, *argv) == 0

    @fuzz
    @given(data=st.data())
    def test_ingest(self, fuzz_inputs, tmp_path, capsys, data):
        log = tmp_path / "log.tsv"
        log.write_bytes(data.draw(mutated(fuzz_inputs)))
        self.exits_cleanly(capsys, "ingest", "--in", str(log), "--out", str(tmp_path / "out"))

    @fuzz
    @given(data=st.data())
    def test_evaluate(self, fuzz_inputs, tmp_path, capsys, data):
        log = tmp_path / "log.tsv"
        log.write_bytes(data.draw(mutated(fuzz_inputs)))
        self.exits_cleanly(capsys, "evaluate", "--in", str(log), "--out", str(tmp_path / "out"))

    @fuzz
    @given(data=st.data())
    def test_other_log_commands(self, fuzz_inputs, tmp_path, capsys, data):
        log = tmp_path / "log.tsv"
        log.write_bytes(data.draw(mutated(fuzz_inputs)))
        for argv in self.log_commands(log, str(tmp_path / "out")):
            self.exits_cleanly(capsys, *argv)


# Flag values.  Each flag draws a well-formed value three times in four, so
# that runs get past argument parsing; ``junk`` is any float, any integer up
# to 1e20, or short text.
magnitudes = st.floats(1e-320, 1e308, allow_subnormal=True)
junk = st.one_of(
    st.floats(allow_subnormal=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["0", "-1"]),
    st.text(max_size=6),
)


def mostly(valid):
    """``valid`` three draws in four, ``junk`` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else junk)


ints = mostly(st.integers(1, 100).map(str))
depth_lists = mostly(
    st.lists(st.integers(1, 100).map(str), min_size=1, max_size=3).map(",".join)
)


def grid_points(most: int):
    """--grid-points values: an integer up to ``most``, or no integer at all
    (a larger grid costs time and memory, not a new exit path)."""

    def not_above(text: str) -> bool:
        try:
            return int(text) <= most
        except ValueError:
            return True

    return mostly(st.integers(1, most).map(str)).filter(not_above)


@st.composite
def decay_strings(draw) -> str:
    """A spec string of any family, each parameter of magnitude 1e-320 to 1e308."""
    cls = draw(st.sampled_from(list(FAMILIES.values())))
    params = ",".join(
        f"{f.metadata['key']}={draw(st.sampled_from([1, 1, 1, -1])) * draw(magnitudes)!r}"
        for f in dataclasses.fields(cls)
    )
    return f"{cls.family}:{params}" if params else cls.family


class TestFuzzedFlags:
    """Any flag value ends in exit 0, 1 or 2 with a named error: no
    traceback and no numpy RuntimeWarning."""

    fuzz = settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    @staticmethod
    def exits_cleanly(capsys, *argv) -> int:
        code, err, runtime_warnings = run_any_exit(capsys, *argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert runtime_warnings == []
        if code:
            assert "error:" in err
        return code

    @fuzz
    @given(decay=decay_strings(), n=ints)
    @example(decay="exp:Te=1e-320", n="10")
    @example(decay="logistic:Tg=1e-300,b=5.0", n="10")
    def test_recommend(self, fuzz_inputs, tmp_path, capsys, decay, n):
        log = tmp_path / "log.tsv"
        log.write_bytes(fuzz_inputs)
        self.exits_cleanly(
            capsys, "recommend", "--in", str(log), "--user", "u0014", "--at", "9000000000",
            "--out", str(tmp_path / "out"), f"--decay={decay}", f"--n={n}",
        )

    @fuzz
    @given(decay=decay_strings(), n=depth_lists)
    @example(decay="exp:Te=1e-320", n="10,20,50")
    def test_evaluate(self, fuzz_inputs, tmp_path, capsys, decay, n):
        log = tmp_path / "log.tsv"
        log.write_bytes(fuzz_inputs)
        self.exits_cleanly(
            capsys, "evaluate", "--in", str(log), "--out", str(tmp_path / "out"),
            f"--decay={decay}", f"--n={n}",
        )

    @fuzz
    @given(points=grid_points(2), n=depth_lists)
    def test_sweep(self, fuzz_inputs, tmp_path, capsys, points, n):
        log = tmp_path / "log.tsv"
        log.write_bytes(fuzz_inputs)
        self.exits_cleanly(
            capsys, "sweep", "--in", str(log), "--table-out", str(tmp_path / "out"),
            f"--grid-points={points}", f"--n={n}",
        )
