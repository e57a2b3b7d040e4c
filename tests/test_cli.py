"""Command-line interface: golden outputs, schemas, exit codes, environment."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    GOLDEN_DIR,
    GOLDEN_PAYLOAD_RUNS,
    GOLDEN_PLOT,
    GOLDEN_RUNS,
    REPO_ROOT,
    assert_matches_golden,
    run_cli,
)
from qcm import ChshReport, DataValidationError, cli
from qcm.cli import main

JSON_SCHEMA_RUNS = [
    ("classicality_report.json", ["classicality", "--input", "data/goldfish.csv"]),
    ("classicality_report.json", ["classicality", "--input", "data/negation_demo.csv"]),
    ("fock_fit_report.json", ["fock-fit", "--input", "data/hampton.csv"]),
    (
        "fock_fit_report.json",
        ["fock-fit", "--input", "data/goldfish.csv", "--mode", "general"],
    ),
    ("chsh_report.json", ["chsh", "--input", "data/animal_acts_table.json"]),
    (
        "chsh_report.json",
        [
            "chsh",
            "--input", "data/animal_acts_table.json",
            "--model", "data/animal_acts_model.json",
        ],
    ),
    ("stats_fit_report.json", ["stats-fit", "--input", "data/uniform11.json"]),
    ("stats_fit_report.json", ["stats-fit", "--input", "data/mb_exact_n9.json"]),
    ("combined_report.json", ["report", "--manifest", "data/report_manifest.json"]),
]


# a JSON integer too large for a float
_HUGE_INT = "1" + "0" * 400


def _table_with_ab_p(probabilities):
    table = json.loads((DATA_DIR / "animal_acts_table.json").read_text())
    for outcome, p in zip(table["AB"], probabilities):
        outcome["p"] = p
    return table


def _model_with_state0(value):
    model = json.loads((DATA_DIR / "animal_acts_model.json").read_text())
    model["state"][0] = value
    return model


def load_schema(name):
    text = resources.files("qcm").joinpath("schemas", name).read_text(encoding="utf-8")
    return json.loads(text)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_RUNS))
def test_text_output_matches_golden(golden_name, monkeypatch, capsys):
    # in-process; test_acceptance runs every golden invocation in a fresh process
    monkeypatch.chdir(REPO_ROOT)
    assert main(GOLDEN_RUNS[golden_name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert_matches_golden(golden_name, captured.out)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_PAYLOAD_RUNS))
def test_payload_output_matches_golden(golden_name, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(GOLDEN_PAYLOAD_RUNS[golden_name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert_matches_golden(golden_name, captured.out)


def test_plot_output_matches_golden(tmp_path, monkeypatch, capsys):
    svg_name, args = GOLDEN_PLOT
    monkeypatch.chdir(REPO_ROOT)
    target = tmp_path / "plot.svg"
    assert main([*args, "--plot", str(target)]) == 0
    assert capsys.readouterr().err == ""
    assert_matches_golden(svg_name, target.read_text(encoding="utf-8"))


# more plot goldens, covering every chart kind; kept out of conftest's GOLDEN_PLOT,
# which the benchmark reads as part of its op mix
PLOT_GOLDENS = {
    "report_manifest.svg": ["report", "--manifest", "data/report_manifest.json"],
    "fock_fit_goldfish_general.svg": [
        "fock-fit", "--input", "data/goldfish.csv", "--mode", "general",
    ],
}


@pytest.mark.parametrize("svg_name", sorted(PLOT_GOLDENS))
def test_more_plots_match_goldens(svg_name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    target = tmp_path / "plot.svg"
    assert main([*PLOT_GOLDENS[svg_name], "--plot", str(target)]) == 0
    assert capsys.readouterr().err == ""
    assert_matches_golden(svg_name, target.read_text(encoding="utf-8"))


def test_check_goldens_script_covers_every_golden_file():
    # the script other interpreters are checked with; here it runs on this one
    script = REPO_ROOT / "scripts" / "check_goldens.py"
    done = subprocess.run([sys.executable, str(script), sys.executable], capture_output=True,
                          text=True)
    count = len(list(GOLDEN_DIR.iterdir()))
    assert (done.returncode, done.stdout) == (0, f"{sys.executable}: identical {count}/{count}\n")


def test_plot_output_is_deterministic(tmp_path):
    first = tmp_path / "one.svg"
    second = tmp_path / "two.svg"
    for target in (first, second):
        proc = run_cli(["chsh", "--input", "data/animal_acts_table.json", "--plot", str(target)])
        assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("schema_name,args", JSON_SCHEMA_RUNS)
def test_json_output_validates_against_schema(schema_name, args, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = main([*args, "--output", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    jsonschema.validate(payload, load_schema(schema_name))


def test_json_payload_structure(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    main(["classicality", "--input", "data/goldfish.csv", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"] == "classicality"
    assert payload["input"] == "goldfish.csv"
    assert payload["records"][0]["exemplar"] == "Goldfish"
    # JSON carries full precision, not the 4-decimal text rounding
    profile = payload["records"][0]["deviationProfile"]
    assert profile["iA"] == 0.93 - 0.43 - 0.91


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        proc = run_cli(["bogus"])
        assert proc.returncode == 1
        assert "usage:" in proc.stderr
        assert proc.stdout == ""

    def test_missing_required_argument(self):
        proc = run_cli(["classicality"])
        assert proc.returncode == 1
        assert "usage:" in proc.stderr

    def test_missing_input_file_is_io_error(self):
        proc = run_cli(["classicality", "--input", "data/nope.csv"])
        assert proc.returncode == 2
        assert "i/o error" in proc.stderr

    def test_invalid_data_is_data_error(self):
        proc = run_cli(
            ["classicality", "--input", "-"],
            stdin_text="exemplar,muA,muB,muAandB\nx,0.1,oops,0.2\n",
        )
        assert proc.returncode == 1
        assert "row 2" in proc.stderr and "muB" in proc.stderr

    @pytest.mark.parametrize("flag", ["--input", "--model", "--manifest"])
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"runs": []}\xff\n')
        table = str(DATA_DIR / "animal_acts_table.json")
        argv = {
            "--input": ["classicality", "--input", str(bad)],
            "--model": ["chsh", "--input", table, "--model", str(bad)],
            "--manifest": ["report", "--manifest", str(bad)],
        }[flag]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad.json: not valid UTF-8" in captured.err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("stats-fit", '{"category": "x", "N": 1, "observed": 5}'),
            ("stats-fit", '{"category": "x", "N": 1, "observed": [null, 1]}'),
            ("stats-fit", '{"category": "x", "N": 1, "observed": ["a", 1]}'),
            ("stats-fit", '{"category": "x", "N": 1, "observed": [%s, 0]}' % _HUGE_INT),
            ("classicality", '[{"exemplar": "x", "muA": %s, "muB": 0, "muAorB": 0}]' % _HUGE_INT),
            ("classicality", '[{"exemplar": "\\ud800", "muA": 0, "muB": 0, "muAorB": 0}]'),
            ("classicality", '[{"exemplar": "\\uD800", "muA": 0, "muB": 0, "muAorB": 0}]'),
            ("stats-fit", '{"category": "x", "N": 1, "observed": [0.5, 0.5], "\\udfff": 1}'),
            ("stats-fit", '{"category": "\\udc00", "N": 1, "observed": [0.5, 0.5]}'),
            ("classicality", "[" * 100_000 + "]" * 100_000),
            ("report", '{"runs": [{"command": ["chsh"], "input": "x"}]}'),
            ("report", '{"runs": [{"command": "chsh", "input": "x\\u0000"}]}'),
            ("report", '{"runs": [{"command": "chsh", "input": "x", "name": NaN}]}'),
            ("classicality", "exemplar,muA,muB,muAorB\n" + "x" * 131_073 + ",0.1,0.2,0.3\n"),
        ],
        ids=[
            "observed-not-array", "observed-null", "observed-string", "observed-huge-int",
            "weight-huge-int", "lone-surrogate", "lone-surrogate-upper-case",
            "lone-surrogate-key", "lone-surrogate-category", "deep-nesting", "command-array",
            "path-nul", "name-not-string", "csv-field-over-limit",
        ],
    )
    def test_malformed_values_are_data_errors(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        flag = "--manifest" if command == "report" else "--input"
        assert main([command, flag, str(path)]) == 1
        assert capsys.readouterr().err.startswith("qcm: error: ")

    def test_infinite_frequency_is_named_not_finite(self, tmp_path, capsys):
        path = tmp_path / "counts.json"
        path.write_text('{"category": "c", "N": 1, "observed": [1e999, 0]}', encoding="utf-8")
        assert main(["stats-fit", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            "qcm: error: count dataset 0: dataset 'c': observed[0]=inf is not finite\n"
        )

    @pytest.mark.parametrize("value", ["abc", None, [0.5]])
    def test_malformed_coincidence_probability_is_data_error(self, tmp_path, capsys, value):
        table = json.loads((DATA_DIR / "animal_acts_table.json").read_text())
        table["AB"][0]["p"] = value
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        assert main(["chsh", "--input", str(path)]) == 1
        assert "block AB" in capsys.readouterr().err

    def test_chsh_accepts_a_block_summing_to_the_tolerance(self, tmp_path, capsys):
        # AB sums to 1.001, inside the parser's 1e-3 window, so E(A,B) = 1.001
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(_table_with_ab_p([0.6, 0.0, 0.0, 0.401])))
        assert main(["chsh", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert "E(A,B)   = 1.0010" in captured.out
        assert captured.err == ""
        assert main(["chsh", "--input", str(path), "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expectations"]["AB"] == pytest.approx(1.001)
        jsonschema.validate(payload, load_schema("chsh_report.json"))

    def test_chsh_schema_bounds_are_the_report_bounds(self):
        schema = load_schema("chsh_report.json")["properties"]
        e_bounds = {
            (spec["minimum"], spec["maximum"])
            for spec in schema["expectations"]["properties"].values()
        }
        assert len(e_bounds) == 1
        (e_min, e_max), = e_bounds
        c_min, c_max = schema["chsh"]["minimum"], schema["chsh"]["maximum"]

        def report(e, chsh):
            return ChshReport(
                e_ab=e, e_abp=e, e_apb=e, e_apbp=e, chsh=chsh,
                classical_violated=True, tsirelson_respected=False,
            )

        for e, chsh in ((e_max, c_max), (e_min, c_min)):
            report(e, chsh)  # the schema's extremes are reports ChshReport admits
            with pytest.raises(DataValidationError):
                report(e * 1.000001, 0.0)
            with pytest.raises(DataValidationError):
                report(0.0, chsh * 1.000001)

    @pytest.mark.parametrize(
        "value",
        [1e300, float("inf"), float("nan"), {"re": "abc", "im": 0}, {"mod": 1, "argDeg": 1e999}],
    )
    def test_model_numbers_must_be_finite_and_bounded(self, tmp_path, capsys, value):
        model = json.loads((DATA_DIR / "animal_acts_model.json").read_text())
        model["state"][0] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        table = str(DATA_DIR / "animal_acts_table.json")
        assert main(["chsh", "--input", table, "--model", str(path)]) == 1
        assert "state[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, document, model, field",
        [
            ("chsh", _table_with_ab_p(["0.049", 0.63, 0.259, 0.062]), None, "p(Horse,Growls)"),
            ("chsh", _table_with_ab_p([True, 0, 0, 0]), None, "p(Horse,Growls)"),
            ("stats-fit", {"category": "x", "N": 1, "observed": [True, 0]}, None, "observed[0]"),
            (
                "chsh",
                _table_with_ab_p([0.049, 0.63, 0.259, 0.062]),
                _model_with_state0({"re": "0.23", "im": 0}),
                "state[0]",
            ),
        ],
        ids=["coincidence-p-string", "coincidence-p-bool", "observed-bool", "model-re-string"],
    )
    def test_json_numbers_must_be_numbers(
        self, tmp_path, capsys, command, document, model, field
    ):
        # read as numbers, each value would make a valid document: one number policy
        argv = [command, "--input", str(tmp_path / "input.json")]
        (tmp_path / "input.json").write_text(json.dumps(document))
        if model is not None:
            (tmp_path / "model.json").write_text(json.dumps(model))
            argv += ["--model", str(tmp_path / "model.json")]
        assert main(argv) == 1
        assert f"{field}=" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "0", "1", "1.5"])
    def test_confidence_outside_open_unit_interval_rejected(self, capsys, value):
        # goldfish has one complete record, so no statistics use the confidence
        argv = ["classicality", "--input", str(DATA_DIR / "goldfish.csv"), "--confidence", value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--confidence" in captured.err

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a data error")

        monkeypatch.setattr(cli.fock, "fit_two_sector", broken)
        with pytest.raises(ValueError, match="not a data error"):
            main(["fock-fit", "--input", str(DATA_DIR / "hampton.csv")])

    def test_help_exits_zero(self):
        for args in (["--help"], ["fock-fit", "--help"]):
            proc = run_cli(args)
            assert proc.returncode == 0
            assert "usage:" in proc.stdout

    def test_unwritable_plot_path_is_io_error(self):
        proc = run_cli(
            [
                "stats-fit",
                "--input", "data/uniform11.json",
                "--plot", "no-such-dir/plot.svg",
            ]
        )
        assert proc.returncode == 2
        assert "i/o error" in proc.stderr


@pytest.mark.parametrize(
    "mode, source, evaluator, per_fit",
    [
        ("two-sector", "hampton.csv", "eval_two_sector", 1),
        ("general", "goldfish.csv", "eval_general", 4),
    ],
)
def test_fock_fit_evaluates_each_fitted_prediction_once(
    mode, source, evaluator, per_fit, monkeypatch, capsys
):
    calls = []
    evaluate = getattr(cli.fock, evaluator)
    monkeypatch.setattr(
        cli.fock, evaluator, lambda *args, **kwargs: calls.append(args) or evaluate(*args, **kwargs)
    )
    argv = ["fock-fit", "--input", str(DATA_DIR / source), "--mode", mode, "--output", "json"]
    assert main(argv) == 0
    fits = json.loads(capsys.readouterr().out)["fits"]
    assert fits and len(calls) == per_fit * len(fits)


class TestStdinAndFormats:
    def test_stdin_labeled_in_header(self):
        text = DATA_DIR.joinpath("goldfish.csv").read_text()
        proc = run_cli(["classicality", "--input", "-"], stdin_text=text)
        assert proc.returncode == 0
        assert proc.stdout.startswith("classicality report: stdin")

    def test_json_content_in_txt_file_parses_as_json(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text('[{"exemplar": "x", "muA": 0.87, "muB": 0.81, "muAandB": 0.9}]')
        proc = run_cli(["classicality", "--input", str(path)])
        assert proc.returncode == 0
        assert "conjunction: violated" in proc.stdout

    def test_json_extension_autodetected(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('[{"exemplar": "x", "muA": 0.5, "muB": 0.5, "muAorB": 0.6}]')
        proc = run_cli(["classicality", "--input", str(path)])
        assert proc.returncode == 0
        assert "disjunction: satisfied" in proc.stdout

    def test_json_on_stdin_needs_no_flag(self):
        text = '\n  [{"exemplar": "x", "muA": 0.5, "muB": 0.5, "muAorB": 0.6}]'
        proc = run_cli(["classicality", "--input", "-"], stdin_text=text)
        assert proc.returncode == 0, proc.stderr
        assert "disjunction: satisfied" in proc.stdout

    @pytest.mark.parametrize("command", ["classicality", "fock-fit"])
    def test_format_flag_is_gone(self, capsys, command):
        argv = [command, "--input", str(DATA_DIR / "goldfish.csv"), "--format", "json"]
        assert main(argv) == 1
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_format_run_key_is_gone(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [
            {"command": "classicality", "input": str(DATA_DIR / "goldfish.csv"), "format": "csv"},
        ]}))
        assert main(["report", "--manifest", str(manifest)]) == 1
        assert "manifest run 1: classicality has no flag for keys ['format']" in (
            capsys.readouterr().err
        )


class TestToleranceControls:
    def test_flag_loosens_verdict(self):
        strict = run_cli(["classicality", "--input", "data/goldfish.csv"])
        loose = run_cli(["classicality", "--input", "data/goldfish.csv", "--tolerance", "0.5"])
        assert "conjunction: violated" in strict.stdout
        assert "conjunction: satisfied" in loose.stdout

    def test_flag_beats_environment(self):
        proc = run_cli(
            ["classicality", "--input", "data/goldfish.csv", "--tolerance", "1e-9"],
            env_extra={"QCM_TOLERANCE": "0.5"},
        )
        assert "conjunction: violated" in proc.stdout

    def test_environment_leaves_output_unchanged(self):
        # the output depends only on argv and the input: QCM_TOLERANCE is not read
        argv = ["classicality", "--input", "data/goldfish.csv"]
        plain = run_cli(argv)
        assert plain.returncode == 0
        for value in ("0.5", "lots"):
            proc = run_cli(argv, env_extra={"QCM_TOLERANCE": value})
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, plain.stdout, "")

    @pytest.mark.parametrize("source", ["flag", "manifest"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.0", "-5"])
    def test_non_positive_or_non_finite_tolerance_rejected(self, tmp_path, capsys, source, value):
        goldfish = str(DATA_DIR / "goldfish.csv")
        if source == "flag":
            argv = ["classicality", "--input", goldfish, f"--tolerance={value}"]
        else:  # a manifest run's key goes through the same flag
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps({"runs": [
                {"command": "classicality", "input": goldfish, "tolerance": value},
            ]}))
            argv = ["report", "--manifest", str(manifest)]
        assert main([*argv, "--output", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tolerance must be a finite number > 0" in captured.err

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_fock_fit_tolerance_never_widens_the_solution_set(self, tmp_path, capsys, output):
        # the target sits 0.0007 below everything the model can reach, inside
        # --tolerance 0.001: a feasible verdict over an empty solution set
        table = tmp_path / "table.csv"
        table.write_text("exemplar,muA,muB,muAandB\nx,0.222,0.749,0.077\n")
        argv = ["fock-fit", "--input", str(table), "--tolerance", "0.001", "--output", output]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if output == "json":
            jsonschema.validate(json.loads(out), load_schema("fock_fit_report.json"))
        else:
            assert "nan" not in out
            assert "feasible: yes" in out
            assert "solution set: empty (no exact solution; attainable range" in out

    @pytest.mark.parametrize("source", ["flag", "manifest"])
    def test_stats_fit_has_no_tolerance(self, tmp_path, capsys, source):
        uniform = str(DATA_DIR / "uniform11.json")
        if source == "flag":
            argv = ["stats-fit", "--input", uniform, "--tolerance", "0.5"]
            message = "unrecognized arguments: --tolerance 0.5"
        else:
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps({"runs": [
                {"command": "stats-fit", "input": uniform, "tolerance": -3},
            ]}))
            argv = ["report", "--manifest", str(manifest)]
            message = "manifest run 1: stats-fit has no flag for keys ['tolerance']"
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("source", ["flag", "manifest"])
    def test_general_fit_has_no_policy(self, tmp_path, capsys, source):
        goldfish = str(DATA_DIR / "goldfish.csv")
        if source == "flag":
            argv = ["fock-fit", "--input", goldfish, "--mode", "general", "--policy", "min-m2"]
        else:
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps({"runs": [
                {"command": "fock-fit", "input": goldfish, "mode": "general", "policy": "min-m2"},
            ]}))
            argv = ["report", "--manifest", str(manifest)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--policy applies only to --mode two-sector" in captured.err

    def test_unknown_flag_shows_the_command_usage(self, capsys):
        argv = ["stats-fit", "--input", str(DATA_DIR / "uniform11.json"), "--tolerance", "0.5"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qcm stats-fit ")
        assert "unrecognized arguments: --tolerance 0.5" in err


class TestReportManifest:
    def test_paths_resolve_relative_to_manifest(self, tmp_path):
        proc_here = run_cli(["report", "--manifest", "data/report_manifest.json"])
        proc_there = run_cli(
            ["report", "--manifest", str(REPO_ROOT / "data/report_manifest.json")],
            cwd=str(tmp_path),
        )
        assert proc_there.returncode == 0, proc_there.stderr
        assert proc_there.stdout == proc_here.stdout

    def test_unknown_manifest_command_rejected(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [{"command": "launch", "input": "x"}]}))
        proc = run_cli(["report", "--manifest", str(manifest)])
        assert proc.returncode == 1
        assert "launch" in proc.stderr

    def test_malformed_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("{not json")
        proc = run_cli(["report", "--manifest", str(manifest)])
        assert proc.returncode == 1

    def test_usage_error_in_a_run_repeats_exactly(self, tmp_path, capsys):
        # every run reuses the process's one parser; its errors must not drift
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [
            {"command": "fock-fit", "input": str(DATA_DIR / "hampton.csv"), "mode": "bogus"},
        ]}))
        errors = []
        for _ in range(2):
            assert main(["report", "--manifest", str(manifest)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("usage: qcm fock-fit ")
        assert errors[0].endswith(
            "qcm fock-fit: error: manifest run 1: argument --mode: invalid choice: 'bogus' "
            "(choose from 'two-sector', 'general')\n"
        )
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("run, message", [
        ({"command": "classicality", "tolerance": -3},
         "--tolerance must be a finite number > 0, got -3.0"),
        ({"command": "fock-fit", "mode": "general", "policy": "min-m2"},
         "--policy applies only to --mode two-sector"),
    ], ids=["data-error", "usage-error"])
    def test_error_inside_a_run_names_the_run(self, tmp_path, capsys, run, message):
        goldfish = str(DATA_DIR / "goldfish.csv")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [
            {"command": "classicality", "input": goldfish}, {**run, "input": goldfish},
        ]}))
        assert main(["report", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qcm: error: manifest run 2: {message}\n"

    def test_io_error_inside_a_run_names_the_run(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [
            {"command": "classicality", "input": str(DATA_DIR / "goldfish.csv")},
            {"command": "fock-fit", "input": "nonexist.csv"},
        ]}))
        assert main(["report", "--manifest", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "qcm: i/o error: manifest run 2: [Errno 2] No such file or directory: "
            f"{str(tmp_path / 'nonexist.csv')!r}\n"
        )

    def test_run_confidence_reaches_the_report(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [
            {"command": "classicality", "input": str(DATA_DIR / "negation_demo.csv"),
             "confidence": 0.5},
        ]}))
        assert main(["report", "--manifest", str(manifest), "--output", "json"]) == 0
        statistics = json.loads(capsys.readouterr().out)["runs"][0]["report"]["profileStatistics"]
        assert statistics["confidence"] == 0.5

    @pytest.mark.parametrize("key, value", [("output", "json"), ("plot", "run.svg")])
    def test_report_flags_are_not_run_keys(self, tmp_path, capsys, key, value):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [
            {"command": "stats-fit", "input": str(DATA_DIR / "uniform11.json"), key: value},
        ]}))
        assert main(["report", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"qcm: error: manifest run 1: {key!r} is set on qcm report, not per run\n"
        )

    @pytest.mark.parametrize("value", [None, True, [0.5], {"x": 1}])
    def test_run_values_are_strings_or_numbers(self, tmp_path, capsys, value):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [
            {"command": "stats-fit", "input": str(DATA_DIR / "uniform11.json"),
             "tolerance": value},
        ]}))
        assert main(["report", "--manifest", str(manifest)]) == 1
        assert "manifest run 1: 'tolerance' must be a string or a number" in capsys.readouterr().err

    def test_run_keys_are_full_flag_names(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [
            {"command": "classicality", "input": str(DATA_DIR / "goldfish.csv"), "tol": 0.5},
        ]}))
        assert main(["report", "--manifest", str(manifest)]) == 1
        assert "manifest run 1: classicality has no flag for keys ['tol']" in (
            capsys.readouterr().err
        )


_TABLE = str(DATA_DIR / "animal_acts_table.json")
_RECORD = {"exemplar": "x", "muA": 0.5, "muB": 0.5, "muAandB": 0.2}


@pytest.mark.parametrize(
    "argv, document, path",
    [
        (["classicality", "--input", "{doc}"], [_RECORD], (0,)),
        (["chsh", "--input", "{doc}"], "animal_acts_table.json", ()),
        (["chsh", "--input", "{doc}"], "animal_acts_table.json", ("ABp", 2)),
        (["stats-fit", "--input", "{doc}"], "uniform11.json", ()),
        (["chsh", "--input", _TABLE, "--model", "{doc}"], "animal_acts_model.json", ()),
        (["chsh", "--input", _TABLE, "--model", "{doc}"], "animal_acts_model.json",
         ("operators",)),
        (["chsh", "--input", _TABLE, "--model", "{doc}"], "animal_acts_model.json",
         ("state", 1)),
        (["report", "--manifest", "{doc}"], "report_manifest.json", ()),
        (["report", "--manifest", "{doc}"], "report_manifest.json", ("runs", 0)),
    ],
    ids=[
        "membership-record", "coincidence-table", "coincidence-outcome", "count-dataset",
        "model", "model-operators", "model-complex-number", "manifest", "manifest-run",
    ],
)
def test_unknown_key_in_any_document_is_named(tmp_path, capsys, argv, document, path):
    # one key rule: a misspelled key exits 1 and is named, never silently ignored
    if isinstance(document, str):
        document = json.loads((DATA_DIR / document).read_text(encoding="utf-8"))
    target = document
    for step in path:
        target = target[step]
    target["tolerence"] = 0.5
    (tmp_path / "doc.json").write_text(json.dumps(document))
    assert main([arg.replace("{doc}", str(tmp_path / "doc.json")) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'tolerence'" in captured.err


@pytest.mark.parametrize(
    "argv, document, path, key, what",
    [
        (["classicality", "--input", "{doc}"], [_RECORD], (0,), "muA", "membership table"),
        (["chsh", "--input", "{doc}"], "animal_acts_table.json", ("ABp", 2), "p",
         "coincidence table"),
        (["stats-fit", "--input", "{doc}"], "uniform11.json", (), "N", "count dataset"),
        (["chsh", "--input", _TABLE, "--model", "{doc}"], "animal_acts_model.json", (),
         "state", "hilbert model"),
        (["report", "--manifest", "{doc}"],
         {"runs": [{"command": "stats-fit", "input": str(DATA_DIR / "uniform11.json")}]}, (),
         "runs", "manifest"),
    ],
    ids=["membership-record", "coincidence-outcome", "count-dataset", "model", "manifest"],
)
def test_repeated_key_in_any_document_is_named(tmp_path, capsys, argv, document, path, key,
                                               what):
    # json.loads alone keeps the last of two equal keys; repeating one, even with
    # the same value, exits 1 and names the key and the document
    if isinstance(document, str):
        document = json.loads((DATA_DIR / document).read_text(encoding="utf-8"))
    target = document
    for step in path:
        target = target[step]
    target["REPEAT"] = None
    text = json.dumps(document).replace('"REPEAT": null', f'"{key}": {json.dumps(target[key])}')
    (tmp_path / "doc.json").write_text(text)
    assert main([arg.replace("{doc}", str(tmp_path / "doc.json")) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{what}: duplicate key '{key}'" in captured.err


def _data(name: str):
    return json.loads((DATA_DIR / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv, stdin, manifest, message",
    [
        (["report", "--manifest", "-"], {"runs": [{"command": "classicality", "input": "-"}]},
         None, "manifest run 1: input '-' reads stdin again"),
        (["report", "--manifest", "-"],
         {"runs": [{"command": "chsh", "input": _TABLE, "model": "-"}]},
         None, "manifest run 1: model '-' reads stdin again"),
        (["report", "--manifest", "{doc}"], _data("uniform11.json"),
         {"runs": [{"command": "stats-fit", "input": "-"},
                   {"command": "classicality", "input": "-"}]},
         "manifest run 2: input '-' reads stdin again"),
        (["chsh", "--input", "-", "--model", "-"], _data("animal_acts_table.json"),
         None, "--input and --model cannot both read stdin"),
    ],
    ids=["manifest-then-input", "manifest-then-model", "two-runs", "chsh-input-and-model"],
)
def test_stdin_is_read_once(tmp_path, monkeypatch, capsys, argv, stdin, manifest, message):
    # stdin holds one document; a second read would find it exhausted, an empty input
    (tmp_path / "doc.json").write_text(json.dumps(manifest))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    assert main([arg.replace("{doc}", str(tmp_path / "doc.json")) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"qcm: error: {message}" in captured.err


_FOCK_FIT_USAGE = (
    "usage: qcm fock-fit [-h] --input INPUT [--mode {two-sector,general}]\n"
    "                    [--policy {min-interference,min-m2}]\n"
    "                    [--tolerance TOLERANCE] [--output {text,json}]\n"
    "                    [--plot SVG_PATH]\n"
)
_BAD_MODE = "argument --mode: invalid choice: 'bogus' (choose from 'two-sector', 'general')"


@pytest.mark.parametrize(
    "argv, stdin, code, err",
    [
        ([], None, 1, "usage: qcm [-h] command ...\nqcm: error: a command is required\n"),
        (["launch"], None, 1,
         "usage: qcm [-h] command ...\nqcm: error: argument command: invalid choice: 'launch' "
         "(choose from 'classicality', 'fock-fit', 'chsh', 'stats-fit', 'report')\n"),
        (["stats-fit", "--input", "data/uniform11.json", "--tolerance", "0.5"], None, 1,
         "usage: qcm stats-fit [-h] --input INPUT [--output {text,json}]\n"
         "                     [--plot SVG_PATH]\n"
         "qcm stats-fit: error: unrecognized arguments: --tolerance 0.5\n"),
        (["fock-fit", "--input", "data/hampton.csv", "--mode", "bogus"], None, 1,
         f"{_FOCK_FIT_USAGE}qcm fock-fit: error: {_BAD_MODE}\n"),
        (["fock-fit", "--input", "data/goldfish.csv", "--mode", "general", "--policy", "min-m2"],
         None, 1, "qcm: error: --policy applies only to --mode two-sector\n"),
        (["chsh", "--input", "-", "--model", "-"], {}, 1,
         "qcm: error: --input and --model cannot both read stdin\n"),
        (["report", "--manifest", "-"], {"runs": [{"command": "classicality", "input": "-"}]}, 1,
         "qcm: error: manifest run 1: input '-' reads stdin again\n"),
        (["report", "--manifest", "-"],
         {"runs": [{"command": "stats-fit", "input": "data/uniform11.json", "tolerance": 0.5}]}, 1,
         "qcm: error: manifest run 1: stats-fit has no flag for keys ['tolerance']\n"),
        (["report", "--manifest", "-"],
         {"runs": [{"command": "fock-fit", "input": "data/hampton.csv", "mode": "bogus"}]}, 1,
         f"{_FOCK_FIT_USAGE}qcm fock-fit: error: manifest run 1: {_BAD_MODE}\n"),
        (["report", "--manifest", "-"],
         {"runs": [{"command": "classicality", "input": "data/goldfish.csv", "name": 5}]}, 1,
         "qcm: error: manifest run 1: 'name' must be a string, got 5\n"),
        (["stats-fit", "--input", "-"], {"category": "c", "N": 0, "observed": [1]}, 1,
         "qcm: error: count dataset 0: dataset 'c': N must be an integer >= 1, got 0\n"),
        (["stats-fit", "--input", "-"], {"category": "c", "N": 1100, "observed": [1] + [0] * 1100},
         1, "qcm: error: the MB family needs N <= 1029, got N = 1100\n"),
        (["classicality", "--input", "missing.csv"], None, 2,
         "qcm: i/o error: [Errno 2] No such file or directory: 'missing.csv'\n"),
    ],
    ids=["no-command", "unknown-command", "unknown-subcommand-flag", "bad-mode",
         "policy-with-general", "chsh-stdin-twice", "run-reads-stdin-again", "run-unknown-key",
         "run-bad-mode", "run-name-not-a-string", "data-error", "mb-past-its-limit", "io-error"],
)
def test_error_line_is_pinned_byte_for_byte(tmp_path, monkeypatch, capsys, argv, stdin, code, err):
    # argparse wraps usage text to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


class TestRequiredSubstrings:
    def test_chsh_value_line(self):
        proc = run_cli(["chsh", "--input", "data/animal_acts_table.json"])
        assert "CHSH = 2.421" in proc.stdout

    def test_stats_winner_line(self):
        proc = run_cli(["stats-fit", "--input", "data/uniform11.json"])
        assert "winner BE" in proc.stdout

    def test_flags_are_spelled_in_full(self, capsys):
        argv = ["classicality", "--input", str(DATA_DIR / "goldfish.csv"), "--tol", "0.5"]
        assert main(argv) == 1
        assert "unrecognized arguments: --tol 0.5" in capsys.readouterr().err

    def test_fock_fit_has_no_seed_flag(self, capsys):
        argv = ["fock-fit", "--input", str(DATA_DIR / "goldfish.csv"), "--mode", "general"]
        assert main([*argv, "--seed", "7"]) == 1
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_negative_zero_never_printed(self):
        # formatting rounds tiny negatives to -0.0000 unless normalized
        proc = run_cli(["fock-fit", "--input", "data/hampton.csv"])
        assert "-0.0000" not in proc.stdout


# every bundled input with the invocations that read it; "{}" is the mutated copy
_FUZZ_TARGETS = {
    "goldfish.csv": [
        ["classicality", "--input", "{}"],
        ["fock-fit", "--input", "{}", "--mode", "general"],
    ],
    "hampton.csv": [["fock-fit", "--input", "{}"], ["classicality", "--input", "{}"]],
    "negation_demo.csv": [
        ["classicality", "--input", "{}"],
        ["fock-fit", "--input", "{}", "--mode", "general"],
    ],
    "animal_acts_table.json": [["chsh", "--input", "{}"], ["stats-fit", "--input", "{}"]],
    "animal_acts_model.json": [
        ["chsh", "--input", "{dir}/animal_acts_table.json", "--model", "{}"],
    ],
    "uniform11.json": [["stats-fit", "--input", "{}"], ["classicality", "--input", "{}"]],
    "mb_exact_n9.json": [["stats-fit", "--input", "{}"]],
    "report_manifest.json": [["report", "--manifest", "{}"]],
}

_MUTATION = st.tuples(
    st.sampled_from(("replace", "insert", "delete")),
    st.integers(min_value=0, max_value=4096),
    st.binary(min_size=1, max_size=3),
)


def _mutate(raw: bytes, mutations) -> bytes:
    for kind, position, chunk in mutations:
        at = position % (len(raw) + 1)
        if kind == "replace":
            raw = raw[:at] + chunk + raw[at + len(chunk):]
        elif kind == "insert":
            raw = raw[:at] + chunk + raw[at:]
        else:
            raw = raw[:at] + raw[at + len(chunk):]
    return raw


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A copy of the bundled data, so mutated manifests resolve their inputs."""
    target = tmp_path_factory.mktemp("fuzz")
    for name in _FUZZ_TARGETS:
        shutil.copy(DATA_DIR / name, target / name)
    return target


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(_FUZZ_TARGETS)),
    pick=st.integers(min_value=0, max_value=1),
    mutations=st.lists(_MUTATION, min_size=1, max_size=4),
    output=st.sampled_from(("text", "json")),
)
def test_mutated_inputs_exit_cleanly(fuzz_dir, name, pick, mutations, output):
    """Malformed bytes, including invalid UTF-8, end in exit 0, 1 or 2, never a traceback."""
    mutated = fuzz_dir / f"mutated.{name.rsplit('.', 1)[1]}"
    mutated.write_bytes(_mutate((DATA_DIR / name).read_bytes(), mutations))
    runs = _FUZZ_TARGETS[name]
    argv = [
        arg.replace("{dir}", str(fuzz_dir)).replace("{}", str(mutated))
        for arg in runs[pick % len(runs)]
    ]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main([*argv, "--output", output]) in (0, 1, 2)
