"""Command-line interface: golden outputs, schemas, exit codes, environment."""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from conftest import (
    DATA_DIR,
    GOLDEN_PLOT,
    GOLDEN_RUNS,
    REPO_ROOT,
    assert_matches_golden,
    run_cli,
)
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


def load_schema(name):
    text = resources.files("qcm").joinpath("schemas", name).read_text(encoding="utf-8")
    return json.loads(text)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_RUNS))
def test_text_output_matches_golden(golden_name):
    proc = run_cli(GOLDEN_RUNS[golden_name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert_matches_golden(golden_name, proc.stdout)


def test_plot_output_matches_golden(tmp_path):
    svg_name, args = GOLDEN_PLOT
    target = tmp_path / "plot.svg"
    proc = run_cli([*args, "--plot", str(target)])
    assert proc.returncode == 0, proc.stderr
    assert_matches_golden(svg_name, target.read_text(encoding="utf-8"))


def test_plot_output_is_deterministic(tmp_path):
    first = tmp_path / "one.svg"
    second = tmp_path / "two.svg"
    for target in (first, second):
        proc = run_cli(["chsh", "--input", "data/animal_acts_table.json", "--plot", str(target)])
        assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("schema_name,args", JSON_SCHEMA_RUNS)
def test_json_output_validates_against_schema(schema_name, args):
    proc = run_cli([*args, "--output", "json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema(schema_name))


def test_json_payload_structure():
    proc = run_cli(
        ["classicality", "--input", "data/goldfish.csv", "--output", "json"]
    )
    payload = json.loads(proc.stdout)
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


class TestStdinAndFormats:
    def test_stdin_labeled_in_header(self):
        text = DATA_DIR.joinpath("goldfish.csv").read_text()
        proc = run_cli(["classicality", "--input", "-"], stdin_text=text)
        assert proc.returncode == 0
        assert proc.stdout.startswith("classicality report: stdin")

    def test_format_flag_overrides_extension(self, tmp_path):
        records = json.loads(
            '[{"exemplar": "x", "muA": 0.87, "muB": 0.81, "muAandB": 0.9}]'
        )
        path = tmp_path / "table.txt"
        path.write_text(json.dumps(records))
        proc = run_cli(["classicality", "--input", str(path), "--format", "json"])
        assert proc.returncode == 0
        assert "conjunction: violated" in proc.stdout

    def test_json_extension_autodetected(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('[{"exemplar": "x", "muA": 0.5, "muB": 0.5, "muAorB": 0.6}]')
        proc = run_cli(["classicality", "--input", str(path)])
        assert proc.returncode == 0
        assert "disjunction: satisfied" in proc.stdout


class TestToleranceControls:
    def test_env_variable_loosens_verdict(self):
        strict = run_cli(["classicality", "--input", "data/goldfish.csv"])
        loose = run_cli(
            ["classicality", "--input", "data/goldfish.csv"],
            env_extra={"QCM_TOLERANCE": "0.5"},
        )
        assert "conjunction: violated" in strict.stdout
        assert "conjunction: satisfied" in loose.stdout

    def test_flag_beats_environment(self):
        proc = run_cli(
            ["classicality", "--input", "data/goldfish.csv", "--tolerance", "1e-9"],
            env_extra={"QCM_TOLERANCE": "0.5"},
        )
        assert "conjunction: violated" in proc.stdout

    def test_bad_env_value_is_usage_error(self):
        proc = run_cli(
            ["classicality", "--input", "data/goldfish.csv"],
            env_extra={"QCM_TOLERANCE": "lots"},
        )
        assert proc.returncode == 1

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.0", "-5"])
    def test_non_positive_or_non_finite_tolerance_rejected(
        self, monkeypatch, capsys, source, value
    ):
        argv = ["classicality", "--input", str(DATA_DIR / "goldfish.csv"), "--output", "json"]
        if source == "flag":
            argv.append(f"--tolerance={value}")
        else:
            monkeypatch.setenv("QCM_TOLERANCE", value)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err.lower()


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


class TestRequiredSubstrings:
    def test_chsh_value_line(self):
        proc = run_cli(["chsh", "--input", "data/animal_acts_table.json"])
        assert "CHSH = 2.421" in proc.stdout

    def test_stats_winner_line(self):
        proc = run_cli(["stats-fit", "--input", "data/uniform11.json"])
        assert "winner BE" in proc.stdout

    def test_general_fit_seed_is_only_echoed(self, capsys):
        args = ["fock-fit", "--input", str(DATA_DIR / "goldfish.csv"), "--mode", "general"]
        for output, echo in (("text", "seed: {}"), ("json", '"seed": {},')):
            assert main([*args, "--seed", "0", "--output", output]) == 0
            zero = capsys.readouterr().out
            assert main([*args, "--seed", "7", "--output", output]) == 0
            seven = capsys.readouterr().out
            assert echo.format(0) in zero
            assert seven == zero.replace(echo.format(0), echo.format(7), 1)

    def test_negative_zero_never_printed(self):
        # formatting rounds tiny negatives to -0.0000 unless normalized
        proc = run_cli(["fock-fit", "--input", "data/hampton.csv"])
        assert "-0.0000" not in proc.stdout
