"""Command-line interface: golden outputs, schemas, exit codes, environment."""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    GOLDEN_PAYLOAD_RUNS,
    GOLDEN_PLOT,
    GOLDEN_RUNS,
    REPO_ROOT,
    assert_matches_golden,
    run_cli,
)
from qcm import cli
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
def test_text_output_matches_golden(golden_name):
    proc = run_cli(GOLDEN_RUNS[golden_name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert_matches_golden(golden_name, proc.stdout)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_PAYLOAD_RUNS))
def test_payload_output_matches_golden(golden_name, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.delenv("QCM_TOLERANCE", raising=False)
    assert main(GOLDEN_PAYLOAD_RUNS[golden_name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert_matches_golden(golden_name, captured.out)


def test_plot_output_matches_golden(tmp_path):
    svg_name, args = GOLDEN_PLOT
    target = tmp_path / "plot.svg"
    proc = run_cli([*args, "--plot", str(target)])
    assert proc.returncode == 0, proc.stderr
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
    monkeypatch.delenv("QCM_TOLERANCE", raising=False)
    target = tmp_path / "plot.svg"
    assert main([*PLOT_GOLDENS[svg_name], "--plot", str(target)]) == 0
    assert capsys.readouterr().err == ""
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
            ("classicality", "[" * 100_000 + "]" * 100_000),
            ("report", '{"runs": [{"command": ["chsh"], "input": "x"}]}'),
            ("report", '{"runs": [{"command": "chsh", "input": "x\\u0000"}]}'),
            ("report", '{"runs": [{"command": "chsh", "input": "x", "name": NaN}]}'),
        ],
        ids=[
            "observed-not-array", "observed-null", "observed-string", "observed-huge-int",
            "weight-huge-int", "lone-surrogate", "deep-nesting", "command-array", "path-nul",
            "name-not-string",
        ],
    )
    def test_malformed_values_are_data_errors(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        flag = "--manifest" if command == "report" else "--input"
        assert main([command, flag, str(path)]) == 1
        assert capsys.readouterr().err.startswith("qcm: error: ")

    @pytest.mark.parametrize("value", ["abc", None, [0.5]])
    def test_malformed_coincidence_probability_is_data_error(self, tmp_path, capsys, value):
        table = json.loads((DATA_DIR / "animal_acts_table.json").read_text())
        table["AB"][0]["p"] = value
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        assert main(["chsh", "--input", str(path)]) == 1
        assert "block AB" in capsys.readouterr().err

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
            "qcm fock-fit: error: argument --mode: invalid choice: 'bogus' "
            "(choose from 'two-sector', 'general')\n"
        )
        assert cli._build_parser() is cli._build_parser()


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


# every bundled input with the invocations that read it; "{}" is the mutated copy
_FUZZ_TARGETS = {
    "goldfish.csv": [
        ["classicality", "--input", "{}"],
        ["fock-fit", "--input", "{}", "--mode", "general"],
    ],
    "hampton.csv": [["fock-fit", "--input", "{}"], ["classicality", "--input", "{}"]],
    "negation_demo.csv": [
        ["classicality", "--input", "{}", "--format", "json"],
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
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("QCM_TOLERANCE", raising=False)
        yield target


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
