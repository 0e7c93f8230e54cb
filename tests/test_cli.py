"""End-to-end tests for the command line: argument handling, the three
output formats, the JSON schema contract, and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import hypertail
from hypertail import BoundFamily, concentration_bound, tail_bound
from hypertail.cli import run

SCHEMA = json.loads(
    resources.files("hypertail").joinpath("schemas/output_record.schema.json").read_text()
)

PMF_ARGS = [
    "pmf",
    "--population", "10",
    "--positives", "7",
    "--samples", "5",
    "--observed", "3",
]


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    record = json.loads(captured.out)
    jsonschema.validate(record, SCHEMA)
    return record


def rebuild_argv(record):
    """Reconstruct the argv that produces `record` from its inputs echo."""
    argv = [record["command"]]
    for key, value in record["inputs"].items():
        flag = "--" + key.replace("_", "-")
        if value is None:
            continue
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            for item in value:
                argv.extend([flag, str(item)])
        else:
            argv.extend([flag, str(value)])
    return argv + ["--digits", str(record["digits"])]


class TestExitCodes:
    def test_success(self, capsys):
        assert run(PMF_ARGS) == 0
        assert capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "hypertail" in capsys.readouterr().out

    def test_missing_argument(self, capsys):
        assert run(["pmf", "--population", "10"]) == 2

    def test_unknown_command(self, capsys):
        assert run(["nonsense"]) == 2

    def test_domain_error_names_the_constraint(self, capsys):
        argv = list(PMF_ARGS)
        argv[argv.index("--samples") + 1] = "20"
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "n must satisfy" in err

    def test_population_beyond_float_squares(self, capsys):
        # N = 10^200: N * N overflows a float, but the vacuous delta does not.
        argv = ["confidence", "--population", str(10**200), "--samples", "10",
                "--observed", "1", "--halfwidth", "5"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "delta = 1\n" in out and "vacuous" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["ci", "--samples", "10", "--observed", "1", "--delta", "0.05"],
            ["confidence", "--samples", "10", "--observed", "1", "--halfwidth", "5"],
            ["samplesize", "--delta", "0.05", "--halfwidth", str(10**300)],
        ],
        ids=["ci", "confidence", "samplesize"],
    )
    def test_population_beyond_the_float_range(self, capsys, argv):
        assert run(argv + ["--population", str(10**400)]) == 2
        assert capsys.readouterr().err == (
            "error: the closed forms compute in floats and take N up to about 1.8e308\n"
        )

    def test_rejects_out_of_range_digits(self, capsys):
        assert run(PMF_ARGS + ["--digits", "0"]) == 2
        assert run(PMF_ARGS + ["--digits", "18"]) == 2

    def test_bound_kl_requires_positives(self, capsys):
        assert (
            run(
                [
                    "bound",
                    "--population", "10",
                    "--samples", "5",
                    "--deviation", "1.5",
                    "--family", "kl",
                ]
            )
            == 2
        )
        assert "M" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, values",
        [("delta", ["0.2", "0.2", "0.001"]), ("deviation", ["2", "2.0000001"])],
        ids=["repeated-delta", "colliding-deviation"],
    )
    def test_simulate_rejects_values_with_one_result_name(self, capsys, flag, values):
        # Results are keyed coverage_{delta:g} / exceedance_{deviation:g};
        # two values with one name would overwrite each other.
        argv = [
            "simulate",
            "--population", "60", "--positives", "24", "--samples", "30",
            "--trials", "200", "--seed", "1",
        ]
        for value in values:
            argv += ["--" + flag, value]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--" + flag in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["simulate", "--population", "2000000000", "--positives", "1000000000",
                 "--samples", "10", "--trials", "10", "--delta", "0.05"],
                "must each be below 10^9",
            ),
            (
                ["simulate", "--population", "10", "--positives", "7", "--samples", "5",
                 "--trials", "1000000000000000", "--delta", "0.05"],
                "trials <= 100000000",
            ),
            (
                ["deviation", "--population", "10", "--positives", "7", "--samples", "5",
                 "--deviation", "1e400"],
                "'1e400' lies beyond the float range",
            ),
            (
                ["confidence", "--population", "1000", "--samples", "100",
                 "--observed", "30", "--halfwidth", "1e-400"],
                "c is positive but underflows to 0.0",
            ),
            (
                ["ci", "--population", "1000", "--samples", "100",
                 "--observed", "30", "--delta", "1e-400"],
                "delta lies strictly between 0 and 1 but underflows to 0.0",
            ),
            (
                ["deviation", "--population", "10", "--positives", "7", "--samples", "5",
                 "--deviation", "1/3"],
                "not a finite decimal: '1/3'",
            ),
            (
                ["bound", "--population", "10", "--positives", "11", "--samples", "5",
                 "--deviation", "1"],
                "M must satisfy 0 <= M <= 10, got 11",
            ),
            (
                ["deviation", "--population", "10", "--positives", "7", "--samples", "5",
                 "--deviation", "1e-400"],
                "c is positive but underflows to 0.0",
            ),
            (
                ["bound", "--population", "10", "--samples", "5", "--deviation", "1e-400"],
                "t is positive but underflows to 0.0",
            ),
            (
                ["tail", "--population", "1" + "0" * 400, "--positives", "10",
                 "--samples", "1" + "0" * 399, "--threshold", "1", "--side", "upper",
                 "--mode", "log"],
                "the log path computes in floats and takes n up to about 1.8e308",
            ),
            (
                ["pmf", "--population", "1" + "0" * 30, "--positives", "10",
                 "--samples", "1" + "0" * 20, "--observed", "1", "--mode", "rational"],
                "the rational path takes min(n, N - n) < 2^63",
            ),
        ],
        ids=["sampler-limit", "trial-limit", "beyond-float-range", "halfwidth-underflow",
             "delta-underflow", "not-a-decimal", "bound-positives", "deviation-underflow",
             "bound-underflow", "log-path-limit", "rational-path-limit"],
    )
    def test_diagnostic_names_the_limit(self, capsys, argv, message):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert message in err
        assert "Traceback" not in err


def test_cli_import_loads_no_numpy():
    # Only simulate needs numpy, and it imports it when it runs.
    src = str(Path(hypertail.__file__).parents[1])
    code = "import hypertail.cli, sys; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestFormats:
    def test_text_layout(self, capsys):
        assert run(PMF_ARGS) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "command: pmf"
        assert "inputs:" in lines
        assert "  population = 10" in lines
        assert "results:" in lines
        assert "  probability = 0.416667" in lines
        assert "  probability_exact = 5/12" in lines
        assert "labels:" in lines
        assert "  mode = rational" in lines

    def test_json_layout(self, capsys):
        record = run_json(capsys, PMF_ARGS)
        assert record["command"] == "pmf"
        assert record["inputs"]["population"] == 10
        assert record["results"]["probability"] == "0.416667"
        assert record["results"]["probability_exact"] == "5/12"
        assert record["labels"]["mode"] == "rational"
        assert record["warnings"] == []
        assert record["digits"] == 6

    def test_csv_layout(self, capsys):
        assert run(PMF_ARGS + ["--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2
        header, row = rows
        assert len(header) == len(row)
        data = dict(zip(header, row))
        assert data["command"] == "pmf"
        assert data["input.population"] == "10"
        assert data["result.probability"] == "0.416667"
        assert data["label.mode"] == "rational"
        assert data["digits"] == "6"

    def test_digits_control_precision(self, capsys):
        assert run(PMF_ARGS + ["--digits", "12"]) == 0
        assert "0.416666666667" in capsys.readouterr().out
        # Numbers are rounded; exact rationals and integer counts are not.
        results = run_json(capsys, PMF_ARGS + ["--digits", "1"])["results"]
        assert results["probability"] == "0.4"
        assert results["probability_exact"] == "5/12"
        argv = ["samplesize", "--population", "100", "--delta", "0.05", "--halfwidth", "5"]
        results = run_json(capsys, argv + ["--digits", "1"])["results"]
        assert results["n_required"] == "89"
        assert results["x"] == "4e+02"

    def test_environment_variable_sets_format(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERTAIL_FORMAT", "json")
        assert run(PMF_ARGS) == 0
        json.loads(capsys.readouterr().out)

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERTAIL_FORMAT", "json")
        assert run(PMF_ARGS + ["--format", "text"]) == 0
        assert capsys.readouterr().out.startswith("command:")

    def test_invalid_environment_format(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERTAIL_FORMAT", "yaml")
        assert run(PMF_ARGS) == 2
        assert "HYPERTAIL_FORMAT" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text, csv_text",
        [
            (
                [
                    "simulate",
                    "--population", "10", "--positives", "7", "--samples", "5",
                    "--trials", "400", "--seed", "42",
                    "--delta", "0.2", "--delta", "0.05", "--deviation", "1.5",
                ],
                """\
command: simulate
inputs:
  population = 10
  positives = 7
  samples = 5
  trials = 400
  seed = 42
  delta = 0.2, 0.05
  deviation = 1.5
results:
  frequency_2 = 0.08
  frequency_3 = 0.4025
  frequency_4 = 0.46
  frequency_5 = 0.0575
  coverage_0.2 = 1
  coverage_0.05 = 1
  exceedance_1.5 = 0.1375
""",
                "command,input.population,input.positives,input.samples,input.trials,"
                "input.seed,input.delta,input.deviation,result.frequency_2,"
                "result.frequency_3,result.frequency_4,result.frequency_5,"
                "result.coverage_0.2,result.coverage_0.05,result.exceedance_1.5,"
                "warnings,digits\n"
                "simulate,10,7,5,400,42,0.2;0.05,1.5,0.08,0.4025,0.46,0.0575,"
                "1,1,0.1375,,6\n",
            ),
            (
                [
                    "ci",
                    "--population", "1000", "--samples", "100",
                    "--observed", "30", "--delta", "0.05", "--compare",
                ],
                """\
command: ci
inputs:
  population = 1000
  samples = 100
  observed = 30
  delta = 0.05
  compare = true
results:
  estimate = 300
  halfwidth = 128.912
  delta = 0.05
  lower = 171.088
  upper = 428.912
  clamped_lower = 171.088
  clamped_upper = 428.912
  estimate_exact = 300
  legacy_estimate = 300
  legacy_halfwidth = 135.81
  legacy_delta = 0.05
  legacy_lower = 164.19
  legacy_upper = 435.81
  legacy_clamped_lower = 164.19
  legacy_clamped_upper = 435.81
labels:
  formula = C1
  legacy_formula = B1
""",
                "command,input.population,input.samples,input.observed,input.delta,"
                "input.compare,result.estimate,result.halfwidth,result.delta,"
                "result.lower,result.upper,result.clamped_lower,result.clamped_upper,"
                "result.estimate_exact,result.legacy_estimate,result.legacy_halfwidth,"
                "result.legacy_delta,result.legacy_lower,result.legacy_upper,"
                "result.legacy_clamped_lower,result.legacy_clamped_upper,"
                "label.formula,label.legacy_formula,warnings,digits\n"
                "ci,1000,100,30,0.05,true,300,128.912,0.05,171.088,428.912,171.088,"
                "428.912,300,300,135.81,0.05,164.19,435.81,164.19,435.81,C1,B1,,6\n",
            ),
            (
                ["bound", "--population", "1000", "--samples", "100", "--deviation", "5"],
                """\
command: bound
inputs:
  population = 1000
  positives = None
  samples = 100
  deviation = 5.0
  family = auto
  two_sided = false
results:
  value = 0.574107
  exponent = -0.554939
  fraction = 0.05
labels:
  family = b2
  two_sided = false
""",
                "command,input.population,input.positives,input.samples,"
                "input.deviation,input.family,input.two_sided,result.value,"
                "result.exponent,result.fraction,label.family,label.two_sided,"
                "warnings,digits\n"
                "bound,1000,,100,5.0,auto,false,0.574107,-0.554939,0.05,b2,false,,6\n",
            ),
        ],
        ids=["simulate-lists", "ci-compare-bool", "bound-none"],
    )
    def test_rendered_bytes(self, capsys, argv, text, csv_text):
        # Lists join with ", " in text and ";" in CSV, bools print in
        # lower case, and None prints as None in text and empty in CSV.
        assert run(argv + ["--format", "text"]) == 0
        assert capsys.readouterr().out == text
        assert run(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == csv_text


class TestSchemaAndRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            PMF_ARGS,
            PMF_ARGS + ["--mode", "log"],
            [
                "tail",
                "--population", "10", "--positives", "7",
                "--samples", "5", "--threshold", "1", "--side", "lower",
            ],
            [
                "deviation",
                "--population", "10", "--positives", "7",
                "--samples", "5", "--deviation", "1.5",
            ],
            [
                "bound",
                "--population", "10", "--samples", "5",
                "--deviation", "1.5", "--family", "b2", "--two-sided",
            ],
            [
                "bound",
                "--population", "10", "--positives", "7",
                "--samples", "5", "--deviation", "1.5", "--family", "kl",
            ],
            [
                "ci",
                "--population", "17793691", "--samples", "100000",
                "--observed", "5720", "--delta", "0.05", "--compare",
            ],
            [
                "confidence",
                "--population", "17793691", "--samples", "100000",
                "--observed", "5720", "--halfwidth", "62278", "--compare",
            ],
            [
                "confidence",
                "--population", "100", "--samples", "80",
                "--observed", "40", "--halfwidth-percent", "10",
            ],
            [
                "samplesize",
                "--population", "100", "--delta", "0.05", "--halfwidth", "5",
            ],
            [
                "samplesize",
                "--population", "100", "--delta", "0.05", "--halfwidth-percent", "5",
            ],
            [
                "samplesize",
                "--population", "100000000000000000", "--delta", "0.05",
                "--halfwidth", "99999999999999999",
            ],
            [
                "simulate",
                "--population", "10", "--positives", "7", "--samples", "5",
                "--trials", "400", "--seed", "42",
                "--delta", "0.2", "--deviation", "1.5",
            ],
        ],
        ids=[
            "pmf", "pmf-log", "tail", "deviation", "bound-two-sided",
            "bound-kl", "ci-compare", "confidence", "confidence-percent",
            "samplesize", "samplesize-percent", "samplesize-beyond-2^53", "simulate",
        ],
    )
    def test_record_validates_and_inputs_reproduce_it(self, capsys, argv):
        record = run_json(capsys, argv)
        again = run_json(capsys, rebuild_argv(record))
        assert again == record


class TestSubcommandResults:
    def test_tail_lower(self, capsys):
        # At least 2 positives are forced (only 3 negatives exist), so
        # P[i <= 2] collapses to the single outcome i = 2.
        record = run_json(
            capsys,
            [
                "tail",
                "--population", "10", "--positives", "7",
                "--samples", "5", "--threshold", "2", "--side", "lower",
            ],
        )
        assert record["results"]["probability_exact"] == "1/12"
        assert record["labels"]["side"] == "lower"

    def test_cheap_tail_at_a_large_population_is_exact(self, capsys):
        # "auto" prices the walk at any N: 71 terms of C(10^8, 100) are cheap.
        argv = ["tail", "--population", "100000000", "--positives", "30000000",
                "--samples", "100", "--threshold", "40", "--side", "upper"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  mode = rational" in lines
        assert any(line.startswith("  probability_exact = ") for line in lines)

    def test_deviation_matches_two_sided(self, capsys):
        record = run_json(
            capsys,
            [
                "deviation",
                "--population", "10", "--positives", "7",
                "--samples", "5", "--deviation", "1.5",
            ],
        )
        assert record["results"]["probability_exact"] == "1/6"

    def test_deviation_reads_decimals_exactly(self, capsys):
        # mean nM/N = 1/10, so c = 1/10 puts i = 0 exactly on the
        # boundary: P = 1.  The float 0.1 lies above 1/10 and drops it.
        record = run_json(
            capsys,
            [
                "deviation",
                "--population", "50", "--positives", "1",
                "--samples", "5", "--deviation", "0.1",
            ],
        )
        assert record["results"]["probability_exact"] == "1"
        assert record["inputs"]["deviation"] == 0.1

    def test_bound_fraction_is_deviation_over_samples(self, capsys):
        record = run_json(
            capsys,
            [
                "bound",
                "--population", "10", "--samples", "5",
                "--deviation", "1.5", "--family", "b2", "--two-sided",
            ],
        )
        assert record["results"]["fraction"] == "0.3"
        assert record["results"]["value"] == "0.44626"
        assert record["labels"]["family"] == "b2"
        assert record["labels"]["two_sided"] == "true"

    def test_bound_kl_reads_the_deviation_exactly(self, capsys):
        # t = 2/10 puts p + t at exactly 1: the event i >= 10 has
        # probability 15149909/159277783, about 0.0951, and KL gives
        # 0.8^10.  The float 2.0 / 10 lies above 1/5 and gave 0.
        record = run_json(
            capsys,
            [
                "bound",
                "--population", "100", "--positives", "80",
                "--samples", "10", "--deviation", "2", "--family", "kl",
                "--digits", "17",
            ],
        )
        assert float(record["results"]["value"]) >= 15149909 / 159277783
        assert float(record["results"]["value"]) == pytest.approx(0.8**10, rel=1e-12)
        assert record["inputs"]["deviation"] == 2.0

    def test_bound_vacuous_warning(self, capsys):
        record = run_json(
            capsys,
            [
                "bound",
                "--population", "1000", "--samples", "3",
                "--deviation", "0.001", "--two-sided",
            ],
        )
        assert record["results"]["value"] == "1"
        assert any("vacuous" in w for w in record["warnings"])

    @pytest.mark.parametrize(
        "argv, warnings",
        [
            (
                ["ci", "--population", "1000", "--samples", "100", "--observed", "0",
                 "--delta", "0.05"],
                ["interval clamped to [0, N]"],
            ),
            (
                ["confidence", "--population", "1000", "--samples", "10", "--observed", "3",
                 "--halfwidth", "1", "--compare"],
                ["confidence bound is vacuous (delta clamped to 1)",
                 "legacy confidence bound is vacuous (delta clamped to 1)"],
            ),
        ],
        ids=["ci-clamped", "confidence-vacuous"],
    )
    def test_interval_warnings(self, capsys, argv, warnings):
        assert run_json(capsys, argv)["warnings"] == warnings

    @pytest.mark.parametrize("two_sided", [False, True])
    @pytest.mark.parametrize("samples", [5, 8, 10])
    @pytest.mark.parametrize("family", ["kl", "b1", "b2", "b3", "b4", "auto"])
    def test_bound_calls_the_library(self, capsys, family, samples, two_sided):
        argv = [
            "bound",
            "--population", "10", "--positives", "7",
            "--samples", str(samples), "--deviation", "1.5",
            "--family", family, "--digits", "17",
        ] + (["--two-sided"] if two_sided else [])
        if family in ("b3", "b4") and samples == 10:
            assert run(argv) == 2
            assert "n < N" in capsys.readouterr().err
            return
        record = run_json(capsys, argv)
        bound = concentration_bound if two_sided else tail_bound
        res = bound(10, samples, 1.5 / samples, BoundFamily(family), M=7)
        assert record["results"]["value"] == f"{res.value:.17g}"
        assert record["results"]["exponent"] == f"{res.exponent:.17g}"
        assert record["labels"]["family"] == res.family_used.value

    def test_samplesize_survives_overflowing_scale(self, capsys):
        record = run_json(
            capsys,
            ["samplesize", "--population", "10", "--delta", "0.05", "--halfwidth", "1e-300"],
        )
        assert record["results"]["n_required"] == "10"

    def test_ci_compare_includes_legacy_interval(self, capsys):
        record = run_json(
            capsys,
            [
                "ci",
                "--population", "17793691", "--samples", "100000",
                "--observed", "5720", "--delta", "0.05", "--compare",
            ],
        )
        results = record["results"]
        assert results["halfwidth"] == "76203.4"
        assert results["legacy_halfwidth"] == "76418.5"
        assert record["labels"]["formula"] == "C1"
        assert record["labels"]["legacy_formula"] == "B1"
        assert float(results["halfwidth"]) < float(results["legacy_halfwidth"])

    def test_confidence_percent_matches_absolute(self, capsys):
        base = [
            "confidence",
            "--population", "1000", "--samples", "100", "--observed", "30",
        ]
        absolute = run_json(capsys, base + ["--halfwidth", "250"])
        percent = run_json(capsys, base + ["--halfwidth-percent", "25"])
        assert absolute["results"]["delta"] == percent["results"]["delta"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["confidence", "--samples", "800", "--observed", "40"],
            ["samplesize", "--delta", "0.05"],
        ],
        ids=["confidence", "samplesize"],
    )
    def test_halfwidth_percent_is_rounded_once(self, capsys, argv):
        # c = 0.3 * 1000003 / 100 = 3000.009 exactly; in floats the
        # product and the quotient each rounded, giving 3000.0089999999996.
        record = run_json(
            capsys,
            argv + ["--population", "1000003", "--halfwidth-percent", "0.3", "--digits", "17"],
        )
        assert record["results"]["halfwidth"] == "3000.009"
        assert record["inputs"]["halfwidth_percent"] == 0.3

    def test_confidence_census_is_certain(self, capsys):
        record = run_json(
            capsys,
            [
                "confidence",
                "--population", "10", "--samples", "10",
                "--observed", "7", "--halfwidth", "2",
            ],
        )
        assert record["results"]["delta"] == "0"
        assert record["labels"]["formula"] == "D2"

    def test_samplesize_report(self, capsys):
        record = run_json(
            capsys,
            ["samplesize", "--population", "100", "--delta", "0.05", "--halfwidth", "5"],
        )
        results = record["results"]
        assert results["n_required"] == "89"
        assert results["x"] == "400"
        assert record["labels"]["regime"] == "S2"
        assert float(results["lower_estimate"]) <= float(results["n_real"])

    def test_simulate_reads_decimals_exactly(self, capsys):
        # As for deviation: every trial has |i - 1/10| >= 1/10.
        record = run_json(
            capsys,
            [
                "simulate",
                "--population", "50", "--positives", "1", "--samples", "5",
                "--trials", "2000", "--seed", "1", "--deviation", "0.1",
            ],
        )
        assert record["results"]["exceedance_0.1"] == "1"
        assert record["inputs"]["deviation"] == [0.1]

    def test_simulate_is_deterministic(self, capsys):
        argv = [
            "simulate",
            "--population", "10", "--positives", "7", "--samples", "5",
            "--trials", "400", "--seed", "42",
            "--delta", "0.2", "--deviation", "1.5",
        ]
        first = run_json(capsys, argv)
        second = run_json(capsys, argv)
        assert first == second
        keys = set(first["results"])
        assert "coverage_0.2" in keys
        assert "exceedance_1.5" in keys
        assert any(k.startswith("frequency_") for k in keys)
        total = sum(
            float(v) for k, v in first["results"].items() if k.startswith("frequency_")
        )
        assert total == pytest.approx(1.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["ci", "--population", str(10**308), "--samples", "1", "--observed", "0",
         "--delta", "1e-300"],
        ["confidence", "--population", str(10**308), "--samples", "2", "--observed", "2",
         "--halfwidth", "1.7e308"],
    ],
    ids=["ci", "confidence"],
)
def test_interval_past_the_largest_float_exits_2(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: this interval passes the largest float, about 1.8e308\n"
    )
