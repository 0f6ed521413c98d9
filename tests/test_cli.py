import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from iofootprint import (
    GeneratorConfig,
    allocation_coefficients,
    attribute_to_demand,
    attribute_to_value_added,
    direct_intensity,
    generate_economy,
    parse_emissions,
    parse_table,
    perturb_inverse,
    serialize_emissions,
    serialize_table,
    systemic_intensity,
    technical_coefficients,
    total_intensity,
    total_intensity_neumann,
    validate_balance,
)
from iofootprint import Economy, EmissionAccount
from iofootprint.cli import run_command
from iofootprint.tableio import write_emissions, write_table

WORKED_TABLE = """\
MU,s1,s2,D,T
s1,100,50,50,200
s2,30,20,50,100
V,70,30,,
T,200,100,,
"""

CORRUPTED_TABLE = """\
MU,s1,s2,D,T
s1,100,50,50,999
s2,30,20,50,100
V,70,30,,
T,999,100,,
"""

EMISSIONS = """\
sector,kt CO2
s1,20
s2,10
"""


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(WORKED_TABLE, encoding="utf-8")
    return str(path)


@pytest.fixture
def emissions(tmp_path):
    path = tmp_path / "emissions.csv"
    path.write_text(EMISSIONS, encoding="utf-8")
    return str(path)


def report_lines(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert run_command([]) == 2

    def test_unknown_flag_is_usage_error(self, table):
        assert run_command(["validate", table, "--frobnicate"]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_command(["transmogrify"]) == 2

    def test_missing_file_is_data_error(self, capsys):
        assert run_command(["validate", "/nonexistent/table.csv"]) == 1
        assert "error.type" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
        capsys.readouterr()


class TestValidate:
    def test_balanced_table(self, table, capsys):
        assert run_command(["validate", table]) == 0
        lines = report_lines(capsys)
        assert lines["balance.ok"] == "true"
        assert lines["balance.max_residual"] == "0"
        assert lines["balance.row_residuals.s1"] == "0"

    def test_corrupted_total_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(CORRUPTED_TABLE, encoding="utf-8")
        assert run_command(["validate", str(path)]) == 1
        lines = report_lines(capsys)
        assert lines["balance.ok"] == "false"

    def test_loose_tolerance_accepts(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(CORRUPTED_TABLE, encoding="utf-8")
        assert run_command(["validate", str(path), "--tol", "10"]) == 0
        capsys.readouterr()


class TestIntensity:
    def test_solve_method(self, table, emissions, capsys):
        assert run_command(["intensity", table, emissions]) == 0
        lines = report_lines(capsys)
        assert lines["intensity.method"] == "solve"
        assert float(lines["intensity.direct.s1"]) == 0.1
        assert float(lines["intensity.total.s1"]) == pytest.approx(
            0.2923076923076923, abs=1e-12
        )
        assert float(lines["intensity.total.s2"]) == pytest.approx(
            0.3076923076923077, abs=1e-12
        )

    def test_neumann_method_matches_solve(self, table, emissions, capsys):
        assert run_command(
            ["intensity", table, emissions, "--method", "neumann"]
        ) == 0
        lines = report_lines(capsys)
        assert int(lines["intensity.terms"]) > 1
        assert float(lines["intensity.total.s1"]) == pytest.approx(
            0.2923076923076923, abs=1e-9
        )

    def test_17_digit_serialization_round_trips(self, table, emissions, capsys):
        run_command(["intensity", table, emissions])
        lines = report_lines(capsys)
        assert float(lines["intensity.total.s1"]) == float(
            format(float(lines["intensity.total.s1"]), ".17g")
        )


class TestAttribute:
    def test_demand_basis(self, table, emissions, capsys):
        assert run_command(["attribute", table, emissions]) == 0
        lines = report_lines(capsys)
        assert lines["attribution.basis"] == "demand"
        assert float(lines["attribution.total_attributed"]) == pytest.approx(
            30.0, abs=1e-10
        )
        assert float(lines["attribution.total_emissions"]) == 30.0
        assert float(lines["attribution.conservation_residual"]) <= 1e-10
        assert float(lines["attribution.per_sector.s1"]) == pytest.approx(
            14.615384615384617, abs=1e-9
        )

    def test_value_added_basis(self, table, emissions, capsys):
        assert run_command(
            ["attribute", table, emissions, "--basis", "value-added"]
        ) == 0
        lines = report_lines(capsys)
        assert float(lines["attribution.total_attributed"]) == pytest.approx(
            30.0, abs=1e-10
        )

    def test_bad_basis_is_usage_error(self, table, emissions):
        assert run_command(
            ["attribute", table, emissions, "--basis", "karma"]
        ) == 2


class TestPerturb:
    def test_report_and_determinism(self, table, capsys):
        argv = ["perturb", table, "--epsilon", "0.01", "--samples", "20",
                "--seed", "5"]
        assert run_command(argv) == 0
        first = report_lines(capsys)
        assert run_command(argv) == 0
        second = report_lines(capsys)
        assert first == second
        assert first["perturbation.seed"] == "5"
        assert first["perturbation.samples"] == "20"
        assert float(first["perturbation.amplification"]) >= 0.0

    def test_epsilon_required(self, table):
        assert run_command(["perturb", table]) == 2

    @pytest.mark.parametrize("epsilon", ["inf", "1e308"])
    def test_epsilon_beyond_the_float_range(self, table, capsys, epsilon):
        assert run_command(["perturb", table, "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        kind, message = captured.err.splitlines()
        assert kind == "error.type = DomainError"
        assert message.startswith("error.message = epsilon must be finite")


class TestGenerate:
    def test_writes_pair(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert run_command(
            ["generate", "--n", "5", "--seed", "7", "--out", str(out)]
        ) == 0
        lines = report_lines(capsys)
        assert (out / "table.csv").exists()
        assert (out / "emissions.csv").exists()
        assert lines["generate.n"] == "5"

    def test_pipeline_closure(self, tmp_path, capsys):
        # generated pairs must validate and attribute cleanly end to end
        out = tmp_path / "gen"
        run_command(["generate", "--n", "5", "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        table = str(out / "table.csv")
        emissions = str(out / "emissions.csv")
        assert run_command(["validate", table]) == 0
        capsys.readouterr()
        assert run_command(["attribute", table, emissions]) == 0
        lines = report_lines(capsys)
        assert float(lines["attribution.conservation_residual"]) <= 1e-10


class TestSizeBounds:
    @pytest.mark.parametrize("argv", [
        ["generate", "--n", "5001", "--out", "unused"],
        ["generate", "--n", "0", "--out", "unused"],
        ["perturb", "unused.csv", "--epsilon", "0.01", "--samples", "100001"],
        ["perturb", "unused.csv", "--epsilon", "0.01", "--samples", "-1"],
    ])
    def test_out_of_range_is_usage_error(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_command(argv) == 2
        assert list(tmp_path.iterdir()) == []


class TestSeedAndToleranceRanges:
    """``--seed`` is any int from 0 up; ``--tol`` any finite float from 0 up."""

    @pytest.mark.parametrize("argv, message", [
        (["perturb", "TABLE", "--epsilon", "0.01", "--seed", "-1"],
         "argument --seed: must lie in 0..inf, got -1"),
        (["generate", "--n", "3", "--seed", "-1", "--out", "OUT"],
         "argument --seed: must lie in 0..inf, got -1"),
        (["validate", "TABLE", "--tol", "nan"],
         "argument --tol: must be finite and at least 0, got nan"),
        (["validate", "TABLE", "--tol", "inf"],
         "argument --tol: must be finite and at least 0, got inf"),
        (["intensity", "TABLE", "EMISSIONS", "--method", "neumann", "--tol", "-1"],
         "argument --tol: must be finite and at least 0, got -1.0"),
        (["intensity", "TABLE", "EMISSIONS", "--tol=-inf"],
         "argument --tol: must be finite and at least 0, got -inf"),
        (["validate", "TABLE", "--tol", "tight"],
         "argument --tol: invalid float value: 'tight'"),
    ], ids=["perturb-seed", "generate-seed", "validate-nan", "validate-inf",
            "neumann-negative", "intensity-negative-inf", "not-a-number"])
    def test_out_of_range_is_usage_error(self, argv, message, table, emissions,
                                         tmp_path, capsys):
        paths = {"TABLE": table, "EMISSIONS": emissions, "OUT": str(tmp_path / "out")}
        assert run_command([paths.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: iofootprint ")
        assert captured.err.endswith(f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_large_seeds_and_zero_tolerances_run(self, table, emissions,
                                                 tmp_path, capsys):
        seed = str(2**70)
        assert run_command(["perturb", table, "--epsilon", "0.01", "--samples", "2",
                            "--seed", seed]) == 0
        assert report_lines(capsys)["perturbation.seed"] == seed
        assert run_command(["generate", "--n", "3", "--seed", seed,
                            "--out", str(tmp_path / "out")]) == 0
        assert report_lines(capsys)["generate.seed"] == seed
        assert run_command(["validate", table, "--tol", "0"]) == 0
        assert report_lines(capsys)["balance.ok"] == "true"
        assert run_command(["intensity", table, emissions, "--method", "neumann",
                            "--tol", "0"]) == 0
        assert int(report_lines(capsys)["intensity.terms"]) > 1


class TestOverflowingTable:
    @pytest.mark.parametrize("text", [
        "MU,a,b,D\na,1e308,1e308,1\nb,1,1,1\n",
        "MU,a,b,D\na,1e308,0,1\nb,1e308,0,1\n",
    ], ids=["row_sum", "column_sum"])
    def test_fails_validation(self, text, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text(text, encoding="utf-8")
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_command(["validate", str(path), "--allow-negative-v"]) == 1
        assert "error.type = ImbalancedTable" in capsys.readouterr().err


class TestNoRawWarnings:
    def test_row_overflow_is_a_typed_error(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text("MU,a,b,D\na,1e308,1e308,1\nb,1,1,1\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(["validate", str(path), "--allow-negative-v"]) == 1
        assert "error.type = ImbalancedTable" in capsys.readouterr().err


class TestLazyScipy:
    """Commands that factor nothing must not pay for importing scipy."""

    @staticmethod
    def run_python(code, cwd):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_import_loads_no_scipy(self, tmp_path):
        done = self.run_python(
            "import iofootprint.cli, sys; assert 'scipy' not in sys.modules", tmp_path)
        assert done.returncode == 0, done.stderr

    def test_generate_loads_no_scipy(self, tmp_path):
        done = self.run_python(
            "import sys\n"
            "from iofootprint.cli import run_command\n"
            "assert run_command(['generate', '--n', '5', '--out', 'out']) == 0\n"
            "assert 'scipy' not in sys.modules\n", tmp_path)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "table.csv").is_file()

    @pytest.mark.parametrize("argv", [
        ["intensity", "table.csv", "emissions.csv"],
        ["attribute", "table.csv", "emissions.csv", "--basis", "value-added"],
        ["perturb", "table.csv", "--epsilon", "0.01", "--samples", "5"],
    ], ids=["intensity", "attribute-value-added", "perturb"])
    def test_factoring_loads_no_scipy_linalg(self, tmp_path, argv):
        (tmp_path / "table.csv").write_text(WORKED_TABLE, encoding="utf-8")
        (tmp_path / "emissions.csv").write_text(EMISSIONS, encoding="utf-8")
        done = self.run_python(
            "import sys\n"
            "from iofootprint.cli import run_command\n"
            f"assert run_command({argv!r}) == 0\n"
            "assert 'scipy.linalg._flapack' in sys.modules\n"
            "assert 'scipy.linalg' not in sys.modules\n", tmp_path)
        assert done.returncode == 0, done.stderr


class TestReadmeQuickstart:
    """README's command-line quickstart runs as printed, on its own example files."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    def quickstart(self):
        text = self.README.read_text(encoding="utf-8")
        section = text.split("## Command-line quickstart", 1)[1].split("\n## ", 1)[0]
        blocks = section.split("```")[1::2]  # fenced block bodies, language first
        files = [b.split("\n", 1)[1] for b in blocks if b.startswith("csv\n")]
        consoles = [b.split("\n", 1)[1] for b in blocks if b.startswith("console\n")]
        return files, consoles

    def test_documented_output_appears(self, tmp_path, monkeypatch, capsys):
        files, consoles = self.quickstart()
        assert len(files) == 2
        monkeypatch.chdir(tmp_path)
        Path("table.csv").write_text(files[0], encoding="utf-8")
        Path("emissions.csv").write_text(files[1], encoding="utf-8")
        commands = []
        for console in consoles:
            for line in console.splitlines():
                if line.startswith("$ iofootprint "):
                    commands.append((line[len("$ iofootprint "):].split(), []))
                elif " = " in line:
                    commands[-1][1].append(line)
        assert [argv[0] for argv, _ in commands] == [
            "validate", "intensity", "attribute", "perturb", "generate"]
        for argv, expected in commands:
            assert run_command(argv) == 0, argv
            out = capsys.readouterr().out.splitlines()
            missing = [line for line in expected if line not in out]
            assert not missing, (argv, missing)


class TestUnreadableInput:
    """Undecodable and oversized cells end in a ParseError report, not a traceback."""

    @pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
    @pytest.mark.parametrize("label", ["s\xe92", "x" * 200_000],
                             ids=["latin-1", "long-label"])
    def test_parse_error_report(self, tmp_path, capsys, label, quote):
        path = tmp_path / "table.csv"
        text = WORKED_TABLE.replace("s2", f"{quote}{label}{quote}")
        path.write_bytes(text.encode("latin-1"))
        assert run_command(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        kind, message = captured.err.splitlines()
        assert kind == "error.type = ParseError"
        assert message.startswith("error.message = line 1: ")


class TestWarningLines:
    # rcond of I - A is about 1e-10, between RCOND_FAIL and RCOND_WARN.
    ILL_CONDITIONED = "MU,a,b,D\na,0.5,0.4999999999,1e-10\nb,0.4999999999,0.5,1e-10\n"

    def test_conditioning_warning_is_a_report_line(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(self.ILL_CONDITIONED, encoding="utf-8")
        emissions = tmp_path / "emissions.csv"
        emissions.write_text("sector,kt\na,1\nb,2\n", encoding="utf-8")
        argv = ["intensity", str(table), str(emissions)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_command(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert run_command(argv) == 0
        reported = capsys.readouterr()
        assert reported.out == quiet.out
        kind, message = reported.err.splitlines()
        assert kind == "warning.type = ConditioningWarning"
        assert message.startswith("warning.message = matrix is poorly conditioned")


class TestOverflowReports:
    """Overflowing sums and quotients exit 1 with the two error lines only."""

    # Emissions of 1e308 per sector: the attributed total overflows.
    HUGE = ("MU,a,b,D\na,1,0,1\nb,0,1,1\n", "sector,kt\na,1e308\nb,1e308\n")
    # Totals of 2e-300 with emissions of 1e10: the direct intensity overflows.
    TINY = ("MU,a,b,D\na,1e-300,0,1e-300\nb,0,1e-300,1e-300\n",
            "sector,kt\na,1e10\nb,1e10\n")

    @pytest.mark.parametrize("table, emissions, argv, message", [
        (*HUGE, ["attribute"], "attributed emission total overflows the float range"),
        (*HUGE, ["attribute", "--basis", "value-added"],
         "attributed emission total overflows the float range"),
        (*TINY, ["intensity"], "intensity entry 0 is not finite (inf)"),
        (*TINY, ["attribute"], "intensity entry 0 is not finite (inf)"),
    ], ids=["fsum-demand", "fsum-value-added", "quotient-intensity",
            "quotient-attribute"])
    def test_error_lines_only(self, tmp_path, capsys, table, emissions, argv, message):
        (tmp_path / "t.csv").write_text(table, encoding="utf-8")
        (tmp_path / "e.csv").write_text(emissions, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a raw warning would print its lines
            code = run_command(argv[:1] + [str(tmp_path / "t.csv"),
                                           str(tmp_path / "e.csv")] + argv[1:])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error.type = NegativeEntry", f"error.message = {message}"]


def test_dropping_every_sector_is_a_zero_total_error(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("MU,a,b,D\na,0,0,0\nb,0,0,0\n", encoding="utf-8")
    assert run_command(["validate", str(path), "--drop-zero-sectors"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-2:] == ["error.type = ZeroTotal",
                        "error.message = all sectors have zero total output"]


class TestDroppedSectorLines:
    TABLE = "MU,a,b,c,D\na,0,0,0,0\nb,0,0,0,0\nc,0,0,1,1\n"

    def test_dropped_sectors_are_warning_lines(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text(self.TABLE, encoding="utf-8")
        handlers = list(logging.getLogger("iofootprint").handlers)
        assert run_command(["validate", str(path), "--drop-zero-sectors"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning.type = iofootprint.economy",
            "warning.message = dropping zero-output sectors: a, b",
        ]
        assert "balance.row_residuals.c = 0" in captured.out.splitlines()
        assert logging.getLogger("iofootprint").handlers == handlers

    def test_no_bare_line_in_a_subprocess(self, tmp_path):
        # Without the handler, logging's last-resort handler prints the bare line.
        path = tmp_path / "zero.csv"
        path.write_text(self.TABLE, encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
        done = subprocess.run(
            [sys.executable, "-m", "iofootprint.cli", "validate", str(path),
             "--drop-zero-sectors"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr.splitlines() == [
            "warning.type = iofootprint.economy",
            "warning.message = dropping zero-output sectors: a, b",
        ]


class TestCommandContract:
    """Each command's report: its keys in a fixed order, and its values bit for bit
    those of the library calls the command makes."""

    @pytest.fixture
    def files(self, tmp_path):
        econ, account = generate_economy(GeneratorConfig(n=3, seed=11))
        table, emissions = tmp_path / "table.csv", tmp_path / "emissions.csv"
        table.write_text(serialize_table(econ), encoding="utf-8")
        emissions.write_text(serialize_emissions(account, econ), encoding="utf-8")
        return str(table), str(emissions)

    @staticmethod
    def report(capsys, argv, keys, values):
        assert run_command(argv) == 0
        pairs = [line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()]
        assert [key for key, _ in pairs] == keys
        assert len(values) == len(keys)
        for (key, text), value in zip(pairs, values):
            if isinstance(value, bool):
                assert text == ("true" if value else "false"), key
            elif isinstance(value, (int, str)):
                assert text == str(value), key
            else:  # 17 digits read back to the same double
                assert float(text) == value, key

    @staticmethod
    def per_sector(prefix):
        return [f"{prefix}.S1", f"{prefix}.S2", f"{prefix}.S3"]

    def test_validate(self, files, capsys):
        econ = parse_table(files[0], tol_rel=math.inf)
        report = validate_balance(econ)
        self.report(capsys, ["validate", files[0]], [
            "balance.ok", "balance.max_residual",
            *self.per_sector("balance.row_residuals"),
            *self.per_sector("balance.col_residuals"),
        ], [report.ok, report.max_residual, *report.row_residuals,
            *report.col_residuals])

    @pytest.mark.parametrize("method", ["solve", "neumann"])
    def test_intensity(self, files, capsys, method):
        econ = parse_table(files[0])
        account = parse_emissions(files[1], econ)
        direct = direct_intensity(econ, account)
        A = technical_coefficients(econ)
        if method == "neumann":
            total, terms = total_intensity_neumann(direct, A)
            terms_key, terms_value = ["intensity.terms"], [terms]
        else:
            total = total_intensity(direct, A)
            terms_key, terms_value = [], []
        self.report(capsys, ["intensity", *files, "--method", method], [
            "intensity.method", "intensity.emission_unit", "intensity.money_unit",
            *self.per_sector("intensity.direct"), *terms_key,
            *self.per_sector("intensity.total"),
        ], [method, "kt CO2", "MU", *direct.values, *terms_value, *total.values])

    @pytest.mark.parametrize("basis", ["demand", "value-added"])
    def test_attribute(self, files, capsys, basis):
        econ = parse_table(files[0])
        account = parse_emissions(files[1], econ)
        direct = direct_intensity(econ, account)
        if basis == "demand":
            total = total_intensity(direct, technical_coefficients(econ))
            report = attribute_to_demand(total, econ.demand, account)
        else:
            systemic = systemic_intensity(direct, allocation_coefficients(econ))
            report = attribute_to_value_added(systemic, econ.value_added, account)
        self.report(capsys, ["attribute", *files, "--basis", basis], [
            "attribution.basis", "attribution.emission_unit",
            *self.per_sector("attribution.per_sector"),
            "attribution.total_attributed", "attribution.total_emissions",
            "attribution.conservation_residual",
        ], [basis, "kt CO2", *report.per_sector, report.total_attributed,
            report.total_emissions, report.conservation_residual])

    def test_perturb(self, files, capsys):
        report = perturb_inverse(technical_coefficients(parse_table(files[0])),
                                 0.01, 20, 5)
        self.report(capsys, ["perturb", files[0], "--epsilon", "0.01",
                             "--samples", "20", "--seed", "5"], [
            "perturbation.epsilon", "perturbation.samples", "perturbation.seed",
            "perturbation.baseline_norm", "perturbation.max_deviation",
            "perturbation.amplification", "perturbation.diverged_count",
        ], [0.01, 20, 5, report.baseline_norm, report.max_deviation,
            report.amplification, report.diverged_count])

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "gen"
        argv = ["generate", "--n", "4", "--seed", "9", "--out", str(out)]
        self.report(capsys, argv, [
            "generate.n", "generate.seed", "generate.table", "generate.emissions",
        ], [4, 9, str(out / "table.csv"), str(out / "emissions.csv")])
        econ, account = generate_economy(GeneratorConfig(n=4, seed=9))
        assert (out / "table.csv").read_text(encoding="utf-8") == serialize_table(econ)
        assert ((out / "emissions.csv").read_text(encoding="utf-8")
                == serialize_emissions(account, econ))


class TestOneLineEntries:
    """Every report entry is one line, whatever its labels, units and messages hold."""

    # The labels and units of test_tableio's TestLabelsWithSpecialCharacters.
    LABELS = ("A\nB", "C", "d,e", 'say "hi"', 'all\n, "three"')

    @pytest.fixture
    def files(self, tmp_path):
        base, _ = generate_economy(GeneratorConfig(n=len(self.LABELS), seed=11))
        econ = Economy(self.LABELS, base.transactions, base.demand,
                       base.value_added, base.totals, money_unit='M\n,"U"')
        account = EmissionAccount(np.arange(1.0, econ.n + 1),
                                  emission_unit='kt\n"CO2", e')
        table, emissions = tmp_path / "table.csv", tmp_path / "emissions.csv"
        write_table(econ, table)
        write_emissions(account, econ, emissions)
        return str(table), str(emissions)

    @pytest.mark.parametrize("options", [
        ["validate"], ["intensity"], ["intensity", "--method", "neumann"],
        ["attribute"], ["attribute", "--basis", "value-added"],
    ])
    def test_every_line_holds_one_separator(self, files, capsys, options):
        table, emissions = files
        argv = [options[0], table] + ([] if options[0] == "validate" else [emissions])
        assert run_command(argv + options[1:]) == 0
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).split("\n")
        assert lines.pop() == ""
        assert [line for line in lines if line.count(" = ") != 1] == []

    def test_line_breaks_print_as_escapes(self, files, capsys):
        table, emissions = files
        assert run_command(["intensity", table, emissions]) == 0
        out = capsys.readouterr().out.split("\n")
        assert 'intensity.emission_unit = kt\\n"CO2", e' in out
        assert 'intensity.money_unit = M\\n,"U"' in out
        assert [line.split(" = ")[0] for line in out if ".direct." in line] == [
            "intensity.direct.A\\nB", "intensity.direct.C", "intensity.direct.d,e",
            'intensity.direct.say "hi"', 'intensity.direct.all\\n, "three"',
        ]

    def test_warning_message_stays_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text('MU,"x\ny",c,D\n"x\ny",0,0,0\nc,0,1,1\n', encoding="utf-8")
        assert run_command(["validate", str(path), "--drop-zero-sectors"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning.type = iofootprint.economy",
            "warning.message = dropping zero-output sectors: x\\ny",
        ]
        assert [line.split(" = ")[0] for line in captured.out.splitlines()] == [
            "balance.ok", "balance.max_residual",
            "balance.row_residuals.c", "balance.col_residuals.c",
        ]


class TestDropPassesInTheCli:
    # b sells only to a, so b's output falls to zero once a is dropped.
    TABLE = "MU,a,b,c,D\na,0,0,0,0\nb,5,0,0,0\nc,0,0,1,4\n"

    @pytest.mark.parametrize("extra", [[], ["--allow-negative-v"]])
    def test_cascade_reports_the_kept_sector(self, tmp_path, capsys, extra):
        path = tmp_path / "cascade.csv"
        path.write_text(self.TABLE, encoding="utf-8")
        assert run_command(["validate", str(path), "--drop-zero-sectors"] + extra) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "balance.ok = true",
            "balance.max_residual = 0",
            "balance.row_residuals.c = 0",
            "balance.col_residuals.c = 0",
        ]
        assert captured.err.splitlines() == [
            "warning.type = iofootprint.economy",
            "warning.message = dropping zero-output sectors: a",
            "warning.type = iofootprint.economy",
            "warning.message = dropping zero-output sectors: b",
        ]
