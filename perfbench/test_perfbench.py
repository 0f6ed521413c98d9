"""Tests of the benchmark itself, at the smoke size so they run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from iofootprint.cli import run_command
from perfbench import harness, inputs, metrics, oracle, workloads

ROOT = Path(__file__).resolve().parent.parent
N = workloads.SMOKE_SIZE


def _run_in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command([str(a) for a in argv])
    return code, out.getvalue()


@pytest.fixture
def economy(tmp_path):
    data = inputs.draw_economy(N, 3)
    table, emissions = tmp_path / "table.csv", tmp_path / "emissions.csv"
    inputs.write_table_csv(data, table)
    inputs.write_emissions_csv(data, emissions, 3)
    return data, table, emissions


def test_inputs_are_seeded_and_round_trip(economy):
    data, table, emissions = economy
    again = inputs.draw_economy(N, 3)
    assert np.array_equal(again.transactions, data.transactions)
    assert not np.array_equal(inputs.draw_economy(N, 4).transactions, data.transactions)
    read = inputs.read_table_csv(table)
    for name in ("transactions", "demand", "value_added", "totals"):
        assert np.array_equal(getattr(read, name), getattr(data, name))
    unit, values = inputs.read_emissions_csv(emissions, data.sectors)
    assert unit == inputs.EMISSION_UNIT and np.array_equal(values, data.emissions)


def _read_commands(data, table, emissions):
    return [
        (["validate", table], oracle.validate_reference(data)),
        (["intensity", table, emissions], oracle.intensity_reference(data, "solve")),
        (["intensity", table, emissions, "--method", "neumann"],
         oracle.intensity_reference(data, "neumann")),
        (["attribute", table, emissions], oracle.attribute_reference(data, "demand")),
        (["attribute", table, emissions, "--basis", "value-added"],
         oracle.attribute_reference(data, "value-added")),
        (["perturb", table, "--epsilon", "1e-3", "--samples", "20", "--seed", "7"],
         oracle.perturb_reference(data, 1e-3, 20, 7)),
    ]


def test_oracle_accepts_every_command(economy):
    for argv, expected in _read_commands(*economy):
        code, stdout = _run_in_process(argv)
        assert code == 0
        oracle.check_report(stdout, expected)


def _corruptions(stdout: str):
    lines = stdout.splitlines(keepends=True)
    key, _, value = lines[-2].partition(" = ")
    yield "value off in the 7th digit", stdout.replace(
        lines[-2], f"{key} = {float(value) * (1 + 1e-6) + 1e-9!r}\n")
    yield "value not a number", stdout.replace(lines[-2], f"{key} = x{value}")
    yield "line dropped", "".join(lines[:-1])
    yield "lines swapped", "".join([lines[1], lines[0], *lines[2:]])
    yield "line repeated", stdout + lines[-1]


@pytest.mark.parametrize("index", range(6))
def test_oracle_rejects_corrupted_reports(economy, index):
    argv, expected = _read_commands(*economy)[index]
    _, stdout = _run_in_process(argv)
    for what, corrupted in _corruptions(stdout):
        with pytest.raises(oracle.Mismatch):
            oracle.check_report(corrupted, expected)
            pytest.fail(f"accepted a report with a {what}")


def test_oracle_rejects_a_conservation_residual_above_the_limit(economy):
    argv, expected = _read_commands(*economy)[3]
    _, stdout = _run_in_process(argv)
    *head, last = stdout.splitlines(keepends=True)
    assert last.startswith("attribution.conservation_residual = ")
    corrupted = "".join(head) + "attribution.conservation_residual = 1e-09\n"
    with pytest.raises(oracle.Mismatch):
        oracle.check_report(corrupted, expected)


def test_generate_check_rejects_a_changed_cell(tmp_path):
    code, stdout = _run_in_process(["generate", "--n", N, "--seed", 5, "--out", tmp_path])
    assert code == 0
    table, emissions = tmp_path / "table.csv", tmp_path / "emissions.csv"
    oracle.check_report(stdout, oracle.generate_reference(N, 5, str(table),
                                                          str(emissions)))
    oracle.check_generated(table, emissions, N, 5)
    with pytest.raises(oracle.Mismatch):
        oracle.check_generated(table, emissions, N, 6)
    text = table.read_text().splitlines(keepends=True)
    cells = text[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-15))
    table.write_text("".join([text[0], ",".join(cells), *text[2:]]))
    with pytest.raises(oracle.Mismatch):
        oracle.check_generated(table, emissions, N, 5)


def test_traced_stdout_is_byte_identical_to_untraced(economy, tmp_path):
    _, table, emissions = economy
    env = harness.op_env(ROOT)
    worker = harness.TracedWorker(ROOT, env)
    try:
        for argv in (["attribute", table, emissions, "--basis", "value-added"],
                     ["perturb", table, "--epsilon", "1e-3", "--samples", "5"]):
            argv = [str(a) for a in argv]
            record = harness.spawn(argv, env, tmp_path)
            reply = worker.run(argv)
            assert record.code == reply["code"] == 0
            assert record.stdout == reply["stdout"]
            assert 0 < record.import_s < record.setup_s < record.op_s
            assert reply["covered_s"] <= reply["command_s"]
        assert "numerics.factorization" in reply["layers"]
        assert reply["layers"]["sensitivity.perturb_inverse"]["samples"] == 5
    finally:
        worker.close()


def test_peak_rss_excludes_the_parent(economy, tmp_path):
    _, table, _ = economy
    ballast = np.ones(25_000_000)  # 200 MB resident in this process
    record = harness.spawn(["validate", str(table)], harness.op_env(ROOT), tmp_path)
    assert record.code == 0
    assert 0 < record.rss_kib < ballast.nbytes // 1024


def _declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    result, detail = harness.run(workload, 1, 0.3, trace, ROOT, smoke=True)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == declared
    assert not (ROOT / ".perfbench_work").exists()


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(40)]
    assert metrics.tail(values) == (29.0, 75.0)
    assert metrics.tail(values[:5]) == (4.0, 100.0)


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
