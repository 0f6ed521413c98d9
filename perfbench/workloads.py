"""The three workloads: the commands each one runs and how each is checked.

Every workload is a closed loop from one client: the next command starts
when the previous one has ended. Inputs come from the run seed through
:mod:`perfbench.inputs`; each :class:`Op` carries its argument list and a
check that raises :class:`~perfbench.oracle.Mismatch` on a wrong exit code
or a report (or output file) that misses its reference.
"""

from __future__ import annotations

import itertools
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from . import inputs, oracle

WHY = {
    "read": "five table-reading commands on one n=1000 economy; table parsing "
            "dominates and the linear algebra is a few percent",
    "write": "generate --n 1000 with a fresh seed per op; the 17-digit table "
             "writer dominates and nothing is parsed",
    "perturb": "perturb --samples 400 on one n=300 economy; LU factorizations, "
               "n-RHS solves and spectral estimates dominate",
}

# Sector counts; the smoke size runs every path in seconds.
SIZES = {"read": 1000, "write": 1000, "perturb": 300}
SMOKE_SIZE = 20
PERTURB_SAMPLES = 400
SMOKE_SAMPLES = 20
EPSILON = 1e-3
# Seeds handed to the program are derived per op as run_seed * SEED_STRIDE + i.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[int, str], None]


def _checked(reference, after=None, cleanup=None):
    """A check against ``reference`` (a dict, or a function made on first use)."""
    cache = []

    def check(code: int, stdout: str) -> None:
        try:
            if code != 0:
                raise oracle.Mismatch(f"exit code {code}, expected 0")
            if not cache:
                cache.append(reference() if callable(reference) else reference)
            oracle.check_report(stdout, cache[0])
            if after is not None:
                after()
        finally:
            if cleanup is not None:
                cleanup()
    return check


def _read_ops(seed: int, work: Path, n: int) -> Iterator[Op]:
    data = inputs.draw_economy(n, seed)
    table, emissions = str(work / "table.csv"), str(work / "emissions.csv")
    inputs.write_table_csv(data, Path(table))
    inputs.write_emissions_csv(data, Path(emissions), seed)
    cycle = [
        (["validate", table], oracle.validate_reference(data)),
        (["intensity", table, emissions], oracle.intensity_reference(data, "solve")),
        (["intensity", table, emissions, "--method", "neumann"],
         oracle.intensity_reference(data, "neumann")),
        (["attribute", table, emissions], oracle.attribute_reference(data, "demand")),
        (["attribute", table, emissions, "--basis", "value-added"],
         oracle.attribute_reference(data, "value-added")),
    ]
    return itertools.cycle([Op(argv, _checked(expected)) for argv, expected in cycle])


def _write_ops(seed: int, work: Path, n: int) -> Iterator[Op]:
    out = work / "generated"
    table, emissions = str(out / "table.csv"), str(out / "emissions.csv")

    def op(op_seed: int) -> Op:
        return Op(
            ["generate", "--n", str(n), "--seed", str(op_seed), "--out", str(out)],
            _checked(
                oracle.generate_reference(n, op_seed, table, emissions),
                after=lambda: oracle.check_generated(table, emissions, n, op_seed),
                cleanup=lambda: shutil.rmtree(out, ignore_errors=True),
            ),
        )
    return (op(seed * SEED_STRIDE + i) for i in itertools.count())


def _perturb_ops(seed: int, work: Path, n: int, samples: int) -> Iterator[Op]:
    data = inputs.draw_economy(n, seed)
    table = str(work / "table.csv")
    inputs.write_table_csv(data, Path(table))

    def op(op_seed: int) -> Op:
        return Op(
            ["perturb", table, "--epsilon", repr(EPSILON), "--samples", str(samples),
             "--seed", str(op_seed)],
            _checked(lambda: oracle.perturb_reference(data, EPSILON, samples, op_seed)),
        )
    return (op(seed * SEED_STRIDE + i) for i in itertools.count())


def make_ops(workload: str, seed: int, work: Path, smoke: bool = False) -> Iterator[Op]:
    """Write the workload's inputs into ``work`` and return its op stream."""
    n = SMOKE_SIZE if smoke else SIZES[workload]
    if workload == "read":
        return _read_ops(seed, work, n)
    if workload == "write":
        return _write_ops(seed, work, n)
    return _perturb_ops(seed, work, n, SMOKE_SAMPLES if smoke else PERTURB_SAMPLES)
