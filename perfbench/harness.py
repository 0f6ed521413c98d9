"""Measurement loops and the benchmark's command line.

``--trace 0`` runs the workload's ops one at a time, each as a fresh
``iofootprint`` process started through :mod:`perfbench.launch`, until
the ops have taken ``--seconds`` of wall time; every output is checked
against the oracle outside the timed region. ``--trace 1`` alternates each
such subprocess op with the same command run in-process by
:mod:`perfbench.traced_worker`, checks both outputs, requires their
stdout to be byte-identical, and fails unless the spans cover at least
COVERAGE_MIN of the in-process command time (at the workload sizes).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import machine, metrics, oracle, workloads

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"
WORKLOADS = tuple(workloads.WHY)
COVERAGE_MIN = 0.90
# No op starts after this much wall time, so a run ends well within 180 s
# even when checking is slow.
WALL_LIMIT_S = 120.0
WORKER_EXIT_TIMEOUT_S = 30.0
REPORTED_FAILURES = 5


@dataclass(frozen=True)
class OpRecord:
    """One subprocess op: times from CLOCK_MONOTONIC, peak RSS from the launcher."""

    code: int
    stdout: str
    op_s: float       # spawn to exit
    setup_s: float    # spawn until iofootprint.cli is imported
    import_s: float   # the import statement alone
    rss_kib: int      # VmHWM of the op process


def op_env(root: Path) -> dict:
    """Environment of op processes: the checkout's source, BLAS capped at nproc."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    threads = str(machine.cpu_count())
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    return env


def spawn(argv: list[str], env: dict, work: Path) -> OpRecord:
    """Run one CLI command as a fresh process and wait for it.

    Its stdout goes to a file read back afterwards; its stderr is ours. The
    launcher writes its import stamps and peak RSS to fd 3.
    """
    out = work / "op.stdout"
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd) as reader:
        try:
            actions = [
                (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                 0o644),
                (os.POSIX_SPAWN_DUP2, write_fd, 3),
            ]
            start = time.monotonic()
            pid = os.posix_spawn(sys.executable, [sys.executable, str(LAUNCHER), *argv],
                                 env, file_actions=actions)
        finally:
            os.close(write_fd)
        _, status = os.waitpid(pid, 0)
        end = time.monotonic()
        stamps = reader.read().split()
    # A launcher that died early leaves its stamps incomplete; the op then
    # fails its check, and its times fall back to the whole op.
    before, after, peak_kib = (
        (float(stamps[0]), float(stamps[1]), int(stamps[2])) if len(stamps) == 3
        else (end, end, 0))
    return OpRecord(os.waitstatus_to_exitcode(status), out.read_text(), end - start,
                    after - start, after - before, peak_kib)


class TracedWorker:
    """A long-lived in-process executor with the span wrappers installed."""

    def __init__(self, root: Path, env: dict):
        self._process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.traced_worker"], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        hello = self._reply()
        self.import_s, self.span_cost_s = hello["import_s"], hello["span_cost_s"]

    def _reply(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("traced worker exited early")
        return json.loads(line)

    def run(self, argv: list[str]) -> dict:
        self._process.stdin.write(json.dumps(argv) + "\n")
        self._process.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(WORKER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


class Run:
    """One measured run: the ops, their checks and the failures found."""

    def __init__(self, ops, seconds: float, env: dict, work: Path):
        self.ops, self.seconds, self.env, self.work = ops, seconds, env, work
        self.records: list[OpRecord] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _check(self, op, code: int, stdout: str, how: str) -> bool:
        self.attempted += 1
        try:
            op.check(code, stdout)
        except oracle.Mismatch as mismatch:
            self.failures.append(f"{how} {op.argv[0]}: {mismatch}")
            return False
        return True

    def measure(self, worker: TracedWorker | None = None) -> None:
        busy, started = 0.0, time.monotonic()
        while busy < self.seconds and time.monotonic() - started < WALL_LIMIT_S:
            op = next(self.ops)
            record = spawn(op.argv, self.env, self.work)
            busy += record.op_s
            self.records.append(record)
            self._check(op, record.code, record.stdout, "subprocess")
            if worker is None:
                continue
            reply = worker.run(op.argv)
            busy += reply["command_s"]
            self.traced.append(reply)
            if self._check(op, reply["code"], reply["stdout"], "traced") and (
                    reply["stdout"] != record.stdout):
                self.failures.append(f"traced {op.argv[0]}: stdout differs from "
                                     "the subprocess op")


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        smoke: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result, detail)``.

    ``result`` is the contract object (``correct``, ``attempted``,
    ``failed``, ``metrics``); ``detail`` records the machine, the tail
    percentile, the tolerances and any failures.
    """
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    env = op_env(root)
    try:
        ops = workloads.make_ops(workload, seed, work, smoke)
        measured = Run(ops, seconds, env, work)
        if trace:
            worker = TracedWorker(root, env)
            try:
                measured.measure(worker)
            finally:
                worker.close()
        else:
            measured.measure()
        detail = {"machine": machine.describe(work, env)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = len(measured.failures)
    correct = failed == 0
    op_s = [r.op_s for r in measured.records]
    tail_value, tail_pct = metrics.tail(op_s)
    detail.update(
        workload=workload, seed=seed, seconds=seconds, trace=int(trace), smoke=smoke,
        why=workloads.WHY[workload], ops=len(op_s), op_s=op_s,
        op_s_tail={"percentile": tail_pct, "samples": len(op_s),
                   "beyond": sum(v > tail_value for v in op_s)},
        tolerances=oracle.TOLERANCES, failures=measured.failures[:REPORTED_FAILURES],
    )
    if trace:
        units = metrics.per_layer_units()
        values = metrics.per_layer(measured.traced, measured.records, worker.span_cost_s)
        covered = values["cli.span_coverage"]
        detail.update(
            traced_ops=len(measured.traced), worker_import_s=worker.import_s,
            span_cost_s=worker.span_cost_s,
            layer_sum={"coverage": covered, "minimum": COVERAGE_MIN,
                       "passed": covered >= COVERAGE_MIN, "enforced": not smoke},
            kernel_counts="computed from matrix sizes, not measured",
        )
        # At the smoke size argument parsing alone is a large share of a
        # millisecond command, so the gate applies to the workload sizes.
        if covered < COVERAGE_MIN and not smoke:
            correct = False
            detail["failures"].append(
                f"layer-sum check: spans cover {covered:.1%} of command time, "
                f"below {COVERAGE_MIN:.0%}; the gap is cli.untraced_s = "
                f"{values['cli.untraced_s']:.6f} s per op")
    else:
        units = metrics.END_TO_END_UNITS
        values = metrics.end_to_end(measured.records, measured.attempted, failed)
        detail["error_rate"] = failed / measured.attempted
    result = {
        "correct": correct, "attempted": measured.attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, detail


def _arguments(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = _arguments(argv)
    root = HERE.parent
    if not (root / "src" / "iofootprint" / "cli.py").is_file():
        print(f"perfbench: no iofootprint source under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import iofootprint.cli  # noqa: F401  (compiles the package before timing)

    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for failure in detail["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {detail['ops']} ops")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if "error_rate" in detail:
        print(f"  error_rate = {detail['error_rate']:g} fraction")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0
