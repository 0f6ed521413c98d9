"""``perturb``'s draws on several workers, and the one-BLAS-thread pin.

``perturb_inverse`` runs its draws on as many workers as BLAS threads are
allowed, every LAPACK call at one thread. Its report, warnings and
exceptions must be those of the same draws run one after another, and
every output that factors or solves must be the same bytes at any BLAS
thread count.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from iofootprint import (
    CoefficientKind,
    CoefficientMatrix,
    ConditioningWarning,
    GeneratorConfig,
    SingularSystem,
    generate_economy,
    parse_table,
    perturb_inverse,
    technical_coefficients,
)
from iofootprint import leontief, sensitivity
from iofootprint.cli import run_command
from iofootprint.leontief import Factorization, _lapack, _one_blas_thread


def coeff(values):
    return CoefficientMatrix(CoefficientKind.TECHNICAL, values)


@pytest.fixture
def workers(monkeypatch):
    """Force the number of workers ``perturb_inverse`` runs its draws on."""
    def force(count):
        monkeypatch.setattr(sensitivity, "_worker_count", lambda n, threads: count)
    return force


def cli(args, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
    done = subprocess.run([sys.executable, "-m", "iofootprint.cli", *args], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At n=300 OpenBLAS splits LU and solve sums by thread; unpinned, all
    # three outputs differ in their last digits between 1 and 2 threads.
    runs = {}
    table, emissions = (str(tmp_path / "economy1" / name)
                        for name in ("table.csv", "emissions.csv"))
    for threads in (1, 2):
        out = tmp_path / f"economy{threads}"
        generated = cli(["generate", "--n", "300", "--seed", "4", "--out", str(out)],
                        threads)
        runs[threads] = (
            generated.replace(str(out).encode(), b"OUT"),
            (out / "table.csv").read_bytes(),
            (out / "emissions.csv").read_bytes(),
            cli(["perturb", table, "--epsilon", "0.001", "--samples", "20"], threads),
            cli(["intensity", table, emissions], threads),
        )
    assert runs[1] == runs[2]


class TestWorkersAgree:
    @pytest.mark.parametrize("values, epsilon, samples", [
        ([[0.995]], 0.01, 50),                    # about half the draws diverge
        ([[0.49, 0.49], [0.49, 0.49]], 0.02, 50),  # draws near a singular matrix
    ], ids=["diverging", "singular"])
    def test_edge_matrices(self, workers, values, epsilon, samples):
        reports = []
        for count in (1, 2, 3):
            workers(count)
            reports.append([perturb_inverse(coeff(values), epsilon, samples, seed)
                            for seed in (0, 1, 7)])
        assert reports[0] == reports[1] == reports[2]
        assert 0 < reports[0][0].diverged_count < samples

    def test_generated_economy(self, workers):
        A = technical_coefficients(generate_economy(GeneratorConfig(n=40, seed=3))[0])
        reports = []
        for count in (1, 2, 3):
            workers(count)
            reports.append(perturb_inverse(A, 1e-2, 30, 5))
        assert reports[0] == reports[1] == reports[2]

    def test_many_workers_with_frequent_switches(self, workers, monkeypatch):
        # More workers than cores, switching threads every microsecond: each
        # draw index is still taken once, and generators are made in order.
        made = []
        default_rng = np.random.default_rng

        def spy(stream):
            made.append(stream.spawn_key)
            return default_rng(stream)

        A = coeff([[0.3, 0.2, 0.1], [0.1, 0.3, 0.2], [0.2, 0.1, 0.3]])
        workers(1)
        serial = perturb_inverse(A, 0.05, 300, 11)
        monkeypatch.setattr(np.random, "default_rng", spy)
        workers(6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = perturb_inverse(A, 0.05, 300, 11)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial
        assert made == [(k,) for k in range(300)]

    def test_more_workers_than_draws(self, workers):
        workers(3)
        one = perturb_inverse(coeff([[0.5, 0.1], [0.2, 0.3]]), 1e-3, 1, 0)
        workers(1)
        assert one == perturb_inverse(coeff([[0.5, 0.1], [0.2, 0.3]]), 1e-3, 1, 0)


class TestWarnedDraws:
    # I - A has rcond about 1e-10, so every draw warns; at this epsilon many
    # draws repeat a message, the baseline's among them.
    OFF_DIAGONAL = 0.4999999999
    EPSILON, SAMPLES, SEED = 3e-13, 40, 2

    def expected_messages(self, base):
        """The warnings of a serial loop, each distinct message once."""
        matrices = [base]
        for k in range(self.SAMPLES):
            rng = np.random.default_rng(np.random.SeedSequence(self.SEED, spawn_key=(k,)))
            noise = rng.uniform(-self.EPSILON, self.EPSILON, size=base.shape)
            matrices.append(np.maximum(base + noise, 0.0))
        messages = []
        for matrix in matrices:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    Factorization(matrix)
                except SingularSystem:
                    continue
            messages.extend(str(w.message) for w in caught
                            if w.category is ConditioningWarning)
        assert len(set(messages)) < len(messages)
        return list(dict.fromkeys(messages))

    @pytest.fixture
    def table(self, tmp_path):
        a, d = self.OFF_DIAGONAL, 1 - 0.5 - self.OFF_DIAGONAL
        table = tmp_path / "table.csv"
        table.write_text(f"MU,s1,s2,D\ns1,0.5,{a!r},{d!r}\ns2,{a!r},0.5,{d!r}\n",
                         encoding="utf-8")
        return table

    def stderr(self, table, capsys):
        code = run_command(["perturb", str(table), "--epsilon", repr(self.EPSILON),
                            "--samples", str(self.SAMPLES), "--seed", str(self.SEED)])
        captured = capsys.readouterr()
        assert code == 0
        return captured.err

    def test_same_stderr_on_every_worker_count(self, workers, table, capsys):
        workers(1)
        one = self.stderr(table, capsys)
        lines = one.splitlines()
        messages = [line.removeprefix("warning.message = ")
                    for line in lines if line.startswith("warning.message = ")]
        base = technical_coefficients(parse_table(str(table))).values
        assert messages == self.expected_messages(base)
        assert lines.count("warning.type = ConditioningWarning") == len(messages)
        for count in (2, 3):
            workers(count)
            assert self.stderr(table, capsys) == one


class TestFailingDraws:
    @staticmethod
    def failing_draws(monkeypatch, fail):
        """Draw k's generator runs ``fail(k)`` before it fills the matrix."""
        default_rng = np.random.default_rng

        class Generator:
            def __init__(self, stream):
                self.k = stream.spawn_key[0]
                self.rng = default_rng(stream)

            def random(self, out):
                fail(self.k)
                return self.rng.random(out=out)

        monkeypatch.setattr(np.random, "default_rng", Generator)

    def test_lowest_failing_draw_propagates(self, workers, monkeypatch):
        def fail(k):
            if k == 3:  # fails after draw 4 has, on two workers or more
                time.sleep(0.05)
            if k in (3, 4, 9):
                raise RuntimeError(f"draw {k} failed")

        A = technical_coefficients(generate_economy(GeneratorConfig(n=30, seed=1))[0])
        self.failing_draws(monkeypatch, fail)
        before = threading.active_count()
        for count in (1, 2, 3):
            workers(count)
            with pytest.raises(RuntimeError, match="^draw 3 failed$"):
                perturb_inverse(A, 1e-3, 20, 0)
            assert threading.active_count() == before

    def test_interrupt_leaves_no_thread(self, workers, monkeypatch):
        def fail(k):
            if k >= 4 and threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt

        A = technical_coefficients(generate_economy(GeneratorConfig(n=30, seed=1))[0])
        self.failing_draws(monkeypatch, fail)
        before = threading.active_count()
        workers(3)
        with pytest.raises(KeyboardInterrupt):
            perturb_inverse(A, 1e-3, 200, 0)
        assert threading.active_count() == before


@pytest.mark.parametrize("count", [1, 2, 3])
def test_memory_per_worker(workers, count):
    n = 150
    A = technical_coefficients(generate_economy(GeneratorConfig(n=n, seed=2))[0])
    perturb_inverse(A, 1e-3, 2, 0)  # load LAPACK outside the measurement
    workers(count)
    tracemalloc.start()
    try:
        perturb_inverse(A, 1e-3, 12, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (3 + 2 * count) * 8 * n * n


class FakeOpenBLAS:
    """A library with only the process-wide setter and getter, as older builds."""

    def __init__(self, threads, suffix):
        self.threads = threads
        setattr(self, f"openblas_set_num_threads{suffix}", Function(self.set))
        setattr(self, f"openblas_get_num_threads{suffix}", Function(lambda: self.threads))

    def set(self, threads):
        self.threads = threads


class Function:
    """A stand-in for a ctypes function: callable, with settable signature."""

    def __init__(self, call):
        self.call = call

    def __call__(self, *args):
        return self.call(*args)


class TestPin:
    def test_one_thread_inside_ambient_after(self):
        lapack = _lapack()
        count = leontief._thread_count(lapack.__file__)
        if count is None:
            pytest.skip("this BLAS has no thread-count setter")
        with _one_blas_thread(lapack) as ambient:
            with _one_blas_thread(lapack) as nested:
                assert nested == ambient
            assert count._swap(1) == 1
        with _one_blas_thread(lapack) as again:
            assert again == ambient

    @pytest.mark.parametrize("suffix", ["", "64_"])
    def test_fallback_setter_is_held_until_the_last_holder_leaves(self, monkeypatch,
                                                                  suffix):
        fake = FakeOpenBLAS(4, suffix)
        monkeypatch.setattr(leontief.ctypes, "CDLL", lambda path: fake)
        count = leontief._thread_count.__wrapped__("fake")
        held, release = threading.Event(), threading.Event()

        def other_holder():
            assert count.pin() == 4
            held.set()
            release.wait(timeout=10)
            count.unpin()

        assert count.pin() == 4 and fake.threads == 1
        assert count.pin() == 4 and fake.threads == 1  # nested
        other = threading.Thread(target=other_holder)
        other.start()
        assert held.wait(timeout=10)
        count.unpin()
        count.unpin()
        assert fake.threads == 1  # the other thread still holds it
        release.set()
        other.join(timeout=10)
        assert not other.is_alive() and fake.threads == 4

    def test_no_setter_runs_at_the_ambient_count(self, monkeypatch):
        monkeypatch.setattr(leontief.ctypes, "CDLL", lambda path: object())
        assert leontief._thread_count.__wrapped__("none") is None
        monkeypatch.setattr(leontief, "_thread_count", lambda path: None)
        with leontief._one_blas_thread.__wrapped__(_lapack()) as threads:
            assert threads is None
        assert sensitivity._worker_count(300, threads) == 1
