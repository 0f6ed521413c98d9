"""Numerical instability of the requirements inverse near singularity.

The inverse ``(I - A)^-1`` blows up as the dominant eigenvalue of ``A``
approaches one, so small estimation errors in the coefficients can move
results arbitrarily far. This module makes that concrete three ways: a
spectral radius estimate (how close to the cliff a matrix sits), seeded
perturbation sampling (how far the inverse actually moves under entrywise
noise), and the exact one-sector amplification curve (the blow-up in
closed form).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import Divergent, DomainError, SingularSystem
from .leontief import (
    CoefficientMatrix,
    _divergent_radius,
    _lapack,
    _one_blas_thread,
    leontief_inverse,
    spectral_radius_estimate,
)

# Draws on matrices of fewer sectors run on one worker: there the GIL, not
# LAPACK, bounds a draw. Per draw, two workers took 1.67x the time of one at
# n=5, 1.38x at n=50, about 1x from n=56 to 72, 0.77x at n=80, 0.51x at
# n=120 and 0.46x at n=300 (2-vCPU host, every worker at one BLAS thread).
PARALLEL_MIN_SECTORS = 80


@dataclass(frozen=True)
class SpectralEstimate:
    """Power-iteration estimate of the dominant eigenvalue."""

    rho: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class PerturbationReport:
    """How far the requirements inverse moves under entrywise perturbation.

    ``max_deviation`` is the largest ``||(I-B)^-1 - (I-A)^-1||_inf`` over
    the non-divergent draws, ``amplification`` that deviation per unit of
    perturbation, and ``diverged_count`` the number of sampled draws whose
    perturbed matrix left the convergent regime. Reports are deterministic
    functions of ``(matrix, epsilon, samples, seed)``.
    """

    epsilon: float
    samples: int
    baseline_norm: float
    max_deviation: float
    amplification: float
    diverged_count: int
    seed: int


def spectral_radius(coefficients: CoefficientMatrix, tol: float = 1e-12,
                    max_iter: int = 1000) -> SpectralEstimate:
    """Estimate the spectral radius of a coefficient matrix (either kind).

    Nonnegativity makes the dominant eigenvalue real and nonnegative, and
    caps it at both the maximum row sum and the maximum column sum; the
    returned estimate respects those bounds. ``converged`` is False when
    the iteration cap was hit, in which case ``rho`` is the last iterate.
    """
    rho, iterations, converged = spectral_radius_estimate(
        coefficients.values, tol=tol, max_iter=max_iter
    )
    return SpectralEstimate(rho, iterations, converged)


def perturb_inverse(coefficients: CoefficientMatrix, epsilon: float,
                    samples: int, seed: int) -> PerturbationReport:
    """Sample entrywise perturbations and measure the inverse's movement.

    Each draw adds independent uniform noise in ``[-epsilon, epsilon]`` to
    every coefficient, clamped to stay nonnegative. Each sample draws from
    its own RNG substream, spawned from the seed by sample index, so every
    draw depends only on ``seed`` and its index, not on the draws before
    it. For one-sector matrices the two interval endpoints are
    probed deterministically as well, so the worst case is hit exactly
    rather than approached in distribution.

    Every BLAS and LAPACK call runs at one thread, and the draws run side
    by side on as many workers as BLAS threads were allowed when the call
    started (one worker below ``PARALLEL_MIN_SECTORS`` sectors). Each
    worker holds two n-by-n buffers, allocated once: the drawn matrix,
    which its inverse overwrites once it is factored, and the factors. So
    a draw allocates nothing of size n-by-n. The report, the conditioning
    warnings and an exception a draw raises are those of the same draws
    run one after another: warnings are issued after the draws, in draw
    order, and the exception of the lowest draw that raised one
    propagates.

    Raises :class:`Divergent` when the baseline matrix itself is already
    outside the convergent regime, and :class:`DomainError` for a
    nonpositive ``epsilon``, one whose noise range ``2 * epsilon`` is not
    finite, or a negative ``samples`` or ``seed``.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    if not math.isfinite(2.0 * epsilon):
        raise DomainError(
            f"epsilon must be finite and 2 * epsilon must not overflow, got {epsilon!r}"
        )
    if samples < 0:
        raise DomainError(f"samples must be nonnegative, got {samples!r}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed!r}")
    pin = _one_blas_thread(_lapack(), _umath_linalg)
    with pin as threads:
        base = coefficients.values
        rho = _divergent_radius(base)
        if rho is not None:
            raise Divergent(
                f"baseline spectral radius estimate {rho:.12g} is not below 1; "
                "the requirements inverse does not exist"
            )
        base_inverse = leontief_inverse(coefficients)
        baseline_norm = float(np.abs(base_inverse).sum(axis=1).max())

        n = coefficients.n
        buffers = []
        for _ in range(_worker_count(n, threads)):
            perturbed = np.empty((n, n))
            drawn = CoefficientMatrix._over(coefficients.kind, perturbed)
            buffers.append((perturbed, drawn, np.empty((n, n), order="F")))

        def deviation(perturbed, drawn, work, deferred=None) -> float | None:
            """Inverse deviation for the matrix in ``perturbed``, or None if it diverged.

            ``drawn`` is a matrix over ``perturbed``. The divergence gate
            also rejects entries that overflowed to inf, so it needs no
            entry check of its own. Its inverse overwrites it, through the
            Fortran-order ``perturbed.T``.
            """
            if _divergent_radius(perturbed) is not None:
                return None
            try:
                inv = leontief_inverse(drawn, out=perturbed.T, work=work,
                                       deferred=deferred)
            except SingularSystem:
                return None
            np.subtract(inv, base_inverse, out=inv)
            return float(np.abs(inv, out=inv).sum(axis=1).max())

        def draw(rng, perturbed, drawn, work, deferred) -> float | None:
            # -epsilon + 2 epsilon u, bit for bit what
            # rng.uniform(-epsilon, epsilon, size=base.shape) draws.
            rng.random(out=perturbed)
            perturbed *= 2.0 * epsilon
            perturbed -= epsilon
            perturbed += base
            np.maximum(perturbed, 0.0, out=perturbed)
            return deviation(perturbed, drawn, work, deferred)

        deviations = [0.0]
        if n == 1:
            perturbed, drawn, work = buffers[0]
            for endpoint in (-epsilon, epsilon):
                np.maximum(base + endpoint, 0.0, out=perturbed)
                dev = deviation(perturbed, drawn, work)
                if dev is not None:
                    deviations.append(dev)

        diverged = 0
        for dev in _run_draws(draw, samples, seed, buffers, pin):
            if dev is None:
                diverged += 1
            else:
                deviations.append(dev)

    max_deviation = max(deviations)
    return PerturbationReport(
        epsilon=float(epsilon),
        samples=int(samples),
        baseline_norm=baseline_norm,
        max_deviation=max_deviation,
        amplification=max_deviation / epsilon,
        diverged_count=diverged,
        seed=int(seed),
    )


def _worker_count(n: int, threads: int | None) -> int:
    """Workers for the draws on an n-sector matrix, given the BLAS thread count."""
    return threads if threads and n >= PARALLEL_MIN_SECTORS else 1


def _run_draws(draw, samples: int, seed: int, buffers, pin) -> list:
    """``draw``'s result for each of draws 0..samples-1, one worker per buffer set.

    The calling thread is the first worker and starts one thread for each
    other one; all have left when this returns or raises. Each worker runs
    inside ``pin``, at one BLAS thread. Under one lock it takes the next
    draw index k and makes draw k's generator from child k of
    ``SeedSequence(seed)``, so generators are made in draw order. It then
    calls ``draw(rng, *buffer, deferred)`` outside the lock, with its own
    buffer set and a list that collects the draw's warnings unissued.
    Those are issued here in draw order; an exception stops further draws,
    and the one of the lowest draw index is raised after the warnings of
    the draws up to it.
    """
    lock = threading.Lock()
    results: list = [None] * samples
    warned: dict[int, list] = {}
    errors: dict[int, Exception] = {}
    next_draw = 0
    stopped = False

    def worker(buffer) -> None:
        nonlocal next_draw, stopped
        with pin:
            while True:
                with lock:
                    if stopped or next_draw == samples:
                        return
                    k = next_draw
                    next_draw += 1
                    stream = np.random.SeedSequence(seed, spawn_key=(k,))
                    rng = np.random.default_rng(stream)
                deferred: list = []
                try:
                    results[k] = draw(rng, *buffer, deferred)
                except Exception as err:  # raised after the join, in draw order
                    errors[k] = err
                    stopped = True
                finally:
                    if deferred:
                        warned[k] = deferred

    started = []
    try:
        for buffer in buffers[1:]:
            thread = threading.Thread(target=worker, args=(buffer,))
            thread.start()
            started.append(thread)
        worker(buffers[0])
    finally:
        stopped = True
        for thread in started:
            thread.join()

    first_error = min(errors, default=samples)
    for k in sorted(warned):
        if k > first_error:
            break
        for issue in warned[k]:
            issue()
    if errors:
        raise errors[first_error]
    return results


def amplification_curve(a_values, epsilon: float) -> list[tuple[float, float]]:
    """Exact one-sector amplification ``1 / ((1 - a)(1 - a - eps))`` over a grid.

    For a single sector the worst-case deviation of the inverse under a
    perturbation of size ``epsilon`` has a closed form, and dividing it by
    ``epsilon`` gives the amplification factor. The curve grows without
    bound as ``a`` approaches one, which is the whole instability story in
    miniature.

    Raises :class:`DomainError` when any ``a`` is negative or ``a + epsilon``
    reaches one, where the perturbed inverse ceases to exist.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    curve = []
    for a in a_values:
        a = float(a)
        if a < 0:
            raise DomainError(f"coefficient must be nonnegative, got {a!r}")
        if a + epsilon >= 1.0:
            raise DomainError(
                f"a + epsilon must stay below 1, got {a!r} + {epsilon!r}"
            )
        curve.append((a, 1.0 / ((1.0 - a) * (1.0 - a - epsilon))))
    return curve
