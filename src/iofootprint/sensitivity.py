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
from dataclasses import dataclass

import numpy as np

from .errors import Divergent, DomainError, SingularSystem
from .leontief import (
    CoefficientMatrix,
    _divergent_radius,
    leontief_inverse,
    spectral_radius_estimate,
)


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

    The perturbed matrix, its factors and its inverse live in three n-by-n
    buffers allocated once, so a draw allocates nothing of size n-by-n.

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
    perturbed = np.empty((n, n))
    drawn = CoefficientMatrix._over(coefficients.kind, perturbed)
    work = np.empty((n, n), order="F")
    inverse = np.empty((n, n), order="F")

    def deviation() -> float | None:
        """Inverse deviation for the matrix in ``perturbed``, or None if it diverged.

        The divergence gate also rejects entries that overflowed to inf,
        so ``drawn`` needs no entry check of its own.
        """
        if _divergent_radius(perturbed) is not None:
            return None
        try:
            inv = leontief_inverse(drawn, out=inverse, work=work)
        except SingularSystem:
            return None
        np.subtract(inv, base_inverse, out=inv)
        return float(np.abs(inv, out=inv).sum(axis=1).max())

    deviations = [0.0]
    if n == 1:
        for endpoint in (-epsilon, epsilon):
            np.maximum(base + endpoint, 0.0, out=perturbed)
            dev = deviation()
            if dev is not None:
                deviations.append(dev)

    diverged = 0
    for k in range(samples):
        # Child k of SeedSequence(seed).spawn(samples), made only when drawn.
        stream = np.random.SeedSequence(seed, spawn_key=(k,))
        # -epsilon + 2 epsilon u, bit for bit what
        # rng.uniform(-epsilon, epsilon, size=base.shape) draws.
        np.random.default_rng(stream).random(out=perturbed)
        perturbed *= 2.0 * epsilon
        perturbed -= epsilon
        perturbed += base
        np.maximum(perturbed, 0.0, out=perturbed)
        dev = deviation()
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
