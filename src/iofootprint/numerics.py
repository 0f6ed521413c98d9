"""Low-level linear algebra plumbing.

Two pieces live here because several modules need them without importing
each other: a row-pivoted LU factorization with a reciprocal-condition
gate, and a power-iteration spectral radius estimate for nonnegative
matrices, with the Perron-Frobenius bound that caps it.

scipy is imported on the first factorization, not with this module, so
commands that never factor a matrix (reading and validating a table,
generating one, the series path) do not pay for loading it.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConditioningWarning, SingularSystem

# Reciprocal condition number thresholds: below RCOND_FAIL the factorization
# is rejected as singular to working precision; below RCOND_WARN a warning is
# emitted but the solve proceeds.
RCOND_FAIL = 1e-14
RCOND_WARN = 1e-8


class Factorization:
    """Row-pivoted LU factorization of a square matrix, reusable for solves.

    The reciprocal condition number (1-norm) is estimated at construction;
    a matrix singular to working precision raises :class:`SingularSystem`
    immediately, so every solve through this object is backed by a usable
    pivot sequence. Instances are immutable and safe to share across
    concurrent readers.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor

        anorm = float(np.abs(matrix).sum(axis=0).max()) if matrix.size else 0.0
        with warnings.catch_warnings():
            # An exactly singular U produces a LinAlgWarning from getrf; the
            # rcond gate below turns that case into SingularSystem.
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(matrix)
        gecon = get_lapack_funcs(("gecon",), (lu,))[0]
        rcond, info = gecon(lu, anorm, norm="1")
        if info != 0:
            raise SingularSystem(
                f"condition estimation failed (LAPACK info={info})", rcond=None
            )
        rcond = float(rcond)
        if not np.isfinite(rcond) or rcond < RCOND_FAIL:
            raise SingularSystem(
                "matrix is singular to working precision "
                f"(estimated reciprocal condition number {rcond:.3e})",
                rcond=rcond,
            )
        if rcond < RCOND_WARN:
            warnings.warn(
                f"matrix is poorly conditioned (rcond {rcond:.3e}); "
                "results may lose accuracy",
                ConditioningWarning,
                stacklevel=2,
            )
        self._lu_piv = (lu, piv)
        self._rcond = rcond

    @property
    def rcond(self) -> float:
        """Estimated reciprocal condition number (1-norm)."""
        return self._rcond

    def solve(self, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Solve ``M x = rhs`` (or ``M^T x = rhs`` when ``transposed``)."""
        from scipy.linalg import lu_solve

        return lu_solve(self._lu_piv, rhs, trans=1 if transposed else 0)


def perron_bound(values: np.ndarray) -> float:
    """Upper bound on the Perron root of a nonnegative square matrix.

    ``min(max column sum, max row sum)``; ``inf`` when a sum overflows.
    """
    with np.errstate(over="ignore"):
        return float(min(values.sum(axis=0).max(), values.sum(axis=1).max()))


def spectral_radius_estimate(values: np.ndarray, tol: float = 1e-12,
                             max_iter: int = 1000) -> tuple[float, int, bool]:
    """Estimate the dominant eigenvalue of a nonnegative square matrix.

    Power iteration is run on ``values + I`` rather than ``values`` itself:
    the shift leaves the dominant eigenvector unchanged, moves the Perron
    root to ``rho + 1``, and removes the periodicity that stalls plain power
    iteration on matrices like ``[[0, 2], [0.5, 0]]``. Growth is measured in
    the 1-norm, which keeps every intermediate estimate at or below the
    maximum column sum plus one.

    Returns ``(rho, iterations, converged)``. The estimate is capped by
    :func:`perron_bound`, so ``rho`` never exceeds the row-sum or the
    column-sum bound. On a matrix whose iterates overflow, ``rho`` is NaN.

    Parameters
    ----------
    values : nonnegative square matrix
    tol : relative change in the eigenvalue estimate accepted as converged
    max_iter : iteration cap; on hitting it ``converged`` is False
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    bound = perron_bound(values)
    if bound == 0.0:
        return 0.0, 0, True
    x = np.full(n, 1.0 / n)
    lam_prev = None
    lam = 1.0
    converged = False
    iterations = 0
    # Overflowing iterates end in a NaN estimate, which callers' gates reject.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            y = values @ x + x
            lam = float(y.sum())  # 1-norm: y > 0 whenever x > 0
            x = y / lam
            if lam_prev is not None and abs(lam - lam_prev) <= tol * lam:
                converged = True
                break
            lam_prev = lam
    rho = min(max(lam - 1.0, 0.0), bound)
    return rho, iterations, converged
