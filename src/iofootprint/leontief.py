"""Coefficient, intensity, and attribution mathematics.

The chain implemented here: normalize the transaction table into
coefficient matrices, turn a sectoral emission account into a direct
intensity (emissions per unit of money), propagate it through all
inter-sector exchange chains, and attribute the propagated total back to
final demand or to value added. The central identity is conservation:
applying the total intensity to demand recovers exactly the measured
emission total, so nothing is lost or double counted.

Two normalizations of the same table appear throughout:

* technical coefficients ``A`` with ``a[i, j] = c[i, j] / t[j]`` (column
  normalized; what sector j buys per unit of its own output), and
* allocation coefficients ``B`` with ``b[i, j] = c[i, j] / t[i]`` (row
  normalized; where sector i's output goes per unit of it).

The consumer-side total intensity is ``X = F (I - A)^-1``; the dual that
distributes emissions over value added is ``Y = F (I - B^T)^-1``. The
allocation matrix, not the transposed technical matrix, is what makes the
dual conserve: ``V = (I - B^T) T`` holds by the column balance, mirroring
``D = (I - A) T`` on the row side. The transposed-technical variant is
kept only as a comparison (it overcounts on economies with unequal
totals; see :func:`systemic_intensity_from_technical`).

This module also owns the requirements matrix ``I - A`` itself: how it is
factored (:class:`Factorization`), when the factorization is refused
(the ``RCOND_FAIL`` gate), and when its series diverges (the spectral
radius estimate against ``RHO_MARGIN``). The factorization calls
scipy's compiled LAPACK module directly. That module is loaded on the
first factorization, from its file, after a plain ``import scipy``;
``scipy.linalg`` itself is never imported, and commands that factor
nothing (reading and validating a table, generating one, the series
path) load no scipy at all.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .economy import (
    Economy,
    EmissionAccount,
    _as_readonly,
    _check_entries,
    _check_shape,
    _fsum,
)
from .errors import (
    ConditioningWarning,
    DimensionMismatch,
    Divergent,
    DomainError,
    KindMismatch,
    SingularSystem,
    Truncated,
    ZeroTotal,
)

NEUMANN_TOL = 1e-10
NEUMANN_MAX_TERMS = 100_000
# A spectral radius estimate at or beyond 1 - RHO_MARGIN means the series
# cannot converge and the requirements inverse is treated as nonexistent.
RHO_MARGIN = 1e-12
# Reciprocal condition number thresholds: below RCOND_FAIL the factorization
# is rejected as singular to working precision; below RCOND_WARN a warning is
# emitted but the solve proceeds.
RCOND_FAIL = 1e-14
RCOND_WARN = 1e-8


class CoefficientKind(enum.Enum):
    TECHNICAL = "technical"
    ALLOCATION = "allocation"


class IntensityKind(enum.Enum):
    DIRECT = "direct"
    TOTAL_CONSUMER = "total_consumer"
    TOTAL_SYSTEMIC = "total_systemic"


@dataclass(frozen=True)
class CoefficientMatrix:
    """A dimensionless normalized transaction matrix, tagged by kind."""

    kind: CoefficientKind
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise DimensionMismatch(
                f"coefficient matrix must be square, got shape {self.values.shape}"
            )
        _check_entries(self.values, "coefficient")

    @classmethod
    def _over(cls, kind: CoefficientKind, values: np.ndarray) -> CoefficientMatrix:
        """A matrix over a read-only view of ``values``: no copy, no entry check.

        For a caller that has vetted ``values`` and changes them only
        between uses of the result.
        """
        view = values.view()
        view.flags.writeable = False
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "kind", kind)
        object.__setattr__(matrix, "values", view)
        return matrix

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class IntensityVector:
    """A row functional on sector space, in emission-per-money units."""

    kind: IntensityKind
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))
        if self.values.ndim != 1:
            raise DimensionMismatch(
                f"intensity must be a vector, got shape {self.values.shape}"
            )
        _check_entries(self.values, "intensity", nonnegative=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AttributionReport:
    """Per-sector attributed emissions plus the conservation check.

    ``total_attributed`` is the compensated sum of ``per_sector`` taken in
    a fixed left-to-right order, so reports are bit-reproducible.
    ``conservation_residual`` compares it against the measured emission
    total, relatively when that total is nonzero and absolutely otherwise.
    """

    per_sector: np.ndarray
    total_attributed: float
    total_emissions: float
    conservation_residual: float

    def __post_init__(self):
        object.__setattr__(self, "per_sector", _as_readonly(self.per_sector))


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module, loaded without ``scipy.linalg``.

    Importing ``scipy.linalg`` takes about 0.3 s, most of it in modules the
    three routines used here never touch. Its extension module
    ``_flapack`` is loaded instead, from its file in ``scipy/linalg``,
    under its own name, so a later ``import scipy.linalg`` reuses it. The
    plain ``import scipy`` before it is a few milliseconds and runs
    scipy's platform setup (the bundled-library path on Windows). A scipy
    that keeps the module elsewhere is imported the ordinary way.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    return importlib.import_module(name)


class _ThreadCount:
    """The thread count of one OpenBLAS library, pinned to one while held.

    The count is process-wide. ``openblas_set_num_threads_local``, which
    returns the old count, changes the count every thread uses in the
    OpenBLAS builds numpy and scipy bundle (0.3.30 and 0.3.31 checked),
    just as the plain setters do. So the pin counts the threads holding
    it, saves the count the first one found and restores it when the last
    one leaves. Each thread sets the count to one as it takes the pin,
    which also covers a library whose local setter is truly per thread. A
    thread that already holds the pin only counts its nested holds: every
    factorization inside a ``perturb`` worker's pin takes that path.
    """

    def __init__(self, swap):
        self._swap = swap  # sets a count and returns the one it replaced
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 1
        self._depth = threading.local()  # this thread's nested holds

    def pin(self) -> int:
        """Set the count to one; returns the count before the first holder."""
        depth = getattr(self._depth, "value", 0)
        if depth == 0:
            with self._lock:
                old = self._swap(1)
                if self._holders == 0:
                    self._saved = old
                self._holders += 1
        self._depth.value = depth + 1
        return self._saved

    def unpin(self) -> None:
        depth = self._depth.value - 1
        self._depth.value = depth
        if depth == 0:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    self._swap(self._saved)


_THREAD_COUNT_LOCK = threading.Lock()


@functools.cache
def _thread_count(path: str) -> _ThreadCount | None:
    """The OpenBLAS thread count the extension module at ``path`` calls into.

    The setter is looked up through the module itself, so the symbol found
    is the one of the library that module links. None when there is none
    (another BLAS, or a platform where the lookup does not see it).
    """
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    local = getattr(library, "openblas_set_num_threads_local", None)
    if local is not None:
        local.argtypes, local.restype = [ctypes.c_int], ctypes.c_int
        return _ThreadCount(local)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            if set_ is not None and get is not None:
                set_.argtypes, set_.restype = [ctypes.c_int], None
                get.argtypes, get.restype = [], ctypes.c_int

                def swap(count, set_=set_, get=get):
                    old = get()
                    set_(count)
                    return old
                return _ThreadCount(swap)
    return None


class _BlasPin:
    """A reusable context manager: one thread in each of ``counts`` while inside.

    Entering returns the count the first library had before it was first
    pinned, or None when there is no library to pin.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: tuple[_ThreadCount, ...]):
        self._counts = counts

    def __enter__(self) -> int | None:
        threads = None
        for count in self._counts:
            held = count.pin()
            if threads is None:
                threads = held
        return threads

    def __exit__(self, *exc_info) -> None:
        for count in reversed(self._counts):
            count.unpin()


@functools.cache
def _one_blas_thread(*modules) -> _BlasPin:
    """A pin to one thread in the OpenBLAS each of ``modules`` links.

    ``modules`` are compiled modules: scipy's LAPACK module (:func:`_lapack`)
    or numpy's ``_umath_linalg``. OpenBLAS splits a factorization's or a
    solve's sums by thread, so their last bits depend on the thread count;
    at one thread they repeat on every host. Use it as ``with
    _one_blas_thread(module) as threads:``; ``threads`` is the count the
    BLAS had when the call began, or None when no module's library has a
    setter (the block then runs at the ambient count). One shared pin per
    set of modules, since every factorization and solve enters one.
    """
    with _THREAD_COUNT_LOCK:  # first pins that race still share one count
        counts = (_thread_count(m.__file__) for m in modules)
        return _BlasPin(tuple(count for count in counts if count is not None))


def _warning_at_caller(message: str, category):
    """A callable that issues ``message`` later, as the function calling this
    would now with ``warnings.warn(message, category, stacklevel=2)``.

    The warning names the same location, so filters and the once per
    location and message de-duplication treat it as they would have then.
    """
    frame = sys._getframe(2)
    filename, lineno, module_globals = (frame.f_code.co_filename, frame.f_lineno,
                                        frame.f_globals)
    del frame

    def issue() -> None:
        warnings.warn_explicit(
            message, category, filename, lineno,
            module=module_globals.get("__name__", "<string>"),
            registry=module_globals.setdefault("__warningregistry__", {}),
            module_globals=module_globals,
        )
    return issue


class Factorization:
    """The requirements matrix ``I - A`` of coefficient values ``A``, LU-factored.

    Row-pivoted LU (LAPACK ``dgetrf``), reusable for solves. The reciprocal
    condition number (1-norm, ``dgecon``) is estimated at construction; a
    requirements matrix singular to working precision raises
    :class:`SingularSystem` immediately, so every solve through this object
    is backed by a usable pivot sequence.

    ``I - A`` is formed in ``work`` when it is given: an n-by-n float array
    in Fortran order, which then holds the LU factors. A caller factoring
    many matrices of one size reuses it to allocate nothing per matrix.

    Every LAPACK call runs at one BLAS thread (:func:`_one_blas_thread`),
    so the factors and solutions are the same bits at any thread count.
    Given a list as ``deferred``, a :class:`ConditioningWarning` is not
    issued but appended to it, as a callable that issues it later as if
    from here (see :func:`_warning_at_caller`).
    """

    def __init__(self, values: np.ndarray, *, work: np.ndarray | None = None,
                 deferred: list | None = None):
        lapack = _lapack()
        n = len(values)
        matrix = np.empty((n, n), order="F") if work is None else work
        # I - A without an identity matrix, entry for entry as np.eye(n) - A
        # computes it (off the diagonal 0.0 - a, so zeros stay +0.0).
        np.subtract(0.0, values, out=matrix)
        np.fill_diagonal(matrix, 1.0 - np.diagonal(values))
        with _one_blas_thread(lapack):
            # A 1-norm that overflows is inf, which makes gecon fail; the info
            # gate below turns that into SingularSystem.
            anorm = lapack.dlange("1", matrix)
            # An exactly singular U (info > 0) gets rcond 0 from gecon, which
            # the rcond gate below turns into SingularSystem.
            lu, piv, info = lapack.dgetrf(matrix, overwrite_a=True)
            if info < 0:
                raise SingularSystem(
                    f"LU factorization failed (LAPACK info={info})", rcond=None
                )
            rcond, info = lapack.dgecon(lu, anorm, norm="1")
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
            message = (f"matrix is poorly conditioned (rcond {rcond:.3e}); "
                       "results may lose accuracy")
            if deferred is None:
                warnings.warn(message, ConditioningWarning, stacklevel=2)
            else:
                deferred.append(_warning_at_caller(message, ConditioningWarning))
        self._lu_piv = (lu, piv)
        self._rcond = rcond

    @property
    def rcond(self) -> float:
        """Estimated reciprocal condition number (1-norm)."""
        return self._rcond

    def solve(self, rhs: np.ndarray, transposed: bool = False, *,
              overwrite: bool = False) -> np.ndarray:
        """Solve ``(I - A) x = rhs`` (or ``(I - A)^T x = rhs`` when ``transposed``).

        With ``overwrite``, a float ``rhs`` in Fortran order is overwritten
        by the solution and returned; any other ``rhs`` is copied.
        """
        lapack = _lapack()
        with _one_blas_thread(lapack):
            x, info = lapack.dgetrs(*self._lu_piv, rhs,
                                    trans=1 if transposed else 0, overwrite_b=overwrite)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
        return x


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


def _divergent_radius(values: np.ndarray) -> float | None:
    """The spectral radius estimate of ``values`` if it is not below one, else None.

    "Below one" means below ``1 - RHO_MARGIN``. When the Perron-Frobenius
    bound is already below that, power iteration is skipped: the estimate
    is capped at the bound, so it could not reach the margin. A NaN
    estimate (overflowing iterates) counts as divergent.
    """
    if perron_bound(values) < 1.0 - RHO_MARGIN:
        return None
    rho, _, _ = spectral_radius_estimate(values)
    return None if rho < 1.0 - RHO_MARGIN else rho


def _require_kind(obj, kind, what: str):
    if obj.kind is not kind:
        raise KindMismatch(
            f"{what} requires kind {kind.value!r}, got {obj.kind.value!r}"
        )


def _require_operands(direct: IntensityVector, matrix: CoefficientMatrix,
                      kind: CoefficientKind, what: str) -> None:
    _require_kind(direct, IntensityKind.DIRECT, what)
    _require_kind(matrix, kind, what)
    _check_shape(matrix.values, (direct.n, direct.n), "coefficient matrix")


def _require_weights(intensity: IntensityVector, kind: IntensityKind,
                     weights, name: str, what: str) -> np.ndarray:
    _require_kind(intensity, kind, what)
    weights = np.asarray(weights, dtype=float)
    _check_shape(weights, intensity.values.shape, name)
    return weights


def _require_positive_totals(econ: Economy):
    if (econ.totals <= 0).any():
        i = int(np.argmax(econ.totals <= 0))
        raise ZeroTotal(
            f"sector {econ.sectors[i]!r} has zero total output; "
            "cannot normalize by it",
            sector=econ.sectors[i],
        )


def technical_coefficients(econ: Economy) -> CoefficientMatrix:
    """Column-normalized coefficients ``a[i, j] = c[i, j] / t[j]``.

    Column j sums to ``(t_j - v_j) / t_j``, the intermediate share of
    sector j's costs, which is strictly below one whenever its value added
    is positive.
    """
    _require_positive_totals(econ)
    values = econ.transactions / econ.totals[np.newaxis, :]
    _check_entries(values, "coefficient")
    return CoefficientMatrix._over(CoefficientKind.TECHNICAL, values)


def allocation_coefficients(econ: Economy) -> CoefficientMatrix:
    """Row-normalized coefficients ``b[i, j] = c[i, j] / t[i]``.

    Row i sums to ``(t_i - d_i) / t_i``, the intermediate share of sector
    i's sales. This is the normalization for which value added satisfies
    ``V = (I - B^T) T``, the input-side mirror of ``D = (I - A) T``.
    """
    _require_positive_totals(econ)
    values = econ.transactions / econ.totals[:, np.newaxis]
    _check_entries(values, "coefficient")
    return CoefficientMatrix._over(CoefficientKind.ALLOCATION, values)


def direct_intensity(econ: Economy, account: EmissionAccount) -> IntensityVector:
    """Emissions per unit of money of each sector's own operations, ``e_i / t_i``."""
    _require_positive_totals(econ)
    _check_shape(account.emissions, (econ.n,), "emission account")
    # A quotient that overflows is rejected as not finite by IntensityVector.
    with np.errstate(over="ignore"):
        values = account.emissions / econ.totals
    return IntensityVector(IntensityKind.DIRECT, values)


def leontief_inverse(coefficients: CoefficientMatrix, *,
                     out: np.ndarray | None = None,
                     work: np.ndarray | None = None,
                     deferred: list | None = None) -> np.ndarray:
    """The requirements inverse ``(I - A)^-1``, formed explicitly.

    Computed as n linear solves against the identity on a single
    row-pivoted factorization. :func:`~iofootprint.sensitivity.perturb_inverse`
    forms it for the baseline and for every non-divergent sample to measure
    how far the inverse moves; the intensity operations below solve against
    the factorization directly instead of multiplying by this inverse.

    ``out`` receives the inverse and ``work`` the factors (see
    :class:`Factorization`); both are n-by-n float arrays in Fortran order.
    Given both, nothing of size n-by-n is allocated. ``out`` may share
    memory with the coefficient values: they are read only before it is
    written. ``deferred`` is passed on to :class:`Factorization`.

    Raises :class:`SingularSystem` (with the estimated reciprocal condition
    number) when ``I - A`` is singular to working precision.
    """
    factorization = Factorization(coefficients.values, work=work, deferred=deferred)
    n = coefficients.n
    if out is None:
        out = np.empty((n, n), order="F")
    out.fill(0.0)
    np.fill_diagonal(out, 1.0)
    return factorization.solve(out, overwrite=True)


def total_intensity(direct: IntensityVector,
                    technical: CoefficientMatrix) -> IntensityVector:
    """Total (direct plus all upstream) intensity ``X = F (I - A)^-1``.

    ``X`` is obtained from one transposed solve of ``X (I - A) = F``; the
    inverse is never formed.
    """
    _require_operands(direct, technical, CoefficientKind.TECHNICAL, "total intensity")
    values = Factorization(technical.values).solve(direct.values, transposed=True)
    return IntensityVector(IntensityKind.TOTAL_CONSUMER, values)


def total_intensity_neumann(direct: IntensityVector,
                            technical: CoefficientMatrix,
                            tol: float = NEUMANN_TOL,
                            max_terms: int = NEUMANN_MAX_TERMS,
                            ) -> tuple[IntensityVector, int]:
    """Total intensity by accumulating the series ``F + FA + FA^2 + ...``.

    Terms are added until the next one is at most ``tol`` times the sup
    norm of the partial sum. Returns the partial sum and the number of
    terms it contains. Serves as the executable series form of the
    requirements inverse and as an independent cross-check of the solve
    path.

    Raises
    ------
    DomainError
        when ``tol`` is negative or NaN.
    Divergent
        when the spectral radius estimate of the matrix reaches one, or is
        NaN because power iteration overflowed.
    Truncated
        when ``max_terms`` is hit first; the exception carries the partial
        sum, its term count, and the relative size of the next term.
    """
    if not tol >= 0:
        raise DomainError(f"tol must be nonnegative, got {tol!r}")
    _require_operands(direct, technical, CoefficientKind.TECHNICAL,
                      "series total intensity")
    rho = _divergent_radius(technical.values)
    if rho is not None:
        raise Divergent(
            f"series diverges: spectral radius estimate {rho:.12g} is not below 1"
        )
    A = technical.values
    partial = direct.values.copy()
    term = direct.values
    terms = 1
    # A partial sum that overflows ends the loop; IntensityVector then
    # rejects it as not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            term = term @ A
            term_norm = float(np.abs(term).max())
            partial_norm = float(np.abs(partial).max())
            if term_norm <= tol * partial_norm or not math.isfinite(partial_norm):
                break
            if terms >= max_terms:
                raise Truncated(
                    f"series not converged after {terms} terms "
                    f"(next term relative size {term_norm / partial_norm:.3e})",
                    residual=term_norm / partial_norm,
                    partial=IntensityVector(IntensityKind.TOTAL_CONSUMER, partial),
                    terms=terms,
                )
            partial = partial + term
            terms += 1
    return IntensityVector(IntensityKind.TOTAL_CONSUMER, partial), terms


def consumer_direct_footprint(direct: IntensityVector, demand: np.ndarray) -> float:
    """Footprint attributed to consumers by direct intensity alone, ``<D, F>``.

    Deliberately not conserved: it misses every intermediate exchange, so
    it undercounts the measured emission total whenever sectors trade.
    """
    demand = _require_weights(direct, IntensityKind.DIRECT, demand, "demand",
                              "direct consumer footprint")
    return float(direct.values @ demand)


def _attribution(weights: np.ndarray, intensity: np.ndarray,
                 account: EmissionAccount) -> AttributionReport:
    with np.errstate(over="ignore"):
        per_sector = intensity * weights
    _check_entries(per_sector, "attributed emission", nonnegative=False)
    # fsum: compensated, order-independent, bit-reproducible totals.
    total_attributed = _fsum(per_sector, "attributed emission total")
    total_emissions = account.total
    diff = abs(total_attributed - total_emissions)
    residual = diff / total_emissions if total_emissions > 0 else diff
    return AttributionReport(per_sector, total_attributed, total_emissions, residual)


def attribute_to_demand(total: IntensityVector, demand: np.ndarray,
                        account: EmissionAccount) -> AttributionReport:
    """Attribute the emission total over final demand, ``x_i * d_i`` per sector.

    For a balanced economy this attribution conserves: the attributed total
    equals the measured emission total up to roundoff, because
    ``<X, D> = <F (I-A)^-1, (I-A) T> = F T = |E|``.
    """
    demand = _require_weights(total, IntensityKind.TOTAL_CONSUMER, demand, "demand",
                              "demand attribution")
    return _attribution(demand, total.values, account)


def systemic_intensity(direct: IntensityVector,
                       allocation: CoefficientMatrix) -> IntensityVector:
    """Value-added-side total intensity ``Y = F (I - B^T)^-1``.

    ``Y`` distributes the emission total over where margins are made rather
    than where demand is spent. Computed from one solve of
    ``(I - B) Y^T = F^T`` (transposing the defining equation), so the
    inverse is never formed.
    """
    _require_operands(direct, allocation, CoefficientKind.ALLOCATION,
                      "systemic intensity")
    values = Factorization(allocation.values).solve(direct.values)
    return IntensityVector(IntensityKind.TOTAL_SYSTEMIC, values)


def systemic_intensity_from_technical(direct: IntensityVector,
                                      technical: CoefficientMatrix) -> IntensityVector:
    """The transposed-technical variant ``Y = F (I - A^T)^-1``, for comparison.

    This variant fails the conservation check ``<Y, V> = |E|`` on generic
    economies; it coincides with :func:`systemic_intensity` exactly when
    all sector totals are equal (then ``B = A``). It exists so tests and
    reports can demonstrate the discrepancy, not for production use.
    """
    _require_operands(direct, technical, CoefficientKind.TECHNICAL,
                      "systemic intensity comparison")
    values = Factorization(technical.values).solve(direct.values)
    return IntensityVector(IntensityKind.TOTAL_SYSTEMIC, values)


def attribute_to_value_added(systemic: IntensityVector, value_added: np.ndarray,
                             account: EmissionAccount) -> AttributionReport:
    """Attribute the emission total over value added, ``y_i * v_i`` per sector.

    Conserves for the allocation-based systemic intensity on balanced
    economies, by the same argument as the demand-side attribution with
    ``V = (I - B^T) T`` in place of ``D = (I - A) T``.
    """
    value_added = _require_weights(systemic, IntensityKind.TOTAL_SYSTEMIC, value_added,
                                   "value added", "value-added attribution")
    return _attribution(value_added, systemic.values, account)


def demand_identity_residual(econ: Economy, coefficients: CoefficientMatrix) -> float:
    """Residual of the rewritten output balance ``D = (I - A) T``.

    For a balanced economy and its technical coefficient matrix the row
    balance identity rearranges exactly into ``D = (I - A) T``; this is the
    pivot of the conservation argument, so its numerical residual is worth
    monitoring on real data. Returns the sup-norm residual relative to
    ``max|D|`` (absolute when demand is identically zero).
    """
    _require_kind(coefficients, CoefficientKind.TECHNICAL, "demand identity")
    _check_shape(coefficients.values, (econ.n, econ.n), "coefficient matrix")
    lhs = econ.demand
    rhs = econ.totals - coefficients.values @ econ.totals
    residual = float(np.abs(lhs - rhs).max())
    scale = float(np.abs(lhs).max())
    return residual / scale if scale > 0 else residual
