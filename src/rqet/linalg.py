"""Dense complex linear algebra used as the package's reference layer.

The eigensolver is LAPACK's Hermitian driver (zheevd); every spectral
quantity downstream (sign oracle, polar factors, operator norms) comes
from it.  hermitian_eig reaches it through numpy.linalg.eigh, and
hermitian_eigvals, for callers that would discard the eigenvectors,
through numpy.linalg.eigvalsh, which runs the same driver without
computing them.  Both share one input check; operator_norm's eigensolve
skips its Hermitian part, as _gram is exactly Hermitian by construction.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InputError, NumericError, decode_pairs, read_json

MAX_DIM = 64
HERMITICITY_TOL = 1e-12
NORM_SLACK = 1e-12       # the one upper bound on eigenvalue, singular value and point magnitudes
_SIGN_ZERO_TOL = 1e-12   # eigenvalues this close to zero, relative to the norm, have no sign
_RESIDUAL_TOL = 1e-10    # unitarity and polar-factorization residuals


class Spectrum(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    vectors: np.ndarray      # unitary, columns matched to eigenvalues


def require_square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    return _require_finite(M)


def _require_finite(M: np.ndarray) -> np.ndarray:
    if not np.isfinite(M).all():
        raise DomainError("matrix has a NaN or infinite entry")
    return M


def require_hermitian(M: np.ndarray) -> np.ndarray:
    """Square and Hermitian within HERMITICITY_TOL, else a domain error naming the entry."""
    M = np.asarray(M, dtype=np.complex128)
    for m in M if M.ndim == 3 else [M]:  # a (k, n, n) stack matrix by matrix
        dev = np.abs(require_square(m) - m.conj().T)
        worst = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[worst] > HERMITICITY_TOL:
            i, j = int(worst[0]), int(worst[1])
            raise DomainError(
                f"matrix is not Hermitian: |M[{i},{j}] - conj(M[{j},{i}])| = {dev[worst]:.3e}"
            )
    return M


def require_unit_norm(values, what: str = "operator norm") -> None:
    """Refuse magnitudes past 1 + NORM_SLACK, or a NaN, naming the largest."""
    top = float(np.max(np.abs(values), initial=0.0))
    if not top <= 1.0 + NORM_SLACK:
        raise DomainError(f"{what} {top:.12f} exceeds 1")


def require_dim(n: int) -> None:
    """Refuse a dimension over MAX_DIM with a domain error."""
    if n > MAX_DIM:
        raise DomainError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")


def _hermitian_solve(solver: Callable, M: np.ndarray, check: Callable = require_hermitian):
    """Run a LAPACK Hermitian solver on M, or a (..., n, n) stack of them,
    after `check` (by default: finite, Hermitian within HERMITICITY_TOL) and
    at most MAX_DIM rows.  A failure to converge is reported as a numeric error."""
    M = check(M)
    require_dim(M.shape[-1])
    try:
        return solver(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc


def hermitian_eig(M: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    Eigenvalues are returned in ascending order.  A LAPACK failure to
    converge is reported as a numeric error.
    """
    return Spectrum(*_hermitian_solve(np.linalg.eigh, M))


def hermitian_eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, without the vectors
    (numpy.linalg.eigvalsh); the same checks and errors as hermitian_eig."""
    return _hermitian_solve(np.linalg.eigvalsh, M)


def _gram(M: np.ndarray) -> np.ndarray:
    """M^dag M, per matrix, as (G + G^dag)/2, summed and halved in place:
    entry (j, i) is exactly entry (i, j)'s conjugate."""
    G = np.swapaxes(M.conj(), -1, -2) @ M
    G += np.swapaxes(G.conj(), -1, -2)
    return np.divide(G, 2, out=G)


def operator_norm(M: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each in a (..., m, n) stack
    (an array, bit for bit the 2-d calls), from the Gram spectrum; _gram is
    exactly Hermitian, so the one eigensolve checks only finiteness and size."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim < 2:
        raise DomainError(f"expected a matrix, got ndim {M.ndim}")
    with np.errstate(over="ignore", invalid="ignore"):  # a Gram matrix that overflows is refused
        w = _hermitian_solve(np.linalg.eigvalsh, _gram(_require_finite(M)), _require_finite)
    top = np.sqrt(np.maximum(0.0, w[..., -1])) + 0.0  # + 0.0: no sqrt(-0.0) = -0.0
    return float(top) if M.ndim == 2 else top


def _sign_of(spectrum: Spectrum) -> np.ndarray:
    """The spectral sign oracle of a solved spectrum, or of each of a stack's;
    rejects eigenvalues within _SIGN_ZERO_TOL of zero, relative to their matrix's."""
    w, V = spectrum
    scale = np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True))
    if np.any(np.abs(w) <= _SIGN_ZERO_TOL * scale):
        raise DomainError("sign is undefined: an eigenvalue sits at zero within tolerance")
    return (V * np.sign(w)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def polar_oracle(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors (U, P) with M = U P, from the Gram spectrum: P is the
    Hermitian positive square root of M^dag M and U = M P^{-1}."""
    M = require_square(M)
    return _polar_factors(M, hermitian_eig(_gram(M)))


def _polar_factors(M: np.ndarray, gram: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """polar_oracle for a square M whose Gram spectrum (M^dag M) is solved."""
    w, V = gram
    sigma = np.sqrt(np.maximum(0.0, w))
    if sigma[0] < 1e-8:
        raise DomainError(f"polar factor is ill-conditioned: smallest singular value {sigma[0]:.3e}")
    P = (V * sigma) @ V.conj().T
    U = M @ ((V * (1.0 / sigma)) @ V.conj().T)
    if _unitarity_deviation(U) > _RESIDUAL_TOL or np.abs(U @ P - M).max() > _RESIDUAL_TOL:
        raise NumericError(f"polar factorization residual exceeded {_RESIDUAL_TOL:g}")
    return U, P


def _unitarity_deviation(U: np.ndarray) -> float:
    """Largest entry of |U^dag U - I|."""
    return float(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max())


# ------------------------------------------------------------------- file io

def load_matrix(path: str) -> np.ndarray:
    """Read a matrix from JSON: rows, cols, and row-major [re, im] entries."""
    doc = read_json(path, "matrix", ("rows", "cols", "entries"))
    rows, cols = doc["rows"], doc["cols"]
    if not (type(rows) is int and type(cols) is int and rows > 0 and cols > 0):  # no bool
        raise InputError("rows and cols must be positive integers")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InputError(f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    return np.array(decode_pairs(entries, "entry"), dtype=np.complex128).reshape(rows, cols)
