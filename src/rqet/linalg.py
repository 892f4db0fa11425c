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

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InputError, NumericError, decode_pairs, read_json, write_json

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
    if not np.isfinite(M).all():
        raise DomainError("matrix has a NaN or infinite entry")
    return M


def require_hermitian(M: np.ndarray) -> np.ndarray:
    """Square and Hermitian within HERMITICITY_TOL, else a domain error naming the entry."""
    M = require_square(M)
    dev = np.abs(M - M.conj().T)
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
    """Run a LAPACK Hermitian solver on M after `check` (by default: finite,
    Hermitian within HERMITICITY_TOL) and at most MAX_DIM rows.  A failure
    to converge is reported as a numeric error."""
    M = check(M)
    require_dim(M.shape[0])
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


def matrix_function_hermitian(M: np.ndarray, f: Callable) -> np.ndarray:
    """Apply a vectorized scalar function to a Hermitian matrix through its spectrum."""
    w, V = hermitian_eig(M)
    with np.errstate(all="ignore"):
        fw = np.asarray(f(w), dtype=np.complex128)
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)][0]
        raise DomainError(f"function is undefined at eigenvalue {bad!r}")
    return (V * fw) @ V.conj().T


def _gram(M: np.ndarray) -> np.ndarray:
    """M^dag M as (G + G^dag)/2: entry (j, i) is bit for bit entry (i, j)'s conjugate."""
    G = M.conj().T @ M
    return (G + G.conj().T) / 2


def operator_norm(M: np.ndarray) -> float:
    """Largest singular value, from the spectrum of the Gram matrix, which is
    exactly Hermitian (_gram): the eigensolve checks only finiteness and size."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise DomainError(f"expected a matrix, got ndim {M.ndim}")
    w = _hermitian_solve(np.linalg.eigvalsh, _gram(M), require_square)
    return math.sqrt(max(0.0, float(w[-1])))


def _sign_of(spectrum: Spectrum) -> np.ndarray:
    """The spectral sign oracle of a solved spectrum; rejects eigenvalues
    within _SIGN_ZERO_TOL of zero."""
    w, V = spectrum
    scale = max(1.0, float(np.abs(w).max()))
    if np.any(np.abs(w) <= _SIGN_ZERO_TOL * scale):
        raise DomainError("sign is undefined: an eigenvalue sits at zero within tolerance")
    return (V * np.sign(w)) @ V.conj().T


def polar_oracle(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors (U, P) with M = U P, from the Gram spectrum.

    P is the Hermitian positive square root of M^dag M and U = M P^{-1}.
    """
    M = require_square(M)
    w, V = hermitian_eig(_gram(M))
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


def save_matrix(path: str, M: np.ndarray) -> None:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise InputError(f"expected a matrix, got ndim {M.ndim}")
    if not np.all(np.isfinite(M)):
        raise InputError("refusing to write non-finite entries")
    write_json(path, {"rows": int(M.shape[0]), "cols": int(M.shape[1]),
                      "entries": [[float(v.real), float(v.imag)] for v in M.ravel()]})
