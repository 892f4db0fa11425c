"""One-qubit unitary dilations and the block-encoding container.

A matrix with operator norm at most 1 embeds in the top-left block of a
unitary twice its size.  The Hermitian dilation [[A, B], [B, -A]] with
B = sqrt(I - A^2) also squares to the identity, which is what the
eigenvalue-transformation product relies on.  The layout is fixed: the
encoded matrix is the top-left block, the ancilla is one qubit and the
scale alpha is 1, so an encoding carries only its unitary and the
system dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, NumericError
from .linalg import (Spectrum, _unitarity_deviation, hermitian_eig,
                     matrix_function_hermitian, operator_norm,
                     require_hermitian, require_square)

_NORM_SLACK = 1e-12
_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class BlockEncoding:
    """qubitized: the unitary is [[P, Q], [Q^dag, -P^dag]], P and Q commuting normal
    blocks; set only by the Hermitian dilation, kept by qet_recursive_step on odd lists."""
    unitary: np.ndarray
    system_dim: int
    qubitized: bool = False
    ancilla_dim: ClassVar[int] = 2
    reference_index: ClassVar[int] = 0   # the encoded block is the top-left one
    alpha: ClassVar[float] = 1.0

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.ancilla_dim


def extract(be: BlockEncoding) -> np.ndarray:
    """The encoded matrix: a copy of the top-left block of the unitary."""
    d = be.system_dim
    return be.unitary[:d, :d].copy()


def _check_unitary(U: np.ndarray, what: str) -> None:
    dev = _unitarity_deviation(U)
    if dev > _UNITARITY_TOL:
        raise NumericError(f"{what} failed the unitarity check by {dev:.3e}")


def dilate_hermitian(A: np.ndarray) -> BlockEncoding:
    """Hermitian dilation [[A, B], [B, -A]] with B = sqrt(I - A^2)."""
    A = require_hermitian(A)
    return _dilate_spectrum(A, hermitian_eig(A))


def _dilate_spectrum(A: np.ndarray, spectrum: Spectrum) -> BlockEncoding:
    """dilate_hermitian for a Hermitian A whose spectrum is already solved.

    A enters as its Hermitian part (A + A^dag)/2, which is A itself when A
    is exactly Hermitian, so the dilation equals its own adjoint even for
    an A that is Hermitian only within HERMITICITY_TOL."""
    w, V = spectrum
    if float(np.abs(w).max()) > 1.0 + _NORM_SLACK:
        raise DomainError(f"operator norm {np.abs(w).max():.12f} exceeds 1")
    A = (A + A.conj().T) / 2
    B = (V * np.sqrt(np.maximum(0.0, 1.0 - w * w))) @ V.conj().T
    B = (B + B.conj().T) / 2
    U = np.block([[A, B], [B, -A]])
    _check_unitary(U, "Hermitian dilation")
    return BlockEncoding(U, A.shape[0], qubitized=True)


def dilate_general(A: np.ndarray) -> BlockEncoding:
    """General dilation [[A, sqrt(I - A A^dag)], [sqrt(I - A^dag A), -A^dag]]."""
    A = require_square(np.asarray(A, dtype=np.complex128))
    if operator_norm(A) > 1.0 + _NORM_SLACK:
        raise DomainError("operator norm exceeds 1")
    right = matrix_function_hermitian((A.conj().T @ A + (A.conj().T @ A).conj().T) / 2,
                                      lambda t: np.sqrt(np.maximum(0.0, 1.0 - t)))
    left = matrix_function_hermitian((A @ A.conj().T + (A @ A.conj().T).conj().T) / 2,
                                     lambda t: np.sqrt(np.maximum(0.0, 1.0 - t)))
    U = np.block([[A, left], [right, -A.conj().T]])
    _check_unitary(U, "general dilation")
    return BlockEncoding(U, A.shape[0])
