"""One-qubit unitary dilations and the block-encoding container.

A matrix with operator norm at most 1 embeds in the top-left block of a
unitary twice its size.  The Hermitian dilation [[A, B], [B, -A]] with
B = sqrt(I - A^2) also squares to the identity, which is what the
eigenvalue-transformation product relies on.  The layout is fixed: the
encoded matrix is the top-left block, the ancilla is one qubit and the
scale alpha is 1, so an encoding carries only its unitary, and the
system dimension is half the unitary's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import InputError, NumericError
from .linalg import (Spectrum, _gram, _unitarity_deviation, hermitian_eig,
                     matrix_function_hermitian, operator_norm,
                     require_square, require_unit_norm)

_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class BlockEncoding:
    """qubitized: the unitary is [[P, Q], [Q^dag, -P^dag]], P and Q commuting normal
    blocks; set only through _encoding, by the Hermitian dilation and odd recursive steps."""
    unitary: np.ndarray
    qubitized: bool = field(default=False, init=False)
    ancilla_dim: ClassVar[int] = 2
    reference_index: ClassVar[int] = 0   # the encoded block is the top-left one
    alpha: ClassVar[float] = 1.0   # both read by perfbench/workloads.py's encoded_block

    def __post_init__(self):
        U = np.asarray(self.unitary)
        if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] % 2 or not U.size:
            raise InputError(f"a block encoding needs a square unitary of even, positive size, "
                             f"got shape {U.shape}")
        object.__setattr__(self, "unitary", U)

    @property
    def system_dim(self) -> int:
        return self.unitary.shape[0] // self.ancilla_dim

    @property
    def total_dim(self) -> int:
        return self.unitary.shape[0]


def _encoding(U: np.ndarray, qubitized: bool) -> BlockEncoding:
    """An encoding of U with the qubitized flag set as given."""
    be = BlockEncoding(U)
    object.__setattr__(be, "qubitized", qubitized)
    return be


def extract(be: BlockEncoding) -> np.ndarray:
    """The encoded matrix: a copy of the top-left block of the unitary."""
    d = be.system_dim
    return be.unitary[:d, :d].copy()


def _blocks(a, b, c, e) -> np.ndarray:
    """[[a, b], [c, e]] of four d x d blocks, written into one array."""
    d = len(a)
    U = np.empty((2 * d, 2 * d), dtype=np.complex128)
    U[:d, :d], U[:d, d:], U[d:, :d], U[d:, d:] = a, b, c, e
    return U


def _check_unitary(U: np.ndarray, what: str) -> None:
    dev = _unitarity_deviation(U)
    if dev > _UNITARITY_TOL:
        raise NumericError(f"{what} failed the unitarity check by {dev:.3e}")


def dilate_hermitian(A: np.ndarray) -> BlockEncoding:
    """Hermitian dilation [[A, B], [B, -A]] with B = sqrt(I - A^2)."""
    spectrum = hermitian_eig(A)  # checks A
    return _dilate_spectrum(np.asarray(A, dtype=np.complex128), spectrum)


def _dilate_spectrum(A: np.ndarray, spectrum: Spectrum) -> BlockEncoding:
    """dilate_hermitian for a Hermitian A whose spectrum is already solved.

    A enters as its Hermitian part (A + A^dag)/2, which is A itself when A
    is exactly Hermitian, so the dilation equals its own adjoint even for
    an A that is Hermitian only within HERMITICITY_TOL."""
    w, V = spectrum
    require_unit_norm(w)
    A = (A + A.conj().T) / 2
    B = (V * np.sqrt(np.maximum(0.0, 1.0 - w * w))) @ V.conj().T
    B = (B + B.conj().T) / 2
    U = _blocks(A, B, B, -A)
    _check_unitary(U, "Hermitian dilation")
    return _encoding(U, qubitized=True)


def dilate_general(A: np.ndarray) -> BlockEncoding:
    """General dilation [[A, sqrt(I - A A^dag)], [sqrt(I - A^dag A), -A^dag]]."""
    A = require_square(np.asarray(A, dtype=np.complex128))
    require_unit_norm(operator_norm(A))
    right = matrix_function_hermitian(_gram(A), lambda t: np.sqrt(np.maximum(0.0, 1.0 - t)))
    left = matrix_function_hermitian(_gram(A.conj().T), lambda t: np.sqrt(np.maximum(0.0, 1.0 - t)))
    U = _blocks(A, left, right, -A.conj().T)
    _check_unitary(U, "general dilation")
    return BlockEncoding(U)
