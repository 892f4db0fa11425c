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
from .linalg import (Spectrum, _gram, _unitarity_deviation, hermitian_eig, require_square,
                     require_unit_norm)

_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class BlockEncoding:
    """One matrix's encoding, or a (k, 2d, 2d) stack of k (a stacked sign run), sized per member.
    qubitized: the unitary is [[P, Q], [Q^dag, -P^dag]], P and Q commuting normal
    blocks; set only through _encoding, by the Hermitian dilation and odd recursive steps."""
    unitary: np.ndarray
    qubitized: bool = field(default=False, init=False)
    reference_index: ClassVar[int] = 0   # the encoded block is the top-left one
    alpha: ClassVar[float] = 1.0   # both read by perfbench/workloads.py's encoded_block

    def __post_init__(self):
        U = np.asarray(self.unitary)
        if U.ndim not in (2, 3) or U.shape[-1] != U.shape[-2] or U.shape[-1] % 2 or not U.size:
            raise InputError(f"a block encoding needs a square unitary of even, positive size, "
                             f"got shape {U.shape}")
        object.__setattr__(self, "unitary", U)

    @property
    def system_dim(self) -> int:
        return self.unitary.shape[-1] // 2


def _encoding(U: np.ndarray, qubitized: bool) -> BlockEncoding:
    """An encoding of U with the qubitized flag set as given."""
    be = BlockEncoding(U)
    object.__setattr__(be, "qubitized", qubitized)
    return be


def extract(be: BlockEncoding) -> np.ndarray:
    """The encoded matrix: a copy of the top-left block of the unitary (of each, for a stack)."""
    d = be.system_dim
    return be.unitary[..., :d, :d].copy()


def _blocks(a, b, c, e) -> np.ndarray:
    """[[a, b], [c, e]] of four d x d blocks, or of four stacks of them, written into one array."""
    d = a.shape[-1]
    U = np.empty(a.shape[:-2] + (2 * d, 2 * d), dtype=np.complex128)
    U[..., :d, :d], U[..., :d, d:], U[..., d:, :d], U[..., d:, d:] = a, b, c, e
    return U


def _complement(V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sqrt(I - V diag(t) V^dag), t clipped at 1, per spectrum of a stack: each dilation's B."""
    return (V * np.sqrt(np.maximum(0.0, 1.0 - t))[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def dilate_hermitian(A: np.ndarray) -> BlockEncoding:
    """Hermitian dilation [[A, B], [B, -A]] with B = sqrt(I - A^2)."""
    spectrum = hermitian_eig(A)  # checks A
    require_unit_norm(spectrum.eigenvalues)
    return _dilate_spectrum(np.asarray(A, dtype=np.complex128), spectrum)


def _dilate_spectrum(A: np.ndarray, spectrum: Spectrum) -> BlockEncoding:
    """dilate_hermitian for a Hermitian A (or stack) of norm at most 1, its spectrum solved.

    A enters as its Hermitian part (A + A^dag)/2 (A itself when A is exactly
    Hermitian), so the dilation U equals its own adjoint and U^dag U - I =
    [[A^2 + B^2 - I, AB - BA], [BA - AB, A^2 + B^2 - I]] takes four d x d products."""
    w, V = spectrum
    A = (A + np.swapaxes(A.conj(), -1, -2)) / 2
    B = _complement(V, w * w)
    B = (B + np.swapaxes(B.conj(), -1, -2)) / 2
    dev = np.maximum(np.abs(A @ A + B @ B - np.eye(A.shape[-1])), np.abs(A @ B - B @ A))
    for worst in dev.max(axis=(-2, -1)).ravel():  # each member's, in order
        if worst > _UNITARITY_TOL:
            raise NumericError(f"Hermitian dilation failed the unitarity check by {worst:.3e}")
    return _encoding(_blocks(A, B, B, -A), qubitized=True)


def dilate_general(A: np.ndarray) -> BlockEncoding:
    """General dilation [[A, sqrt(I - A A^dag)], [sqrt(I - A^dag A), -A^dag]]."""
    A = require_square(A)
    gram = hermitian_eig(_gram(A))
    require_unit_norm(np.sqrt(np.maximum(0.0, gram.eigenvalues)))
    return _dilate_gram(A, gram)


def _dilate_gram(A: np.ndarray, gram: Spectrum) -> BlockEncoding:
    """dilate_general for a square A of norm at most 1 whose Gram spectrum (A^dag A) is
    solved: the right block is _complement of it, the left of A A^dag's (hermitian_eig)."""
    w, V = gram
    w_left, V_left = hermitian_eig(_gram(A.conj().T))
    U = _blocks(A, _complement(V_left, w_left), _complement(V, w), -A.conj().T)
    dev = _unitarity_deviation(U)
    if dev > _UNITARITY_TOL:
        raise NumericError(f"general dilation failed the unitarity check by {dev:.3e}")
    return BlockEncoding(U)
