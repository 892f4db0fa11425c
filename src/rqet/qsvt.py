"""Singular-value transformation drivers: polar factor, eigenspace filters.

The phased product of the eigenvalue transform also drives the singular
values of a general matrix once its oracle is the general dilation.
Both sides of the encoded block are the same top-block subspace, so the
one ancilla rotation serves every slot and nothing alternates between
left and right projectors.  With the sign-iteration phases the product
converges to the unitary polar factor.  Conditioning the sign unitary on
an extra ancilla between a pair of quarter Y rotations turns it into a
projector onto a chosen eigenspace, which is the preparation primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np

from .blockenc import dilate_general, extract
from .errors import DomainError, NumericError
from .linalg import (_gram, hermitian_eigvals, operator_norm, polar_oracle,
                     require_hermitian, require_square)
from .poly import pade
from .qet import _check_gap, _run_setup, IterationReport, qet_recursive_step, run_sign

_STEP_TOL = 1e-10


def _gram_update(X: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The iteration polynomial applied through either Gram factor."""
    p = pade(l)
    # odd polynomial p(x) = x g(x^2); both orderings must agree exactly
    g_coeffs = p.coeffs[1::2]
    d = X.shape[0]

    def g_of(G: np.ndarray) -> np.ndarray:  # Horner in the Gram factor G
        out = np.zeros((d, d), dtype=np.complex128)
        for c in g_coeffs[::-1]:
            out = out @ G + np.real(c) * np.eye(d)
        return out
    return X @ g_of(X.conj().T @ X), g_of(X @ X.conj().T) @ X


def run_polar(A: np.ndarray, delta: float, eps: float, l: int = 2,
              levels: int | None = None):
    """Iterate the singular-value sign transform toward the polar factor.

    Requires all singular values in [delta, 1].  Each step is checked
    against both Gram-side closed forms of the iteration polynomial; the
    reported error is against an independently computed polar factor.
    Returns (encoding, report); extract(encoding) is the final iterate.
    """
    A = require_square(np.asarray(A, dtype=np.complex128))
    w = hermitian_eigvals(_gram(A))
    sigma = np.sqrt(np.maximum(0.0, w))
    _check_gap(sigma, delta, "singular values outside [delta, 1]")
    unitary_factor, _ = polar_oracle(A)
    n, base, report = _run_setup("polar", delta, eps, l, levels)
    enc = dilate_general(A)
    if n == 0:
        report.add(0, operator_norm(A - unitary_factor), 0.0)
        return enc, report
    X_prev = A
    for k in range(1, n + 1):
        t0 = time.perf_counter()
        enc = qet_recursive_step(enc, base)
        ms = (time.perf_counter() - t0) * 1e3
        X = extract(enc)
        via_right, via_left = _gram_update(X_prev, l)
        dev = max(float(np.abs(X - via_right).max()), float(np.abs(X - via_left).max()))
        if dev > _STEP_TOL:
            raise NumericError(f"transform step disagrees with the Gram closed forms by {dev:.3e}")
        report.add(k, operator_norm(X - unitary_factor), ms)
        X_prev = X
    return enc, report


@dataclass(frozen=True)
class FilterResult:
    projector: np.ndarray
    unitary: np.ndarray
    report: IterationReport


def filtering_operator(A: np.ndarray, delta: float, eps: float, l: int = 2) -> FilterResult:
    """Approximate projector onto the positive eigenspace of A.

    Runs the sign iteration, conditions its unitary U on a fresh ancilla,
    and sandwiches between opposite quarter Y rotations; the result is
    [[I + U, I - U], [I - U, I + U]]/2, built from those blocks, and its
    top block is (identity + sign)/2.  A sign run that ends above eps
    raises NumericError.  An idempotency guard catches a wrong rotation
    pairing, which flips the block to (identity - X)/2 only when the
    iterate is far from a true sign.
    """
    A = require_hermitian(A)
    be, report = run_sign(A, delta, eps, l, mode="recursive")
    if not report.converged:
        raise NumericError(f"sign run ended at {report.final_error:.3e}, above eps = {eps:.3e}")
    eye = np.eye(be.total_dim)
    plus, minus = (eye + be.unitary) / 2, (eye - be.unitary) / 2
    full = np.block([[plus, minus], [minus, plus]])
    d = be.system_dim
    P = full[:d, :d]
    dev = float(np.abs(P @ P - P).max())
    if dev > 3.0 * eps + 1e-9:
        raise NumericError(f"filter block violates idempotency by {dev:.3e}")
    return FilterResult(P, full, report)


@dataclass(frozen=True)
class PreparationResult:
    projector: np.ndarray
    effective_gap: float
    eps_each: float
    plus_report: IterationReport
    minus_report: IterationReport


def preparation_projector(A: np.ndarray, delta: float, eps: float, l: int = 2) -> PreparationResult:
    """Projector onto the unique zero eigenvector of a gapped A.

    Shifts A by half the gap each way, rescales into norm 1, and filters
    the positive eigenspace of both shifts.  The shifted matrices have
    gap delta/(2 + delta), and each filter gets half the error budget.
    """
    A = require_hermitian(A)
    if not (0.0 < delta < 1.0):
        raise DomainError("spectral gap must lie strictly between 0 and 1")
    w = hermitian_eigvals(A)
    inner = np.abs(w) < delta - 1e-9
    if int(inner.sum()) != 1:
        raise DomainError(f"need exactly one eigenvalue inside +-{delta:.3g}, found {int(inner.sum())}")
    if abs(float(w[inner][0])) > 1e-9:
        raise DomainError(f"the isolated eigenvalue {w[inner][0]:.3e} is not zero")
    if float(np.abs(w).max()) > 1.0 + 1e-9:
        raise DomainError("eigenvalues must lie in [-1, 1]")
    scale, eff_gap, eps_each = 1.0 + delta / 2.0, delta / (2.0 + delta), eps / 2.0
    shift = (delta / 2.0) * np.eye(A.shape[0])
    f_plus = filtering_operator((A + shift) / scale, eff_gap, eps_each, l)
    f_minus = filtering_operator(-(A - shift) / scale, eff_gap, eps_each, l)
    P0 = f_plus.projector @ f_minus.projector
    return PreparationResult(P0, eff_gap, eps_each, f_plus.report, f_minus.report)

