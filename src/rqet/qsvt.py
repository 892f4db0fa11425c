"""Singular-value transformation drivers: polar factor, eigenspace filters.

The phased product of the eigenvalue transform also drives the singular
values of a general matrix once its oracle is the general dilation.
Both sides of the encoded block are the same top-block subspace, so the
one ancilla rotation serves every slot and nothing alternates between
left and right projectors.  With the sign-iteration phases the product
converges to the unitary polar factor.  Conditioning the sign unitary on
an extra ancilla between a pair of quarter Y rotations turns it into a
projector onto a chosen eigenspace, which is the preparation primitive;
preparation's two shifted filters are one stacked sign run of a (2, d, d) stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockenc import _blocks, _dilate_gram, extract
from .errors import DomainError, NumericError
from .linalg import (GAP_SLACK, _gram, _polar_factors, hermitian_eig, hermitian_eigvals,
                     operator_norm, require_square, require_unit_norm)
from .poly import pade
from .qet import _check_gap, _nest, _run_setup, IterationReport, qet_recursive_step, run_sign

_STEP_TOL = 1e-10


def _gram_update(X: np.ndarray, g_coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The odd iteration polynomial p(x) = x g(x^2), g's coefficients lowest
    first, applied through either Gram factor to each matrix of a (..., d, d)
    stack; both orderings must agree exactly."""
    d, Xh = X.shape[-1], np.swapaxes(X.conj(), -1, -2)

    def g_of(G: np.ndarray) -> np.ndarray:  # Horner in the Gram factor G
        out = np.zeros(G.shape, dtype=np.complex128)
        for c in g_coeffs[::-1]:
            out = out @ G + np.real(c) * np.eye(d)
        return out
    return X @ g_of(Xh @ X), g_of(X @ Xh) @ X


def run_polar(A: np.ndarray, delta: float, eps: float, l: int = 2,
              levels: int | None = None):
    """Iterate the singular-value sign transform toward the polar factor.

    Requires all singular values in [delta, 1]; one eigensolve of A^dag A
    serves that check, the polar factor and the dilation.  Levels run in
    qet._nest: a row's wall_time_ms covers only its level's step, and after
    the last step one stacked call checks every level's block against both
    Gram-side closed forms of p_l on the previous block, so a failing check
    raises after all n steps, at the first level that fails.  The reported
    error is against an independently computed polar factor.  Returns
    (encoding, report); extract(encoding) is the final iterate.
    """
    A = require_square(np.asarray(A, dtype=np.complex128))
    gram = hermitian_eig(_gram(A))
    sigma = np.sqrt(np.maximum(0.0, gram.eigenvalues))
    n, base, reports = _run_setup(delta, eps, l, levels)
    _check_gap(sigma, delta, "singular values outside [delta, 1]")
    unitary_factor, _ = _polar_factors(A, gram)
    g_coeffs = pade(l).coeffs[1::2]  # p_l(x) = x g(x^2), derived once per run

    def errors_of(X: np.ndarray) -> np.ndarray:
        if n:  # level k against level k - 1, level 1 against A; level 0 has no step to check
            via = np.stack(_gram_update(np.concatenate((A[None], X[:-1])), g_coeffs))
            dev = np.abs(via - X).max(axis=(0, 2, 3))  # per level, over both orderings
            if (dev > _STEP_TOL).any():
                raise NumericError(f"transform step disagrees with the Gram closed forms by "
                                   f"{dev[dev > _STEP_TOL][0]:.3e}")
        return operator_norm(np.subtract(X, unitary_factor, out=X))
    return _nest(_dilate_gram(A, gram), n, reports, lambda enc, k: qet_recursive_step(enc, base),
                 extract, errors_of), reports[0]


@dataclass(frozen=True)
class FilterResult:
    projector: np.ndarray
    unitary: np.ndarray
    report: IterationReport


def filtering_operator(A: np.ndarray, delta: float, eps: float, l: int = 2) -> FilterResult | list:
    """Approximate projector onto the positive eigenspace of A.

    Runs the sign iteration, conditions its unitary U on a fresh ancilla,
    and sandwiches between opposite quarter Y rotations; the result is
    [[I + U, I - U], [I - U, I + U]]/2, built from those blocks, and its
    top block is (identity + sign)/2.  A sign run that ends above eps
    raises NumericError.  An idempotency guard catches a wrong rotation
    pairing, which flips the block to (identity - X)/2 only when the
    iterate is far from a true sign.  run_sign checks A.  A (k, d, d) stack
    gives a list of k results of one stacked run, checked member by member.
    """
    be, reports = run_sign(A, delta, eps, l, mode="recursive")
    eye = np.eye(be.unitary.shape[-1])
    plus, minus = (eye + be.unitary) / 2, (eye - be.unitary) / 2
    full = _blocks(plus, minus, minus, plus)
    d, results, stacked = be.system_dim, [], full.ndim == 3
    for report, F in zip(reports if stacked else [reports], full if stacked else [full]):
        if not report.converged:
            raise NumericError(f"sign run ended at {report.final_error:.3e}, above eps = {eps:.3e}")
        P = F[:d, :d]
        dev = float(np.abs(P @ P - P).max())
        if dev > 3.0 * eps + 1e-9:
            raise NumericError(f"filter block violates idempotency by {dev:.3e}")
        results.append(FilterResult(P, F, report))
    return results if stacked else results[0]


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
    w = hermitian_eigvals(A)  # checks A before the gap is checked
    A = np.asarray(A, dtype=np.complex128)
    if not (0.0 < delta < 1.0):
        raise DomainError("spectral gap must lie strictly between 0 and 1")
    inner = np.abs(w) < delta - GAP_SLACK
    if int(inner.sum()) != 1:
        raise DomainError(f"need exactly one eigenvalue inside +-{delta:.3g}, found {int(inner.sum())}")
    if abs(float(w[inner][0])) > 1e-9:
        raise DomainError(f"the isolated eigenvalue {w[inner][0]:.3e} is not zero")
    require_unit_norm(w)
    scale, eff_gap, eps_each = 1.0 + delta / 2.0, delta / (2.0 + delta), eps / 2.0
    shift = (delta / 2.0) * np.eye(A.shape[0])
    f_plus, f_minus = filtering_operator(np.stack(((A + shift) / scale, -(A - shift) / scale)),
                                         eff_gap, eps_each, l)
    P0 = f_plus.projector @ f_minus.projector
    return PreparationResult(P0, eff_gap, eps_each, f_plus.report, f_minus.report)

