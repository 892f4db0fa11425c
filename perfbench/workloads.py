"""Benchmark workloads: seeded inputs, the driver calls, independent checks.

A *solve* is one round of driver calls made one after another, the next
issued when the last returns (a closed loop with one client).  Inputs of
round `i` depend only on (seed, i).  rqet receives only the generated
matrices; every output is checked against a reference that shares none
of rqet's code: `numpy.linalg.eigh` for sign, filter and preparation,
`numpy.linalg.svd` for the polar factor, and direct iteration of p_l
(written here) for scalar sign tables and flattened phase lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output has the wrong shape or structure for its request."""


@dataclass
class Call:
    label: str
    run: Callable[[], object]            # the driver call, the only timed part
    check: Callable[[object], float]     # distance of the output from its reference
    tol: float                           # the request's own tolerance on that distance
    health: Callable[[object], float] | None = None   # traced runs only, untimed


@dataclass(frozen=True)
class Workload:
    name: str
    pade_ls: tuple[int, ...]             # family members the requests derive phases for
    digest_rounds: int                   # rounds whose errors enter the digest
    make_round: Callable[[object, np.random.Generator], list[Call]]


# ------------------------------------------------------------- references

def pade_direct(l: int, x: np.ndarray) -> np.ndarray:
    """p_l(x) = x * sum_{k<=l} binom(2k, k) / 4^k * (1 - x^2)^k, by Horner in 1 - x^2."""
    u = 1.0 - x * x
    acc = np.zeros_like(x)
    for k in range(l, -1, -1):
        acc = acc * u + math.comb(2 * k, k) / 4.0 ** k
    return x * acc


def iterate_direct(l: int, levels: int, x: np.ndarray) -> np.ndarray:
    y = np.asarray(x, dtype=np.float64)
    for _ in range(levels):
        y = pade_direct(l, y)
    return y


def levels_needed(gap: float, eps: float, l: int) -> int:
    """Nesting depth the paper's bound asks for: (l+1)^n >= gap^-2 ln(1/eps)."""
    target = math.log(1.0 / eps) / (gap * gap)
    return max(0, math.ceil(math.log(target) / math.log(l + 1)))


def chain_upper_left(phases: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Top-left entry of prod_i exp(i phi_i Z) R(x), multiplied as a balanced tree."""
    phases = np.asarray(phases, dtype=np.float64)
    e = np.exp(1j * phases)[:, None]
    x = np.asarray(xs, dtype=np.float64)[None, :]
    w = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    M = np.empty((len(phases), x.shape[1], 2, 2), dtype=np.complex128)
    M[..., 0, 0] = e * x
    M[..., 0, 1] = e * w
    M[..., 1, 0] = e.conj() * w
    M[..., 1, 1] = -e.conj() * x
    while M.shape[0] > 1:
        if M.shape[0] % 2:
            M = np.concatenate((M, np.broadcast_to(np.eye(2), (1,) + M.shape[1:])))
        M = M[0::2] @ M[1::2]
    return M[0, :, 0, 0]


def spectral_sign(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(A)
    return (V * np.sign(w)) @ V.conj().T


def positive_projector(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(A)
    Vp = V[:, w > 0]
    return Vp @ Vp.conj().T


def op_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def encoded_block(be) -> np.ndarray:
    d, r = be.system_dim, be.reference_index
    return be.alpha * be.unitary[r * d:(r + 1) * d, r * d:(r + 1) * d]


# ----------------------------------------------------------------- inputs

def gapped_values(rng: np.random.Generator, d: int, gap: float) -> np.ndarray:
    """Magnitudes uniform in [gap, 1], half of each sign."""
    signs = np.where(np.arange(d) < d // 2, -1.0, 1.0)
    return rng.permutation(signs) * rng.uniform(gap, 1.0, d)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]


def hermitian_with(rng: np.random.Generator, vals: np.ndarray) -> np.ndarray:
    Q = haar_unitary(rng, len(vals))
    A = (Q * vals[None, :]) @ Q.conj().T
    return (A + A.conj().T) / 2


def general_with(rng: np.random.Generator, svals: np.ndarray) -> np.ndarray:
    d = len(svals)
    return (haar_unitary(rng, d) * svals[None, :]) @ haar_unitary(rng, d).conj().T


# ------------------------------------------------------------------ calls

def _require_levels(report, n: int) -> None:
    if len(report.rows) != n or report.rows[-1].n != n:
        raise CheckFailed(f"expected {n} levels, report has {[r.n for r in report.rows]}")


def sign_matrix_call(rqet, A: np.ndarray, gap: float, eps: float, l: int, mode: str,
                     label: str, agreement: bool = False) -> Call:
    n = levels_needed(gap, eps, l)
    ref = spectral_sign(A)

    def check(out) -> float:
        be, report = out
        _require_levels(report, n)
        return op_norm(encoded_block(be) - ref)

    def health(out) -> float:
        other, _ = rqet.run_sign(A, gap, eps, l, mode="recursive")
        return op_norm(out[0].unitary - other.unitary)

    return Call(label, lambda: rqet.run_sign(A, gap, eps, l, mode=mode), check, eps,
                health if agreement else None)


def sign_scalar_call(rqet, vals: np.ndarray, gap: float, eps: float, l: int) -> Call:
    A = np.diag(vals).astype(np.complex128)
    n = levels_needed(gap, eps, l)

    def check(out) -> float:
        table, report = out
        _require_levels(report, n)
        pts = np.asarray(table.points, dtype=np.float64)
        if not np.isin(vals, pts).all():
            raise CheckFailed("scalar table does not cover every eigenvalue")
        vals_out = np.asarray(table.values)
        direct = iterate_direct(l, n, pts)
        return float(max(np.abs(vals_out - direct).max(), np.abs(vals_out - np.sign(pts)).max()))

    return Call("sign-scalar", lambda: rqet.run_sign(A, gap, eps, l, mode="scalar"), check, eps)


def polar_call(rqet, B: np.ndarray, gap: float, eps: float, l: int) -> Call:
    n = levels_needed(gap, eps, l)
    W, _, Vh = np.linalg.svd(B)
    ref = W @ Vh
    d = B.shape[0]

    def check(out) -> float:
        enc, report = out
        _require_levels(report, n)
        return op_norm(enc.unitary[:d, :d] - ref)

    return Call("polar", lambda: rqet.run_polar(B, gap, eps, l), check, eps)


def filter_call(rqet, A: np.ndarray, gap: float, eps: float, l: int) -> Call:
    ref = positive_projector(A)
    return Call("filter", lambda: rqet.filtering_operator(A, gap, eps, l),
                lambda out: op_norm(out.projector - ref), eps)


def preparation_call(rqet, A: np.ndarray, gap: float, eps: float, l: int) -> Call:
    w, V = np.linalg.eigh(A)
    v0 = V[:, [int(np.argmin(np.abs(w)))]]
    ref = v0 @ v0.conj().T
    return Call("preparation", lambda: rqet.preparation_projector(A, gap, eps, l),
                lambda out: op_norm(out.projector - ref), eps)


# phase-list reproduction tolerance: the package's own identity tolerance
_PHASE_TOL = 1e-9
_PHASE_POINTS = np.linspace(-1.0, 1.0, 9)


def flatten_call(rqet, l: int, levels: int) -> Call:
    def check(out) -> float:
        if len(out) != (2 * l + 1) ** levels:
            raise CheckFailed(f"expected {(2 * l + 1) ** levels} phases, got {len(out)}")
        got = chain_upper_left(out, _PHASE_POINTS)
        return float(np.abs(got - iterate_direct(l, levels, _PHASE_POINTS)).max())

    return Call(f"flatten-l{l}", lambda: rqet.flatten_sign_phases(l, levels), check, _PHASE_TOL)


# -------------------------------------------------------------- workloads

def _scalar_deep(rqet, rng):
    # paper headline regime, acceptance criterion 4: l=2, gap 0.1, eps 1e-10 -> n=8
    return [sign_scalar_call(rqet, gapped_values(rng, 4, 0.1), 0.1, 1e-10, 2)]


def _matrix_d64(rqet, rng):
    # largest supported dimension: gap 0.5, eps 1e-8 -> n=4, eight d=64 eigensolves
    A = hermitian_with(rng, gapped_values(rng, 64, 0.5))
    return [sign_matrix_call(rqet, A, 0.5, 1e-8, 2, "recursive", "sign-recursive")]


def _small_mix(rqet, rng):
    d, gap, eps, l = 8, 0.5, 1e-8, 2
    A_sign = hermitian_with(rng, gapped_values(rng, d, gap))
    B = general_with(rng, rng.uniform(gap, 1.0, d))
    A_filter = hermitian_with(rng, gapped_values(rng, d, gap))
    A_prep = hermitian_with(rng, np.concatenate(([0.0], gapped_values(rng, d - 1, gap))))
    return [
        sign_matrix_call(rqet, A_sign, gap, eps, l, "flattened", "sign-flattened", agreement=True),
        polar_call(rqet, B, gap, eps, l),
        filter_call(rqet, A_filter, gap, eps, l),
        preparation_call(rqet, A_prep, gap, eps, l),
    ] + [flatten_call(rqet, k, 3) for k in (2, 4, 6, 8)]


WORKLOADS = {
    w.name: w for w in (
        Workload("scalar-deep", (2,), 2, _scalar_deep),
        Workload("matrix-d64", (2,), 2, _matrix_d64),
        Workload("small-mix", (2, 4, 6, 8), 8, _small_mix),
    )
}
