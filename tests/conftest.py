from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import settings

import rqet.qet
from rqet import DomainError, InputError, canonicalize_angles, pade, poly_eval
from rqet._kernels import _block_length
from rqet.errors import write_json
from rqet.linalg import _sign_of, hermitian_eig
from rqet.qet import _ANGLE_TOL

# list lengths N, with blocks of k = _block_length(N) phases made of sub-blocks
# of c = _block_length(k): (k, c) = (4, 2), (9, 3), (12, 3), (16, 4), (18, 3),
# (25, 5), (36, 6), (32, 4) and (49, 7)
TWO_LEVEL_LENGTHS = [16, 81, 144, 256, 324, 625, 1296, 1024, 2401]

# pytest --hypothesis-profile ci-deep: a deeper run of the properties that
# take their example count from the profile
settings.register_profile("ci-deep", max_examples=500)


@pytest.fixture
def cold_sign_plans():
    """An empty sign-plan cache, emptied again afterwards, so no test sees
    another's plans and none leaves behind a plan of a patched list."""
    rqet.qet._sign_plan.cache_clear()
    yield
    rqet.qet._sign_plan.cache_clear()


def matrix_sign(M: np.ndarray) -> np.ndarray:
    """The spectral sign oracle of a Hermitian matrix (rqet.linalg._sign_of)."""
    return _sign_of(hermitian_eig(M))


def save_matrix(path: str, M) -> None:
    """Write a matrix in the JSON form rqet.load_matrix reads (rows, cols and
    row-major [re, im] entries); refuses a non-matrix or a non-finite entry."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise InputError(f"expected a matrix, got ndim {M.ndim}")
    if not np.all(np.isfinite(M)):
        raise InputError("refusing to write non-finite entries")
    write_json(path, {"rows": int(M.shape[0]), "cols": int(M.shape[1]),
                      "entries": [[float(v.real), float(v.imag)] for v in M.ravel()]})


def save_poly(path: str, p) -> None:
    """Write a polynomial in the JSON form rqet.load_poly reads."""
    write_json(path, {"coeffs": [[float(v.real), float(v.imag)] for v in p.coeffs],
                      "parity": p.parity})


def hermitian_with_spectrum(seed: int, eigenvalues) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Hermitian matrix with the given spectrum; returns (A, Q)."""
    vals = np.asarray(eigenvalues, dtype=np.float64)
    d = len(vals)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q = np.linalg.qr(Z)[0]
    A = (Q * vals[None, :]) @ Q.conj().T
    return (A + A.conj().T) / 2, Q


def exact_pade_coeffs(l):
    # independent construction over the rationals: x * sum_k C(2k,k)/4^k (1-x^2)^k
    acc = [Fraction(0)] * (2 * l + 2)
    for k in range(l + 1):
        c = Fraction(comb(2 * k, k), 4 ** k)
        # (1 - x^2)^k expanded
        for j in range(k + 1):
            acc[1 + 2 * j] += c * comb(k, j) * (-1) ** j
    return acc


def scalar_sign_iterate(x: float, l: int, levels: int) -> float:
    """The composite polynomial applied to a scalar by direct iteration."""
    p = pade(l)
    y = float(x)
    for _ in range(levels):
        y = float(np.real(poly_eval(p, y)))
    return y


def chebyshev_reflection_phases(q: int) -> np.ndarray:
    """Reflection phases realizing the degree-q Chebyshev polynomial T_q."""
    if q < 1:
        raise DomainError("degree must be at least 1")
    out = np.full(q, -np.pi / 2.0)
    out[0] = (q - 1) * np.pi / 2.0
    return canonicalize_angles(out)


def check_flattened_structure(phases: np.ndarray, base: np.ndarray) -> bool:
    """Verify the run-length structure of a flattened list against its base.

    In blocks the length of the base list, positions 1..end must equal the
    base tail or its reversed negation, and each block-leading junction
    must be zero or one of the base angles up to sign.
    """
    phases = canonicalize_angles(np.asarray(phases, dtype=np.float64))
    base = canonicalize_angles(np.asarray(base, dtype=np.float64))
    L = len(base)
    if len(phases) % L != 0:
        return False
    blocks = phases.reshape(-1, L)
    fwd = base[1:]
    rev = canonicalize_angles(-base[:0:-1])
    junction_ok = np.concatenate(([0.0], base, canonicalize_angles(-base)))
    tails = blocks[:, 1:]
    tail_ok = ((np.abs(tails - fwd) <= _ANGLE_TOL).all(axis=1)
               | (np.abs(tails - rev) <= _ANGLE_TOL).all(axis=1))
    head_ok = (np.abs(blocks[:, :1] - junction_ok) <= _ANGLE_TOL).any(axis=1)
    return bool((tail_ok & head_ok).all())


def recovery_cost(k: int, c_phi: int = 8, q: int = 1) -> int:
    """Classical phase-list bookkeeping cost 2^k c_phi^(k^2) q for k levels.

    Exact integer arithmetic; the value is astronomically large already
    for modest k, which is the point of tabulating it.
    """
    if k < 0 or c_phi < 1 or q < 1:
        raise InputError("levels must be nonnegative and the cost factors positive")
    return (2 ** k) * (c_phi ** (k * k)) * q


def tiled_blocks(rng, length, block, kinds=3):
    """`length` phases made of `kinds` random blocks of `block` phases, tiled
    in random order and cut to length."""
    pool = rng.uniform(-np.pi, np.pi, (kinds, block))
    return pool[rng.integers(kinds, size=-(-length // block))].reshape(-1)[:length]


def two_level_tiled(rng, length, subs, kinds):
    """`length` phases tiled in random order from `kinds` blocks of
    k = _block_length(length) phases, each made of sub-blocks of
    c = _block_length(k) drawn from `subs` of a pool: a random sub-block, its
    neighbour in the last bit of one angle, copies with 0.0 and -0.0 there,
    and a second random sub-block.  A length with no block divisor is one
    block."""
    k = _block_length(length)
    c = _block_length(k)
    a = rng.uniform(-np.pi, np.pi, c)
    j = int(rng.integers(c))
    pool = np.stack([a, a, a, a, rng.uniform(-np.pi, np.pi, c)])
    pool[1, j] = np.nextafter(a[j], np.inf)
    pool[2, j], pool[3, j] = 0.0, -0.0
    pool = pool[rng.permutation(5)[:subs]]
    blocks = pool[rng.integers(subs, size=(kinds, k // c))].reshape(kinds, k)
    return blocks[rng.integers(kinds, size=length // k)].reshape(-1)
