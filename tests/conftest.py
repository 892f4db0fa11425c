from fractions import Fraction
from math import comb

import numpy as np

from rqet._kernels import _block_length

# list lengths N, with blocks of k = _block_length(N) phases made of sub-blocks
# of c = _block_length(k): (k, c) = (4, 2), (9, 3), (12, 3), (16, 4), (18, 3),
# (25, 5), (36, 6), (32, 4) and (49, 7)
TWO_LEVEL_LENGTHS = [16, 81, 144, 256, 324, 625, 1296, 1024, 2401]


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
