"""The package's one scalar chain evaluator: a long reflection-form 2x2 chain.

`phase_chain` evaluates the top-left entry of
prod_i exp(i*phi_i*Z) R(x) at many points.  The product is split into
blocks of about sqrt(N) phases; the blocks are multiplied out side by
side (one numpy step per position inside a block, vectorized across the
blocks and the points), then folded together in order, then the leftover
tail phases are multiplied in one at a time.  That is about 3*sqrt(N)
Python-level steps instead of N, and no complex temporary grows with
the length of the phase list; the block stage writes every step into
three work buffers allocated once.  The grouping differs from a
left-to-right loop, so results agree with it to rounding, not bit for
bit.

Only the top row of each block is multiplied out: a product of k
factors [[e x, e w], [e* w, -e* x]] is [[P, Q], [s Q*, -s P*]] with
s = (-1)^(k+1).  Conjugation commutes with complex rounding, and
u - v == -(v - u), so the bottom row read off the top one is bit for
bit the row a full multiply gives.
"""

from __future__ import annotations

import math

import numpy as np


def _times_factor(c0, c1, ep, em, x, w):
    """Row (c0, c1) times the factor [[ep x, ep w], [em w, -em x]]."""
    a, b = c0 * ep, c1 * em
    return a * x + b * w, a * w - b * x


def phase_chain(phases: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Top-left entry of prod_i exp(i*phi_i*Z) R(x) at each point of xs."""
    phases = np.ascontiguousarray(phases, dtype=np.float64)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    w = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    k = max(1, math.isqrt(len(phases)))
    nb = len(phases) // k
    blocks = phases[: nb * k].reshape(nb, k)

    # top row of one 2x2 product per block and point; factor j of every block at
    # once, written into buffers in _times_factor's order of operations
    m00 = np.ones((nb, len(x)), dtype=np.complex128)
    m01 = np.zeros_like(m00)
    a, b, t = np.empty_like(m00), np.empty_like(m00), np.empty_like(m00)
    for j in range(k):
        ep = np.exp(1j * blocks[:, j])[:, None]
        np.multiply(m00, ep, out=a)
        np.multiply(m01, ep.conj(), out=b)
        np.multiply(a, x, out=m00)
        np.multiply(b, w, out=t)
        m00 += t
        np.multiply(a, w, out=m01)
        np.multiply(b, x, out=t)
        m01 -= t
    m10, m11 = (m01.conj(), -m00.conj()) if k % 2 else (-m01.conj(), m00.conj())

    # only the top row of the running product is needed from here on
    r0 = np.ones(len(x), dtype=np.complex128)
    r1 = np.zeros_like(r0)
    for b in range(nb):
        r0, r1 = r0 * m00[b] + r1 * m10[b], r0 * m01[b] + r1 * m11[b]
    for phi in phases[nb * k :]:
        ep = complex(math.cos(phi), math.sin(phi))
        r0, r1 = _times_factor(r0, r1, ep, ep.conjugate(), x, w)
    return r0
