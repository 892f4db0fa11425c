"""The package's one scalar chain evaluator: a long reflection-form 2x2 chain.

`phase_chain` evaluates the top-left entry of
prod_i exp(i*phi_i*Z) R(x) at many points.  The product is split into
aligned blocks of k phases, where k is the largest divisor of N that is
at most isqrt(N), provided it is at least isqrt(N)/8 and at least 2;
otherwise (a prime N, say) k = isqrt(N) and the leftover tail phases
are multiplied in one at a time at the end.  A divisor k makes a nested
list of (2l+1)^n phases split into blocks that recur: the 5^8-phase
sign list has 625 blocks of 625 phases but only 9 distinct ones.  So
each distinct block is multiplied out once (one numpy step per position
inside a block, vectorized across the distinct blocks and the points),
and the fold then gathers each block's product by its row index, in
order.  A list with no repeats has as many distinct blocks as blocks
and costs what it did before.  That is k + N/k (at most about
9*sqrt(N)) Python-level steps instead of N, and no complex temporary
grows with the length of the phase list; the block stage writes every
step into three work buffers allocated once, and takes the factors'
exponentials for len(xs) positions of every distinct block in one call.
The grouping differs from a left-to-right loop, so results agree with
it to rounding, not bit for bit.

Blocks are compared by their bytes, not by float equality, so two
blocks share a product only when every angle has the same bit pattern:
-0.0 never merges with 0.0, and a NaN never merges with anything but
the same NaN.  Merging therefore never mixes blocks that differ, even
in the last bit of one angle.

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


def _block_length(n: int) -> int:
    """Largest divisor k of n with max(2, isqrt(n)/8) <= k <= isqrt(n), else
    isqrt(n) (at least 1): blocks of one phase would leave the fold all the work."""
    r = max(1, math.isqrt(n))
    return next((k for k in range(r, max(2, -(-r // 8)) - 1, -1) if n % k == 0), r)


def _distinct_rows(blocks: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Bitwise-distinct rows of a 2-d float64 array in order of first
    appearance, and the index of each row among them."""
    seen: dict[bytes, int] = {}
    index = [seen.setdefault(row.tobytes(), len(seen)) for row in blocks]
    distinct = np.frombuffer(b"".join(seen), dtype=np.float64)
    return distinct.reshape(len(seen), blocks.shape[1]), index


def phase_chain(phases: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Top-left entry of prod_i exp(i*phi_i*Z) R(x) at each point of xs."""
    phases = np.ascontiguousarray(phases, dtype=np.float64)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    w = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    k = _block_length(len(phases))
    nb = len(phases) // k
    blocks, index = _distinct_rows(phases[: nb * k].reshape(nb, k))

    # top row of one 2x2 product per distinct block and point; factor j of every
    # block at once, written into buffers in _times_factor's order of operations
    m00 = np.ones((len(blocks), len(x)), dtype=np.complex128)
    m01 = np.zeros_like(m00)
    a, b, t = np.empty_like(m00), np.empty_like(m00), np.empty_like(m00)
    # factors for len(x) positions at a time: one exp call per chunk, no more
    # memory than a work buffer, however long the blocks are
    c = max(1, len(x))
    for j0 in range(0, k, c):
        ep = np.exp(1j * blocks[:, j0 : j0 + c].T)[:, :, None]
        for e, em in zip(ep, ep.conj()):
            np.multiply(m00, e, out=a)
            np.multiply(m01, em, out=b)
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
    for b in index:
        r0, r1 = r0 * m00[b] + r1 * m10[b], r0 * m01[b] + r1 * m11[b]
    for phi in phases[nb * k :]:
        ep = complex(math.cos(phi), math.sin(phi))
        r0, r1 = _times_factor(r0, r1, ep, ep.conjugate(), x, w)
    return r0
