"""The package's one scalar chain evaluator: a long reflection-form 2x2 chain.

`phase_chain` evaluates the top-left entry of
prod_i exp(i*phi_i*Z) R(x) at many points.  The product is split into
aligned blocks of k phases, where k is the largest divisor of N that is
at most isqrt(N), provided it is at least isqrt(N)/8 and at least 2;
otherwise (a prime N, say) k = isqrt(N) and the leftover tail phases
are multiplied in one at a time at the end.  Each distinct block's
product is taken once, and a fold multiplies the block products in order.

A nested list of (2l+1)^n phases repeats itself at every scale: the
5^8-phase sign list has 625 blocks of 625 phases but only 9 distinct
ones, and they are made of 25-phase blocks that recur in the same way.
Both stages recurse on that:

- Blocks.  Distinct blocks are cut into sub-blocks of _block_length(k)
  phases when that divides k.  If the sub-blocks repeat (at most half
  as many distinct ones as sub-blocks), each block is folded from the
  distinct sub-blocks' products, taken the same way one level down.
  Otherwise the block stage multiplies the blocks out, one numpy step
  per position, vectorized across the blocks and the points.
- The fold.  Folding m table entries in order is itself a chain.  When
  c = _block_length(m) divides m, the sequence is cut into rows of c,
  the distinct rows are folded side by side, and their m/c products
  are folded in turn.  Even without repeats, m steps become ~2*sqrt(m).

The 5^8 sign list takes 33 steps this way instead of ~1,250; a list with
no repeats takes about k + 2*sqrt(N/k), nearly all in the block stage.
No level holds more rows of len(xs) points than the top split has
blocks, so no temporary outgrows the top split's block products.  The
grouping differs from a left-to-right loop, so results agree with it to
rounding, not bit for bit.

Blocks, and rows of the fold, merge only when every entry has the same
bit pattern: -0.0 never merges with 0.0, and a NaN never merges with
anything but the same NaN, so merging never mixes blocks that differ,
even in the last bit of one angle.  _distinct_rows finds them without
hashing every byte: rows are grouped by a key taken from a few sampled
columns, and each row is then compared bitwise with its group's first
row, in numpy.  Only rows that fail that comparison are split further,
by their full bytes.  The one pass over the list costs about as much as
reading it.

Only the top row of each product is carried: a product of k factors
[[e x, e w], [e* w, -e* x]] is [[P, Q], [s Q*, -s P*]] with
s = (-1)^(k+1).  Conjugation commutes with complex rounding, and
u - v == -(v - u), so the bottom row read off the top one is bit for
bit the row a full multiply gives.  The top row of a product of
unitaries has norm 1, but every float factor is off unitary by about an
ulp in the same direction, so the norm drifts as (1 + eta)^N; the
result is the top-left entry divided by the top row's norm.
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


def _key_columns(k: int) -> list[int]:
    """Columns a row's key samples: the first two, where the blocks of a
    nested list differ most often, and six spread evenly over the row."""
    return sorted({0, min(1, k - 1), *((k - 1) * i // 5 for i in range(6))})


# odd multipliers, one per sampled column: a row's key is the wrapping sum
# of its sampled bits times these, so rows that differ in one sampled
# column never share a key
_KEY_MULTIPLIERS = np.cumprod(np.full(8, 0x9E3779B97F4A7C15, dtype=np.uint64))
_CHECK_BYTES = 2 ** 18  # bytes of rows compared per numpy step, so temporaries stay in cache


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """Wrapping sum of each row's sampled bits times _KEY_MULTIPLIERS."""
    cols = _key_columns(bits.shape[1])
    return bits.take(cols, axis=1) @ _KEY_MULTIPLIERS[: len(cols)]


def _distinct_rows(blocks: np.ndarray,
                   most: float = math.inf) -> tuple[np.ndarray, list[int]] | None:
    """Bitwise-distinct rows of a 2-d array of 8-byte items in order of first
    appearance, and the index of each row among them; None when more than
    `most` rows are distinct.

    Rows are grouped by a key hashed from the bits of their _key_columns,
    then every row is compared bit for bit with its group's first row, all
    in numpy, _CHECK_BYTES of rows at a time.  Rows with different keys
    differ, so more than `most` keys, among the first most + 1 rows or
    among all, settle None before any row is compared; n distinct keys
    settle that every row is distinct.  Only the rows that fail the
    comparison are split further, by their full bytes.
    """
    bits = np.ascontiguousarray(blocks).view(np.uint64)
    n, k = bits.shape
    if most < n:  # the first most + 1 rows may already hold too many keys
        head = np.sort(_row_keys(bits[: most + 1]))
        if np.count_nonzero(head[1:] != head[:-1]) >= most:
            return None
    _, first, group = np.unique(_row_keys(bits), return_index=True, return_inverse=True)
    if len(first) > most:
        return None
    if len(first) == n:  # every key differs, so every row is its own group
        return blocks, list(range(n))
    reps, same = bits[first], np.ones(n, dtype=bool)
    step = max(1, _CHECK_BYTES // (8 * k))
    for s in range(0, n, step):
        equal = bits[s : s + step] == reps[group[s : s + step]]
        if not equal.all():
            same[s : s + step] = equal.all(axis=1)
    if not same.all():
        seen: dict[bytes, int] = {}
        for i in np.flatnonzero(~same):
            group[i] = len(first) + seen.setdefault(bits[i].tobytes(), len(seen))
        _, first, group = np.unique(group, return_index=True, return_inverse=True)
        if len(first) > most:
            return None
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return blocks[first[order]], rank[group].tolist()


def _block_stage(blocks: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Top row of each block's product at each point, one step per position."""
    # factor j of every block at once, written into buffers in _times_factor's
    # order of operations
    m00 = np.ones((len(blocks), len(x)), dtype=np.complex128)
    m01 = np.zeros_like(m00)
    a, b, t = np.empty_like(m00), np.empty_like(m00), np.empty_like(m00)
    # factors for len(x) positions at a time: one exp call per chunk, no more
    # memory than a work buffer, however long the blocks are
    c = max(1, len(x))
    for j0 in range(0, blocks.shape[1], c):
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
    return m00, m01


def _block_rows(blocks: np.ndarray, x: np.ndarray, w: np.ndarray, most: int):
    """Top row of each distinct block's product at each point: from the
    products of its sub-blocks when those repeat and at most `most` of them
    are distinct, else by the block stage."""
    k = blocks.shape[1]
    c = _block_length(k)
    if c > 1 and k % c == 0:
        subs = blocks.reshape(-1, c)
        split = _distinct_rows(subs, min(most, len(subs) // 2))
        if split is not None:
            p, q = _block_rows(split[0], x, w, most)
            return _fold(p, q, c, np.reshape(split[1], (len(blocks), -1)), most)
    return _block_stage(blocks, x, w)


def _fold(p: np.ndarray, q: np.ndarray, length: int, index: np.ndarray, most: int):
    """Top rows of the products of the rows of `index`, each an ordered list
    of entries of a table of top rows (p, q) of `length`-phase products;
    rows of a split are folded side by side when at most `most` are distinct."""
    m = index.shape[1]
    c = _block_length(m)
    if c > 1 and m % c == 0:
        split = _distinct_rows(index.reshape(-1, c), most)
        if split is not None:
            p, q = _fold(p, q, length, split[0], most)
            return _fold(p, q, c * length, np.reshape(split[1], (len(index), -1)), most)
    # the bottom row of a product of `length` factors is [s Q*, -s P*]
    p10, p11 = (q.conj(), -p.conj()) if length % 2 else (-q.conj(), p.conj())
    r0, r1 = p[index[:, 0]], q[index[:, 0]]
    for g in index.T[1:]:
        r0, r1 = r0 * p[g] + r1 * p10[g], r0 * q[g] + r1 * p11[g]
    return r0, r1


def phase_chain(phases: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Top-left entry of prod_i exp(i*phi_i*Z) R(x) at each point of xs."""
    phases = np.ascontiguousarray(phases, dtype=np.float64)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    w = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    if not len(phases):  # the empty product
        return np.ones(len(x), dtype=np.complex128)
    k = _block_length(len(phases))
    nb = len(phases) // k
    blocks, index = _distinct_rows(phases[: nb * k].reshape(nb, k))
    p, q = _block_rows(blocks, x, w, nb)
    r0, r1 = (r[0] for r in _fold(p, q, k, np.reshape(index, (1, nb)), nb))
    for phi in phases[nb * k :]:
        ep = complex(math.cos(phi), math.sin(phi))
        r0, r1 = _times_factor(r0, r1, ep, ep.conjugate(), x, w)
    return r0 / np.sqrt(np.abs(r0) ** 2 + np.abs(r1) ** 2)
