"""The package's one blocked product of a phase list: planned, then executed.

A phase list of (2l+1)^n slots repeats itself at every scale: the
5^8-phase sign list has 625 blocks of 625 phases but only 9 distinct
ones, and they are made of 25-phase blocks that recur in the same way.
_plan decides from the phases' bits alone how the product is taken, and
_execute takes it with the caller's arithmetic, passed as two plain
functions: a leaf that multiplies out rows of phases one step per
position, vectorized across the rows, and the product of two stacks of
results.  plan_chain passes the reflection-form 2x2 arithmetic, and
qet's dense product passes its slot loop and np.matmul.

- Rows.  A row of k phases is cut into sub-rows of c = _block_length(k)
  phases when c < k.  If the sub-rows repeat (at most half as many
  distinct ones as sub-rows), each distinct sub-row's product is planned
  once, the same way one level down, and each row is folded from them.
  Otherwise the rows are the plan's leaf rows.  A list that does not
  repeat is one leaf row, multiplied out one position at a time.
- The fold.  Folding m table entries in order is itself a chain.  When
  c = _block_length(m) < m, the sequence is cut into rows of c, the
  distinct rows are folded side by side, and their m/c products are
  folded in turn.  Even without repeats, m steps become ~2*sqrt(m).

A plan (_Plan) is the leaf rows, then the fold index arrays, each run on
the table the last one made.  Its products, leaf row-positions plus each
fold's rows x (steps - 1), are the stacked products executing it forms,
and what a dense run is charged (qet._check_dense_cost).  The 5^8 sign
list plans to 249 products in 33 steps, instead of ~390,000.  No fold
holds more rows than the top split has sub-rows.  The grouping differs
from a left-to-right loop, so results agree with it to rounding, not bit
for bit.

Rows, and rows of the fold, merge only when every entry has the same
bit pattern: -0.0 never merges with 0.0, and a NaN never merges with
anything but the same NaN, so merging never mixes blocks that differ,
even in the last bit of one angle.  _distinct_rows keys a dictionary by
each row's bytes.

plan_chain's leaf multiplies out only the top row of each product: a
product of k factors [[e x, e w], [e* w, -e* x]] is [[P, Q], [s Q*, -s P*]]
with s = (-1)^(k+1), and the leaf reads the bottom row off the top one.
Conjugation commutes with complex rounding, and u - v == -(v - u), so
that row is bit for bit the row a full multiply gives, up to the sign of
an exact zero (w = 0 at x = +-1), and the fold multiplies whole 2x2
products.  The top row of a product of unitaries
has norm 1, but every float factor is off unitary by about an ulp in the
same direction, so the norm drifts as (1 + eta)^N; the result is the
top-left entry divided by the top row's norm.

plan_chain executes a given plan (qsp.reflection_upper_left plans its
list first).  A sign list's plan depends only on (l, n) over the
read-only phase table, so qet._sign_plan makes each once and caches it
read-only for scalar mode's check, the flattened levels and perturb.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


def _block_length(n: int) -> int:
    """Largest divisor k of n with max(2, isqrt(n)/8) <= k <= isqrt(n), else
    n: a row of n with no such divisor stays whole."""
    r = math.isqrt(n)
    return next((k for k in range(r, max(2, -(-r // 8)) - 1, -1) if n % k == 0), n)


def _distinct_rows(blocks: np.ndarray,
                   most: float = math.inf) -> tuple[np.ndarray, list[int]] | None:
    """Bitwise-distinct rows of a 2-d array of 8-byte items in order of first
    appearance, and the index of each row among them; None once more than
    `most` rows are distinct."""
    seen: dict[bytes, int] = {}
    first, index = [], []
    for i, row in enumerate(blocks):
        j = seen.setdefault(row.tobytes(), len(seen))
        if j == len(first):  # a new row
            if len(seen) > most:
                return None
            first.append(i)
        index.append(j)
    return blocks[first], index


class _Plan(NamedTuple):
    """Leaf rows of phases (None in a fold's plan), then fold index arrays in run order."""

    rows: np.ndarray | None
    folds: list[np.ndarray]

    @property
    def products(self) -> int:
        return self.rows.size + sum(len(f) * (f.shape[1] - 1) for f in self.folds)


def _plan(rows: np.ndarray, most: float = math.inf, leaf: bool = True) -> _Plan:
    """Plan of the product of a 1-d phase list, or of each row of a 2-d
    array that holds phases (leaf) or entries of the table built so far (a
    fold, whose plan has no leaf rows).  Rows of phases split when at most
    `most` and at most half of their sub-rows are distinct, and pass on
    `most` as their sub-row count; rows of a fold split when at most `most`
    are distinct.  Rows that do not split are the leaf rows, or one fold."""
    rows = np.atleast_2d(rows)
    k = rows.shape[1]
    c = _block_length(k)
    if c < k:
        subs = rows.reshape(-1, c)
        if leaf:
            most = min(most, len(subs))
        split = _distinct_rows(subs, min(most, len(subs) // 2) if leaf else most)
        if split is not None:
            table, folds = _plan(split[0], most, leaf)
            index = np.reshape(split[1], (len(rows), -1))
            return _Plan(table, folds + _plan(index, most, False).folds)
    return _Plan(rows, []) if leaf else _Plan(None, [rows])


def _execute(plan: _Plan, leaf, times):
    """Product of each row of the planned list: leaf on the plan's rows, then
    each fold's rows gathered from the table so far and multiplied in order."""
    table = leaf(plan.rows)
    for index in plan.folds:
        out = table[index[:, 0]]
        for g in index.T[1:]:
            out = times(out, table[g])
        table = out
    return table


def _block_stage(blocks: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each block's product of reflection factors at each point, shape
    (blocks, 2, 2, points): the top row one step per position, the bottom
    row read off it."""
    # factor j of every block at once, in the order of operations of row
    # (m00, m01) times [[ep x, ep w], [em w, -em x]]
    m00 = np.ones((len(blocks), len(x)), dtype=np.complex128)
    m01 = np.zeros_like(m00)
    # one exp call per len(x) positions: the factors take no more memory than
    # a row of products, however long the blocks are
    c = max(1, len(x))
    for j0 in range(0, blocks.shape[1], c):
        ep = np.exp(1j * blocks[:, j0 : j0 + c].T)[:, :, None]
        for e, em in zip(ep, ep.conj()):
            a, b = m00 * e, m01 * em
            m00, m01 = a * x + b * w, a * w - b * x
    bottom = (m01.conj(), -m00.conj()) if blocks.shape[1] % 2 else (-m01.conj(), m00.conj())
    return np.stack((m00, m01) + bottom, axis=1).reshape(len(blocks), 2, 2, len(x))


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of stacks of 2x2 matrices whose entries run over a last axis of points."""
    return a[:, :, :1] * b[:, None, 0] + a[:, :, 1:] * b[:, None, 1]


def plan_chain(plan: _Plan, xs: np.ndarray) -> np.ndarray:
    """Top-left entry of prod_i exp(i*phi_i*Z) R(x) at each of xs, phi the list `plan` is of."""
    x = np.ascontiguousarray(xs, dtype=np.float64)
    w = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    r0, r1 = _execute(plan, lambda rows: _block_stage(rows, x, w), _times)[0, 0]
    return r0 / np.sqrt(np.abs(r0) ** 2 + np.abs(r1) ** 2)
