"""The package's one blocked product of a phase list: planned, then executed.

A phase list of (2l+1)^n slots repeats itself at every scale: the
5^8-phase sign list has 625 blocks of 625 phases but only 9 distinct
ones, and they are made of 25-phase blocks that recur in the same way.
_plan decides from the phases' bits alone how the product is taken, and
_execute takes it with the caller's arithmetic: a leaf that multiplies
out rows of phases one position at a time, vectorized across the rows;
the product of running products and table entries; and complete(table,
k), the entries a fold multiplies by, from a table of k-factor products.
plan_chain passes top-row 2x2 arithmetic, and qet's dense product its
slot loop, np.matmul and the identity.

- Rows.  A row of k phases is cut into sub-rows of c = _block_length(k)
  phases when c < k.  If at most half the sub-rows are distinct, each
  distinct sub-row's product is planned once, the same way one level
  down, and each row is folded from them.  Otherwise the rows are leaf
  rows: a list that does not repeat is one, multiplied out in turn.
- The fold.  Folding m table entries in order is itself a chain.  When
  c = _block_length(m) < m, the sequence is cut into rows of c, the
  distinct rows are folded side by side, and their m/c products are
  folded in turn.  Even without repeats, m steps become ~2*sqrt(m).

A plan (_Plan) is the leaf rows, then the fold index arrays, each run on
the table the last one made.  Its products, leaf row-positions plus each
fold's rows x (steps - 1), are the stacked products executing it forms,
and what a dense run is charged (qet._check_dense_cost).  The 5^8 sign
list plans to 249 products in 33 steps, instead of ~390,000.  No fold
holds more rows than the top split has sub-rows.  Results agree with a
left-to-right loop to rounding only.  Rows merge only when bitwise equal
(_distinct_rows keys a dictionary by each row's bytes): -0.0 never merges
with 0.0, nor a NaN with anything but the same NaN.

plan_chain carries only top rows: a product of k factors
[[e x, e w], [e* w, -e* x]] is [[P, Q], [s Q*, -s P*]], s = (-1)^(k+1)
(Low and Chuang, arXiv:1610.06546).  The leaf holds (P, Q) as one
(rows, 2, points) array, three numpy calls per position into buffers made
once; a fold multiplies top rows by whole entries, whose bottom rows
_complete writes from k's parity once per fold, so a plan with no folds
writes none.  Conjugation commutes with complex rounding, and
u + (-v) == u - v, so every entry is bit for bit what whole 2x2 products
give, up to the sign of an exact zero (w = 0 at x = +-1).  Each float
factor is off unitary by about an ulp in the same direction, so the top
row's norm drifts from 1 as (1 + eta)^N; the result is the top-left entry
over that norm.
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


def _execute(plan: _Plan, leaf, times, complete):
    """Product of each row of the planned list: leaf on the plan's rows, then each fold's
    rows gathered and multiplied in order by entries of complete(table so far, k)."""
    table, k = leaf(plan.rows), plan.rows.shape[1]
    for index in plan.folds:
        whole = complete(table, k)
        out = table.take(index[:, 0], 0)
        for g in index.T[1:]:
            out = times(out, whole.take(g, 0))
        table, k = out, k * index.shape[1]
    return table


def _block_stage(blocks: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Top row of each block's product of reflection factors at each point, shape
    (blocks, 2, points): per position, (P, Q) scaled by (e, e*), then P [x, w] + Q [w, -x].
    One exp call per len(x) positions: the factors take no more memory than a row."""
    r = np.array([[x, w], [w, -x]], dtype=np.complex128)
    col = np.zeros((len(blocks), 2, 1, len(x)), dtype=np.complex128)  # top, to broadcast on r
    col[:, 0] = 1.0
    m = np.empty((len(blocks), 2, 2, len(x)), dtype=np.complex128)
    top, m0, m1 = col[:, :, 0], m[:, 0], m[:, 1]
    for j0 in range(0, blocks.shape[1], c := max(1, len(x))):
        e = np.exp(1j * blocks[:, j0 : j0 + c].T)
        for f in np.array((e, e.conj())).transpose(1, 2, 0)[..., None]:  # (rows, 2, 1) each
            np.multiply(top, f, out=top)
            np.multiply(col, r, out=m)
            np.add(m0, m1, out=top)
    return top


def _complete(top: np.ndarray, k: int) -> np.ndarray:
    """Whole products (rows, 2, 2, points) of k reflection factors each from
    their top rows [P, Q]: the bottom row is [s Q*, -s P*], s = (-1)^(k+1)."""
    whole = np.concatenate((top[:, None], top[:, None, ::-1].conj()), axis=1)
    np.negative(whole[:, 1, k % 2], out=whole[:, 1, k % 2])
    return whole


def _times(top: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """Top rows (rows, 2, points) times whole 2x2 products (rows, 2, 2, points), into top."""
    m = top[:, :, None] * whole
    return np.add(m[:, 0], m[:, 1], out=top)


def plan_chain(plan: _Plan, xs: np.ndarray) -> np.ndarray:
    """Top-left entry of prod_i exp(i*phi_i*Z) R(x) at each of xs, phi the list `plan` is of."""
    x = np.ascontiguousarray(xs, dtype=np.float64)
    w = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    top = _execute(plan, lambda rows: _block_stage(rows, x, w), _times, _complete)[0]
    return top[0] / np.sqrt(np.add(*np.abs(top) ** 2))
