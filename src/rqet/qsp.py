"""Scalar phase algebra: the tabulated phases of p_l and their evaluation.

A length-q reflection sequence realizes a degree-q polynomial f as the
top-left entry of prod_{i=1..q} exp(i*phi_i*Z) R(x), with the i = q factor
rightmost.  The phases of the even family members l = 2..20 are loaded
from a table shipped with the package (see pade_phases) and checked on
load in reflection form by the chain kernel, the package's one evaluator
of a phase list on scalars.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ._kernels import phase_chain
from .errors import DomainError, NumericError, read_json

_IDENTITY_TOL = 1e-9


def canonicalize_angles(angles) -> np.ndarray:
    """Map every angle into (-pi, pi], as a new array.

    Angles already in (-pi, pi] come back unchanged, bit for bit (-0.0
    included), so the map is idempotent and commutes with negation on
    (-pi, pi).  Only the others are reduced mod 2pi; -pi and the odd
    multiples of pi go to pi.
    """
    out = np.array(angles, dtype=np.float64, ndmin=1)
    off = ~((out > -np.pi) & (out <= np.pi))
    if off.any():
        a = np.mod(out[off] + np.pi, 2.0 * np.pi) - np.pi
        a[a == -np.pi] = np.pi
        out[off] = a
    return out


def reflection_upper_left(phases: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Realized polynomial values f(xs) for a reflection sequence (kernel path)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if not (np.abs(xs) <= 1.0 + 1e-12).all():  # a positive test, so NaN fails it
        raise DomainError("signal points must lie in [-1, 1]")
    return phase_chain(np.asarray(phases, dtype=np.float64), xs)


def chebyshev_reflection_phases(q: int) -> np.ndarray:
    """Reflection phases realizing the degree-q Chebyshev polynomial T_q."""
    if q < 1:
        raise DomainError("degree must be at least 1")
    out = np.full(q, -np.pi / 2.0)
    out[0] = (q - 1) * np.pi / 2.0
    return canonicalize_angles(out)


_PHASE_CACHE: dict[int, np.ndarray] = {}
_TABLE_PATH = os.path.join(os.path.dirname(__file__), "pade_phases.json")


def pade_phases(l: int) -> np.ndarray:
    """Reflection phases for any tabulated (even) family member.

    The angles are read from pade_phases.json, which tests/pade_table.py
    derives exactly: a rational deflation of 1 - p_l^2, mpmath roots and a
    60-digit peel, rounded to double.  Odd members fail the domination
    condition and have no phases.  On first use for each l the loaded
    angles are checked by the chain kernel on a 201-point grid against p_l
    by Horner in 1 - x^2, which stays within ~3e-16 of p_l where the
    monomial form drifts by 2e-12 at l = 20, and then cached read-only;
    every call returns a fresh copy, and a list that fails the check is
    not cached.
    """
    cached = _PHASE_CACHE.get(l)
    if cached is not None:
        return cached.copy()
    if l % 2 == 1:
        raise DomainError(f"odd family member {l} admits no complementary "
                          "polynomial; its square dips below 1 outside [-1, 1]")
    table = read_json(_TABLE_PATH, "phase table")["angles"]
    if str(l) not in table:
        levels = sorted(int(k) for k in table)
        raise DomainError(f"phases are tabulated for even l = {levels[0]}..{levels[-1]}, not {l}")
    phases = np.array(table[str(l)], dtype=np.float64)
    xs = np.linspace(-1.0, 1.0, 201)
    t, acc = 1.0 - xs * xs, np.zeros_like(xs)  # p_l(x) = x sum_k C(2k, k)/4^k t^k
    for k in range(l, -1, -1):
        acc = acc * t + math.comb(2 * k, k) / 4.0 ** k
    dev = np.abs(reflection_upper_left(phases, xs) - xs * acc)
    worst = int(np.argmax(dev))
    if dev[worst] > _IDENTITY_TOL:
        raise NumericError(f"phase round-trip fails at x = {xs[worst]:.6f} by {dev[worst]:.3e}")
    phases.flags.writeable = False
    _PHASE_CACHE[l] = phases
    return phases.copy()


# ------------------------------------------------------------------- file io

def save_phases(path: str, angles: np.ndarray) -> None:
    """Write a reflection-form angle list as JSON."""
    doc = {"form": "reflection", "angles": [float(a) for a in np.asarray(angles).ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
