"""Polynomials with parity metadata, the odd iteration family, and its conditions.

The iteration family is p_l(x) = x * sum_{k<=l} binom(2k,k)/4^k (1-x^2)^k.
Each member fixes x = +-1 and, for even l, satisfies the three conditions
that make it realizable as a phase sequence: definite parity, |p| <= 1 on
[-1, 1], and domination outside the unit interval (plus the imaginary-axis
variant for even degree).  All family coefficients are dyadic rationals,
so double arithmetic below is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DomainError, InputError, decode_pairs, read_json, write_json

TRIM_TOL = 1e-14
PARITY_TOL = 1e-12
_OUTER_LIMIT = 10.0     # right end of the domination window checked outside [-1, 1]
_GRID_SIZE = 10_000     # points per window in check_qet_conditions
MAX_DEGREE = 2_000      # highest degree load_poly accepts (~0.5 s to check); the family's is 41


@dataclass(frozen=True)
class ComplexPolynomial:
    coeffs: np.ndarray  # complex128, index = power of x
    parity: str         # "even", "odd", or "none"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class ConditionReport:
    degree_ok: bool
    parity_ok: bool
    bounded_inside: bool
    dominating_outside: bool
    even_axis_ok: bool
    witness: tuple[str, float, float] | None  # (check, x, value) for the first failure

    @property
    def passed(self) -> bool:
        return (self.degree_ok and self.parity_ok and self.bounded_inside
                and self.dominating_outside and self.even_axis_ok)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(coeffs) > TRIM_TOL)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=np.complex128)
    return coeffs[: nz[-1] + 1]


def _infer_parity(coeffs: np.ndarray) -> str:
    even_mass = float(np.abs(coeffs[0::2]).max()) if len(coeffs[0::2]) else 0.0
    odd_mass = float(np.abs(coeffs[1::2]).max()) if len(coeffs[1::2]) else 0.0
    if odd_mass <= PARITY_TOL and even_mass > PARITY_TOL:
        return "even"
    if even_mass <= PARITY_TOL and odd_mass > PARITY_TOL:
        return "odd"
    return "none"


def polynomial(coeffs, parity: str | None = None) -> ComplexPolynomial:
    """Build a trimmed polynomial, inferring or validating its parity flag."""
    c = _trim(np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).copy())
    c.setflags(write=False)
    if parity is None:
        parity = _infer_parity(c)
    elif parity not in ("even", "odd", "none"):
        raise InputError(f"unknown parity {parity!r}")
    elif parity in ("even", "odd"):
        opposite = c[1::2] if parity == "even" else c[0::2]
        if len(opposite) and np.abs(opposite).max() > PARITY_TOL:
            raise DomainError(f"declared parity {parity!r} conflicts with the coefficients")
    return ComplexPolynomial(c, parity)


def poly_eval(p: ComplexPolynomial | np.ndarray, x):
    """Evaluate at scalar or array x (Horner)."""
    c = p.coeffs if isinstance(p, ComplexPolynomial) else np.asarray(p, dtype=np.complex128)
    return P.polyval(x, c)


def pade(l: int) -> ComplexPolynomial:
    """Member l of the odd iteration family, exact in double precision."""
    if not isinstance(l, int) or l < 1:
        raise DomainError(f"family index must be a positive integer, got {l!r}")
    u = np.array([1.0, 0.0, -1.0])  # 1 - x^2
    acc = np.zeros(2 * l + 1, dtype=np.float64)
    upow = np.array([1.0])
    for k in range(l + 1):
        ck = math.comb(2 * k, k) / 4.0 ** k
        acc[: len(upow)] += ck * upow
        upow = np.convolve(upow, u)
    coeffs = np.concatenate([[0.0], acc]).astype(np.complex128)
    return polynomial(coeffs, "odd")


def check_qet_conditions(p: ComplexPolynomial) -> ConditionReport:
    """Grid check of the realizability conditions for a candidate polynomial.

    Inside: |p| <= 1 + 1e-9 on [-1, 1].  Outside: |p| >= 1 - 1e-9 on the
    window [1, 10].  For even degree additionally |p(ix) p*(ix)| >= 1 - 1e-9
    on [0, 10], p* having the conjugate coefficients.  Each window is a grid
    of _GRID_SIZE points.  The witness records the first failing point.
    Values that overflow, to inf or to NaN (inf * 0), print no warning; inf
    fails the inside bound and passes the outside ones, NaN fails none.
    """
    degree_ok = p.degree >= 1 and abs(p.coeffs[-1]) > TRIM_TOL
    want = "odd" if p.degree % 2 else "even"
    parity_ok = p.parity == want and _infer_parity(p.coeffs) == want
    tol = 1e-9
    xs = np.linspace(-1.0, 1.0, _GRID_SIZE)
    xo = np.linspace(1.0, _OUTER_LIMIT, _GRID_SIZE)
    with np.errstate(over="ignore", invalid="ignore"):
        vs, vo = np.abs(poly_eval(p, xs)), np.abs(poly_eval(p, xo))
        windows = [("bounded_inside", xs, vs, vs > 1.0 + tol),  # (check, grid, values, failures)
                   ("dominating_outside", xo, vo, vo < 1.0 - tol)]
        if p.degree % 2 == 0:
            xa = np.linspace(0.0, _OUTER_LIMIT, _GRID_SIZE)
            va = np.abs(poly_eval(p, 1j * xa) * poly_eval(np.conj(p.coeffs), 1j * xa))
            windows.append(("even_axis", xa, va, va < 1.0 - tol))
    ok, witness = {"even_axis": True}, None
    for check, grid, vals, bad in windows:
        ok[check] = not bad.any()
        if witness is None and bad.any():
            k = int(np.argmax(bad))  # the first failing point
            witness = (check, float(grid[k]), float(vals[k]))
    return ConditionReport(degree_ok, parity_ok, ok["bounded_inside"],
                           ok["dominating_outside"], ok["even_axis"], witness)


# ------------------------------------------------------------------- file io

def load_poly(path: str) -> ComplexPolynomial:
    doc = read_json(path, "polynomial", ("coeffs", "parity"))
    pairs = doc["coeffs"]
    if not isinstance(pairs, list) or not pairs:
        raise InputError("coeffs must be a non-empty list of [re, im] pairs")
    if len(pairs) > MAX_DEGREE + 1:
        raise InputError(f"{len(pairs)} coefficients make a degree over the limit of {MAX_DEGREE}")
    coeffs = decode_pairs(pairs, "coefficient")
    parity = doc["parity"]
    if parity not in ("even", "odd", "none"):
        raise InputError(f"parity must be even, odd, or none, got {parity!r}")
    try:
        return polynomial(coeffs, parity)
    except DomainError as exc:
        raise InputError(str(exc)) from exc


def save_poly(path: str, p: ComplexPolynomial) -> None:
    write_json(path, {"coeffs": [[float(v.real), float(v.imag)] for v in p.coeffs],
                      "parity": p.parity})
