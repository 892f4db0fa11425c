"""Scalar phase algebra: phase finding, form conversion and evaluation.

A length-q reflection sequence realizes a degree-q polynomial f as the
top-left entry of prod_{i=1..q} exp(i*phi_i*Z) R(x), with the i = q factor
rightmost.  Phases are derived in the rotation picture, where a degree
reduction peels one angle per step from the pair (f, h), and are then
shifted into the reflection picture.  The round trip is checked in
reflection form by the chain kernel, the package's one evaluator of a
phase list on scalars.  The complementary h of p_l is read off the q of
deflate_pade_square, the exact factorization
1 - p_l^2 = (1 - u)^(l+1) q(u) over u = x^2.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.polynomial import polynomial as P

from ._kernels import phase_chain
from .errors import DomainError, NumericError
from .poly import (ComplexPolynomial, deflate_pade_square, pade, poly_eval,
                   polynomial, roots_in_u)

_ZERO_TOL = 1e-12        # coefficients zeroed during the reduction
_IDENTITY_TOL = 1e-9
_MODULUS_TOL = 1e-8


def canonicalize_angles(angles) -> np.ndarray:
    """Map every angle into (-pi, pi]."""
    a = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    out = np.mod(a + np.pi, 2.0 * np.pi) - np.pi
    out[out == -np.pi] = np.pi
    return out


def reflection_upper_left(phases: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Realized polynomial values f(xs) for a reflection sequence (kernel path)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if not (np.abs(xs) <= 1.0 + 1e-12).all():  # a positive test, so NaN fails it
        raise DomainError("signal points must lie in [-1, 1]")
    return phase_chain(np.asarray(phases, dtype=np.float64), xs)


# ------------------------------------------------------- complementary part

def pade_complement(l: int) -> ComplexPolynomial:
    """Complementary h of p_l, with p_l^2 + (1 - x^2) h h* = 1.

    deflate_pade_square gives the exact factorization
    1 - p_l^2 = (1 - u)^(l+1) q(u) over u = x^2.  One (1 - u) is the
    (1 - x^2) of the identity; the other l split evenly, and q's roots
    come in conjugate pairs, one member of each going into h:
    h = sqrt(alpha) (x^2 - 1)^(l/2) prod (x^2 - r), with alpha the leading
    coefficient of q and r the upper member of each pair, in the order
    roots_in_u returns them.  A real root of q cannot be split and is a
    numeric failure.  The identity is re-checked on a 101-point grid.
    """
    if l % 2 == 1:
        raise DomainError(f"odd family member {l} admits no complementary "
                          "polynomial; its square dips below 1 outside [-1, 1]")
    q = deflate_pade_square(l)  # also rejects l < 1
    alpha = q.coeffs[-1].real   # deflate_pade_square works in real arithmetic
    if alpha <= 0.0:
        raise NumericError(f"factorization needs a positive leading factor, got {alpha:.3e}")
    roots = roots_in_u(q)
    pair_tol = 1e-7 * max(1.0, float(np.abs(roots).max()))
    real = [r for r in roots if abs(r.imag) <= pair_tol]
    if real:
        raise NumericError(f"real root {real[0].real:.6e} of the deflated square cannot be split")
    upper = [r for r in roots if r.imag > 0.0]
    lower = [r for r in roots if r.imag < 0.0]
    if len(upper) != len(lower):
        raise NumericError("complex roots failed to pair into conjugates")
    for r in upper:
        partner = min(lower, key=lambda s: abs(s - r.conjugate()))
        if abs(partner - r.conjugate()) > pair_tol:
            raise NumericError(f"no conjugate partner for root {r:.6e}")
        lower.remove(partner)

    h = np.array([math.sqrt(alpha)], dtype=np.complex128)
    for _ in range(l // 2):
        h = np.convolve(h, np.array([-1.0, 0.0, 1.0]))     # (x^2 - 1)
    for r in upper:
        h = np.convolve(h, np.array([-r, 0.0, 1.0]))        # (x^2 - r)

    xs = np.linspace(-1.0, 1.0, 101)
    fv = poly_eval(pade(l), xs)
    hv = P.polyval(xs, h)
    dev = np.abs(fv * np.conj(fv) + (1.0 - xs**2) * hv * np.conj(hv) - 1.0)
    worst = int(np.argmax(dev))
    if dev[worst] > _IDENTITY_TOL:
        raise NumericError(
            f"complementary identity fails at x = {xs[worst]:.6f} by {dev[worst]:.3e}")
    return polynomial(h)


# ------------------------------------------------------------ phase finding

def find_phases_rotation(f: ComplexPolynomial, h: ComplexPolynomial) -> np.ndarray:
    """Rotation-form phases (phi_0 .. phi_q) realizing the pair (f, h).

    Each step divides the leading coefficients to read one angle, then
    reduces the pair by one degree.  The result is canonicalized to
    (-pi, pi] and verified on a 201-point grid in reflection form: the
    chain kernel evaluates rotation_to_reflection of it, so the check
    covers the conversion as well.
    """
    fc = f.coeffs.astype(np.complex128).copy()
    hc = h.coeffs.astype(np.complex128).copy()
    q = len(fc) - 1
    if q < 1:
        raise DomainError("need degree at least 1")
    if len(hc) - 1 != q - 1:
        raise DomainError(f"expected deg h = deg f - 1, got {len(hc) - 1} vs {q}")
    phases = np.zeros(q + 1, dtype=np.float64)
    for deg in range(q, 0, -1):
        if abs(hc[deg - 1]) == 0.0:
            raise NumericError(f"inconsistent pair at degree {deg}: partner leading coefficient is zero")
        ratio = fc[deg] / hc[deg - 1]
        if abs(abs(ratio) - 1.0) > _MODULUS_TOL:
            raise NumericError(
                f"inconsistent pair at degree {deg}: leading ratio modulus {abs(ratio):.6e}")
        phi = 0.5 * math.atan2(ratio.imag, ratio.real)
        phases[deg] = phi
        ep = complex(math.cos(phi), math.sin(phi))
        em = ep.conjugate()
        # f~ = em * x f + ep * (1 - x^2) h ; h~ = ep * x h - em * f
        nf = np.zeros(deg + 2, dtype=np.complex128)
        nf[1 : len(fc) + 1] += em * fc
        nf[: len(hc)] += ep * hc
        nf[2 : len(hc) + 2] -= ep * hc
        nh = np.zeros(deg + 1, dtype=np.complex128)
        nh[1 : len(hc) + 1] += ep * hc
        nh[: len(fc)] -= em * fc
        nf[np.abs(nf) < _ZERO_TOL] = 0.0
        nh[np.abs(nh) < _ZERO_TOL] = 0.0
        fc = nf[:deg]      # degrees deg..deg+1 cancel by construction
        hc = nh[: max(deg - 1, 1)]
        if np.abs(nf[deg:]).max() > _ZERO_TOL:
            raise NumericError(f"degree did not drop below {deg} during the reduction")
        if deg >= 2 and np.abs(nh[deg - 1 :]).max() > _ZERO_TOL:
            raise NumericError(f"partner degree did not drop below {deg - 1}")
    if abs(abs(fc[0]) - 1.0) > _MODULUS_TOL:
        raise NumericError(f"constant term modulus {abs(fc[0]):.6e} is not 1")
    phases[0] = math.atan2(fc[0].imag, fc[0].real)
    phases = canonicalize_angles(phases)

    xs = np.linspace(-1.0, 1.0, 201)
    target = poly_eval(f, xs)
    got = reflection_upper_left(rotation_to_reflection(phases), xs)
    worst = int(np.argmax(np.abs(got - target)))
    if abs(got[worst] - target[worst]) > _IDENTITY_TOL:
        raise NumericError(
            f"phase round-trip fails at x = {xs[worst]:.6f} by {abs(got[worst] - target[worst]):.3e}")
    return phases


def rotation_to_reflection(phases: np.ndarray) -> np.ndarray:
    """Shift rotation-form phases (length q+1) into reflection form (length q)."""
    phases = np.asarray(phases, dtype=np.float64)
    q = len(phases) - 1
    if q < 1:
        raise DomainError("need at least two rotation phases")
    out = np.empty(q, dtype=np.float64)
    out[0] = phases[0] + phases[q] + (q - 1) * np.pi / 2.0
    out[1:] = phases[1:q] - np.pi / 2.0
    return canonicalize_angles(out)


def chebyshev_reflection_phases(q: int) -> np.ndarray:
    """Reflection phases realizing the degree-q Chebyshev polynomial T_q."""
    if q < 1:
        raise DomainError("degree must be at least 1")
    out = np.full(q, -np.pi / 2.0)
    out[0] = (q - 1) * np.pi / 2.0
    return canonicalize_angles(out)


_PHASE_CACHE: dict[int, np.ndarray] = {}


def pade_phases(l: int) -> np.ndarray:
    """Reflection phases for any admissible (even) family member.

    The deflated remainder of 1 - p_l^2 has degree l in u = x^2, and
    roots_in_u picks the route by that degree: the quadratic formula for
    l = 2, the iterative root finder for l >= 4.  Odd
    members fail the domination condition and have no complementary
    partner; pade_complement rejects them before any root finding.  The
    first successful derivation for each l is cached; every call returns
    a fresh copy, and a failed derivation is not cached.
    """
    cached = _PHASE_CACHE.get(l)
    if cached is not None:
        return cached.copy()
    phases = rotation_to_reflection(find_phases_rotation(pade(l), pade_complement(l)))
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
