"""Scalar phase algebra: signal matrices, phase finding, and form conversion.

A length-q reflection sequence realizes a degree-q polynomial f as the
top-left entry of prod_{i=1..q} exp(i*phi_i*Z) R(x), with the i = q factor
rightmost.  Phases are derived in the rotation picture, where a degree
reduction peels one angle per step from the pair (f, h), and are then
shifted into the reflection picture.  The complementary h comes from an
explicit factorization of 1 - f f* over u = x^2.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.polynomial import polynomial as P

from ._kernels import phase_chain
from .errors import DomainError, InputError, NumericError, read_json
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


def _check_signal(x: float) -> tuple[float, float]:
    if abs(x) > 1.0 + 1e-12:
        raise DomainError(f"signal point {x} lies outside [-1, 1]")
    return float(x), math.sqrt(max(0.0, 1.0 - x * x))


def w_matrix(x: float) -> np.ndarray:
    """Rotation-form signal [[x, i w], [i w, x]] with w = sqrt(1 - x^2)."""
    x, w = _check_signal(x)
    return np.array([[x, 1j * w], [1j * w, x]], dtype=np.complex128)


def reflection_matrix(x: float) -> np.ndarray:
    """Reflection-form signal [[x, w], [w, -x]] with w = sqrt(1 - x^2)."""
    x, w = _check_signal(x)
    return np.array([[x, w], [w, -x]], dtype=np.complex128)


def _zrot(phi: float) -> np.ndarray:
    e = complex(math.cos(phi), math.sin(phi))
    return np.array([[e, 0.0], [0.0, e.conjugate()]], dtype=np.complex128)


def qsp_rotation_eval(phases: np.ndarray, x: float) -> np.ndarray:
    """exp(i phi_0 Z) prod_{i=1..q} W(x) exp(i phi_i Z), i = q rightmost."""
    phases = np.asarray(phases, dtype=np.float64)
    W = w_matrix(x)
    M = _zrot(phases[0])
    for phi in phases[1:]:
        M = M @ W @ _zrot(phi)
    return M


def qsp_reflection_eval(phases: np.ndarray, x: float) -> np.ndarray:
    """prod_{i=1..q} exp(i phi_i Z) R(x), i = q rightmost."""
    phases = np.asarray(phases, dtype=np.float64)
    R = reflection_matrix(x)
    M = np.eye(2, dtype=np.complex128)
    for phi in phases:
        M = M @ _zrot(phi) @ R
    return M


def reflection_upper_left(phases: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Realized polynomial values f(xs) for a reflection sequence (kernel path)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if np.abs(xs).max() > 1.0 + 1e-12:
        raise DomainError("signal points must lie in [-1, 1]")
    return phase_chain(np.asarray(phases, dtype=np.float64), xs)


# ------------------------------------------------------- complementary part

def _divide_out(coeffs: np.ndarray, root: complex) -> tuple[np.ndarray, complex]:
    """Synthetic division by (u - root); returns (quotient, remainder)."""
    n = len(coeffs) - 1
    quotient = np.zeros(n, dtype=np.complex128)
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        quotient[k] = acc
        acc = coeffs[k] + root * acc
    return quotient, acc


def complementary_poly(f: ComplexPolynomial) -> ComplexPolynomial:
    """Complementary polynomial h with f f* + (1 - x^2) h h* = 1.

    Works over u = x^2: peel one structural (1 - u) factor off 1 - f f*,
    deflate roots pinned at u = 0 and u = 1 by exact synthetic division,
    then factor the low-degree remainder.  Conjugate root pairs contribute
    their upper-half-plane member to h; real roots must occur with even
    multiplicity and split evenly; u = 0 roots contribute single powers
    of x.  The defining identity is re-checked on a 101-point grid.
    """
    q = f.degree
    if q < 1:
        raise DomainError("need a polynomial of degree at least 1")
    if f.parity == "none":
        raise DomainError("need a definite-parity polynomial")
    prod = -np.convolve(f.coeffs, np.conj(f.coeffs))
    prod[0] += 1.0
    if np.abs(prod[1::2]).max() > _ZERO_TOL:
        raise NumericError("1 - f f* acquired odd powers; input parity is broken")
    pu = prod[0::2]  # degree q in u
    scale = max(1.0, float(np.abs(pu).max()))

    pu, rem = _divide_out(pu, 1.0)  # the structural (1 - u) prefactor, sign folded below
    pu = -pu
    if abs(rem) > 1e-10 * scale:
        raise DomainError(f"|f(1)| must equal 1; residual at u = 1 is {abs(rem):.3e}")

    m_zero = 0
    while len(pu) > 1 and abs(pu[0]) <= 1e-12 * scale:
        pu = pu[1:]
        m_zero += 1
    m_one = 0
    while len(pu) > 1:
        cand, rem = _divide_out(pu, 1.0)
        if abs(rem) > 1e-10 * scale:
            break
        pu = cand
        m_one += 1
    if m_one % 2:
        raise DomainError("root at u = 1 has odd multiplicity and cannot be split")

    alpha = pu[-1]
    if alpha.real <= 0.0 or abs(alpha.imag) > 1e-10 * abs(alpha):
        raise DomainError(f"factorization needs a positive leading factor, got {alpha:.3e}")
    alpha = alpha.real

    selected = []
    if len(pu) > 1:
        roots = roots_in_u(pu)
        pair_tol = 1e-7 * max(1.0, float(np.abs(roots).max()))
        complex_roots = [r for r in roots if abs(r.imag) > pair_tol]
        real_roots = sorted((r.real for r in roots if abs(r.imag) <= pair_tol))
        upper = [r for r in complex_roots if r.imag > 0.0]
        lower = [r for r in complex_roots if r.imag < 0.0]
        if len(upper) != len(lower):
            raise NumericError("complex roots failed to pair into conjugates")
        for r in upper:
            partner = min(lower, key=lambda s: abs(s - r.conjugate()))
            if abs(partner - r.conjugate()) > pair_tol:
                raise NumericError(f"no conjugate partner for root {r:.6e}")
            lower.remove(partner)
            selected.append(r)
        while real_roots:
            r = real_roots.pop()
            if not real_roots or abs(real_roots[-1] - r) > pair_tol:
                raise DomainError(f"real root {r:.6e} has odd multiplicity and cannot be split")
            real_roots.pop()
            selected.append(complex(r, 0.0))

    h = np.zeros(1, dtype=np.complex128)
    h[0] = math.sqrt(alpha)
    for _ in range(m_one // 2):
        h = np.convolve(h, np.array([-1.0, 0.0, 1.0]))     # (x^2 - 1)
    for r in selected:
        h = np.convolve(h, np.array([-r, 0.0, 1.0]))        # (x^2 - r)
    h = np.concatenate([np.zeros(m_zero, dtype=np.complex128), h])  # u = 0 gives x * x

    xs = np.linspace(-1.0, 1.0, 101)
    fv = poly_eval(f, xs)
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
    (-pi, pi] and verified by re-evaluation on a 201-point grid.
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
    got = np.array([qsp_rotation_eval(phases, x)[0, 0] for x in xs])
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
    roots_in_u picks the route by that degree: the quadratic or quartic
    formula for l in {2, 4}, the iterative root finder for l >= 6.  Odd
    members fail the domination condition and have no complementary
    partner, so they are rejected up front.  The first successful
    derivation for each l is cached; every call returns a fresh copy,
    and a failed derivation is not cached.
    """
    cached = _PHASE_CACHE.get(l)
    if cached is not None:
        return cached.copy()
    if l < 1:
        raise DomainError("family index must be a positive integer")
    if l % 2 == 1:
        raise DomainError(f"odd family member {l} admits no complementary "
                          "polynomial; its square dips below 1 outside [-1, 1]")
    f = pade(l)
    deflate_pade_square(l)  # exactness guard on the shared factorization
    phases = rotation_to_reflection(find_phases_rotation(f, complementary_poly(f)))
    phases.flags.writeable = False
    _PHASE_CACHE[l] = phases
    return phases.copy()


# ------------------------------------------------------------------- file io

def load_phases(path: str) -> tuple[str, np.ndarray]:
    doc = read_json(path, "phase")
    if not isinstance(doc, dict) or not {"form", "angles"} <= set(doc):
        raise InputError(f"phase file {path} needs keys form, angles")
    form = doc["form"]
    if form not in ("rotation", "reflection"):
        raise InputError(f"form must be rotation or reflection, got {form!r}")
    angles = doc["angles"]
    if not isinstance(angles, list) or not angles:
        raise InputError("angles must be a non-empty list")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in angles):
        raise InputError("angles must all be finite numbers")
    return form, np.asarray(angles, dtype=np.float64)


def save_phases(path: str, form: str, angles: np.ndarray) -> None:
    if form not in ("rotation", "reflection"):
        raise InputError(f"form must be rotation or reflection, got {form!r}")
    doc = {"form": form, "angles": [float(a) for a in np.asarray(angles).ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
