"""Exact derivation of the reflection phases of p_l, and the table it writes.

1 - p_l^2 factors exactly as (1 - u)^(l+1) q(u) over u = x^2, done here
in rational arithmetic.  The roots of q come from mpmath, one member of
each conjugate pair goes into the complementary h, and the pair (p_l, h)
is peeled one degree per step in the rotation picture at `DPS` digits,
then shifted into the reflection picture.  The rounded angles for even
l = 2..20 are the package's table, `src/rqet/pade_phases.json`; the
first angle of every l is zero up to the working precision and is
written as exactly 0.0.

    python tests/pade_table.py      # rewrite the table (under 2 s)

Tests import this module the way they import conftest.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import mpmath

from conftest import exact_pade_coeffs

TABLE_PATH = Path(__file__).resolve().parents[1] / "src" / "rqet" / "pade_phases.json"
LEVELS = range(2, 21, 2)
DPS = 60


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def exact_deflation(l):
    """q with 1 - p_l^2 = (1 - u)^(l+1) q(u), over the rationals."""
    p = exact_pade_coeffs(l)
    sq = [-c for c in poly_mul(p, p)]
    sq[0] += 1
    assert not any(sq[1::2])
    q = sq[0::2]
    for _ in range(l + 1):  # synthetic division by (1 - u)
        quotient = [Fraction(0)] * (len(q) - 1)
        for k in range(len(q) - 1, 0, -1):
            quotient[k - 1] = -q[k]
            q[k - 1] += q[k]
        assert q[0] == 0
        q = quotient
    return q


def to_mp(fractions):
    return [mpmath.mpf(c.numerator) / c.denominator for c in fractions]


def deflated_roots(q):
    """Roots in u of the deflated q (coefficients by ascending power)."""
    return mpmath.polyroots(q[::-1], maxsteps=200, extraprec=200)


def pade_complement(l):
    """Coefficients of h with p_l^2 + (1 - x^2) h h* = 1.

    One (1 - u) of the deflation is the identity's (1 - x^2); the other
    l split evenly into (x^2 - 1)^(l/2).  h takes the upper root of each
    conjugate pair of q and the positive square root of q's leading
    coefficient.
    """
    q = to_mp(exact_deflation(l))
    roots = deflated_roots(q)
    assert q[-1] > 0, "factorization needs a positive leading factor"
    assert all(abs(r.imag) > 1e-10 for r in roots), "a real root of q cannot be split"
    h = [mpmath.sqrt(q[-1])]
    for factor in [[-1, 0, 1]] * (l // 2) + [[-r, 0, 1] for r in roots if r.imag > 0]:
        h = poly_mul(h, factor)
    return h


def mp_reflection_value(phases, x):
    """Top-left entry of prod_i exp(i phi_i Z) R(x), carried as the top row."""
    x = mpmath.mpf(x)
    w = mpmath.sqrt(1 - x * x)
    a, b = mpmath.mpc(1), mpmath.mpc(0)
    for phi in phases:
        e = mpmath.expj(phi)
        a, b = a * e, b * mpmath.conj(e)
        a, b = a * x + b * w, a * w - b * x
    return a


def rotation_to_reflection(rot):
    """Shift rotation phases (length q+1) into reflection phases (length q),
    each mapped into (-pi, pi]."""
    deg = len(rot) - 1
    refl = [rot[0] + rot[deg] + (deg - 1) * mpmath.pi / 2] + [a - mpmath.pi / 2 for a in rot[1:deg]]
    return [a - 2 * mpmath.pi * mpmath.ceil((a - mpmath.pi) / (2 * mpmath.pi)) for a in refl]


def reference_phases(l):
    """Reflection phases of p_l at the working precision."""
    f = to_mp(exact_pade_coeffs(l))
    h = pade_complement(l)
    tiny = mpmath.mpf(10) ** -40
    deg = len(f) - 1
    rot = [mpmath.mpf(0)] * (deg + 1)
    for d in range(deg, 0, -1):
        ratio = f[d] / h[d - 1]
        assert abs(abs(ratio) - 1) < tiny
        rot[d] = mpmath.arg(ratio) / 2
        ep = mpmath.expj(rot[d])
        em = mpmath.conj(ep)
        # f~ = em * x f + ep * (1 - x^2) h ; h~ = ep * x h - em * f
        nf = [a + b for a, b in zip([0] + [em * c for c in f] + [0],
                                     poly_mul(h, [ep, 0, -ep]) + [0])]
        nh = [a - b for a, b in zip([0] + [ep * c for c in h], [em * c for c in f])]
        assert max(abs(c) for c in nf[d:]) < tiny
        f, h = nf[:d], nh[: max(d - 1, 1)]
    rot[0] = mpmath.arg(f[0])
    return rotation_to_reflection(rot)


def phase_table(dps=DPS):
    """Rounded reflection phases for every tabulated l, derived at `dps` digits."""
    table = {}
    with mpmath.workdps(dps):
        zero = mpmath.mpf(10) ** -(dps // 2)
        for l in LEVELS:
            phases = reference_phases(l)
            assert abs(phases[0]) < zero, f"first angle of l = {l} is {phases[0]}"
            table[l] = [0.0] + [float(a) for a in phases[1:]]
    return table


def render(table):
    """The table file's text, one l per line; json writes each float with repr."""
    rows = ",\n".join(f' "{l}": {json.dumps(table[l])}' for l in sorted(table))
    return '{"form": "reflection", "angles": {\n' + rows + "\n}}\n"


if __name__ == "__main__":
    TABLE_PATH.write_text(render(phase_table()), encoding="utf-8")
    print(f"wrote {TABLE_PATH}")
