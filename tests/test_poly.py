from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rqet import (DomainError, InputError, check_qet_conditions,
                  deflate_pade_square, load_poly, pade, poly_eval, polynomial,
                  roots_in_u, save_poly)
from rqet.poly import _durand_kerner, _roots_cubic, _roots_quadratic, _roots_quartic


def exact_pade_coeffs(l):
    # independent construction over the rationals: x * sum_k C(2k,k)/4^k (1-x^2)^k
    acc = [Fraction(0)] * (2 * l + 2)
    for k in range(l + 1):
        c = Fraction(comb(2 * k, k), 4 ** k)
        # (1 - x^2)^k expanded
        for j in range(k + 1):
            acc[1 + 2 * j] += c * comb(k, j) * (-1) ** j
    return acc


@pytest.mark.parametrize("l", [1, 2, 3, 4, 6, 8])
def test_pade_coefficients_exact(l):
    p = pade(l)
    ref = exact_pade_coeffs(l)
    got = list(p.coeffs) + [0.0] * (len(ref) - len(p.coeffs))
    for g, r in zip(got, ref):
        assert float(g.real) == float(r) and g.imag == 0.0
    assert p.parity == "odd"
    assert p.degree == 2 * l + 1


def test_pade2_reference_values():
    p = pade(2)
    assert poly_eval(p, 0.5).real == 0.79296875
    assert poly_eval(p, 0.3).real == 0.52966125
    assert abs(poly_eval(p, 1.0) - 1.0) == 0.0


@pytest.mark.parametrize("l", [1, 2, 3, 5])
def test_pade_derivative_vanishing_order(l):
    # derivative is proportional to (1 - x^2)^l, so p stays flat at the ends
    p = pade(l)
    dcoef = np.array([k * c for k, c in enumerate(p.coeffs)][1:])
    lead = Fraction(1)
    for k in range(1, l + 1):
        lead *= Fraction(2 * k + 1, 2 * k)
    xs = np.linspace(-1, 1, 101)
    deriv = np.polyval(dcoef[::-1], xs)
    ref = float(lead) * (1 - xs * xs) ** l
    assert np.abs(deriv - ref).max() < 1e-12 * float(lead)


def test_pade_fixed_points_and_monotone_push():
    p = pade(2)
    for x in (0.2, 0.5, 0.77):
        y = poly_eval(p, x).real
        assert x < y < 1.0
        assert abs(1.0 - y) <= (1.0 - x * x) ** 3


def test_polynomial_parity_inference():
    assert polynomial([0, 1, 0, -2]).parity == "odd"
    assert polynomial([1, 0, 3]).parity == "even"
    assert polynomial([1, 1]).parity == "none"


def test_polynomial_parity_declaration_enforced():
    with pytest.raises(DomainError):
        polynomial([1, 1], parity="odd")


def test_polynomial_trims_trailing_zeros():
    p = polynomial([0, 1, 0, 0])
    assert p.degree == 1


@pytest.mark.parametrize("l", [2, 4, 6, 8])
def test_conditions_accept_even_pade(l):
    report = check_qet_conditions(pade(l))
    assert report.passed


@pytest.mark.parametrize("l", [1, 3])
def test_conditions_reject_odd_pade(l):
    report = check_qet_conditions(pade(l))
    assert not report.passed
    assert not report.dominating_outside
    name, x, val = report.witness
    assert name == "dominating_outside"
    assert x > 1.0
    assert val < 1.0


def test_condition_witness_for_first_pade():
    # the degree-3 member dips below 1 right outside the interval
    report = check_qet_conditions(pade(1))
    _, x, val = report.witness
    assert abs(poly_eval(pade(1), 1.2).real) < 0.94


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
def test_conditions_accept_chebyshev(q):
    cheb = np.polynomial.chebyshev.cheb2poly(np.eye(q + 1)[q])
    report = check_qet_conditions(polynomial(cheb))
    assert report.passed


def test_conditions_grid_size_guard():
    with pytest.raises(InputError):
        check_qet_conditions(pade(2), grid_size=10)


def test_deflate_pade_square_l2():
    # 1 - p2(x)^2 = (1 - u)^3 q(u) with u = x^2 and q exactly quadratic
    q = deflate_pade_square(2)
    ref = np.array([1.0, -33.0 / 64.0, 9.0 / 64.0])
    assert np.abs(np.array(q.coeffs) - ref).max() < 1e-15


def test_deflate_pade_square_l4():
    q = deflate_pade_square(4)
    ref = np.array([1.0, -17305.0 / 16384.0, 14235.0 / 16384.0,
                    -6475.0 / 16384.0, 1225.0 / 16384.0])
    assert np.abs(np.array(q.coeffs) - ref).max() < 1e-15


def test_deflated_identity_reconstructs():
    # multiply the factors back and compare against 1 - p2^2 on a grid
    q = deflate_pade_square(2)
    xs = np.linspace(-1.3, 1.3, 57)
    u = xs * xs
    lhs = 1.0 - np.real(poly_eval(pade(2), xs)) ** 2
    rhs = (1 - u) ** 3 * np.real(poly_eval(q, u))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_roots_quadratic_exact():
    r = sorted(_roots_quadratic(np.array([2.0, -3.0, 1.0], dtype=complex)), key=lambda z: z.real)
    assert abs(r[0] - 1.0) < 1e-14 and abs(r[1] - 2.0) < 1e-14


def test_roots_cubic_with_complex_pair():
    # (u - 2)(u^2 + 1)
    c = np.array([-2.0, 1.0, -2.0, 1.0], dtype=complex)
    r = _roots_cubic(c)
    vals = sorted(r, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert min(abs(v - 2.0) for v in vals) < 1e-12
    assert min(abs(v - 1j) for v in vals) < 1e-12


def test_roots_quartic_against_numpy():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        c[4] += 3.0
        mine = np.sort_complex(np.array(_roots_quartic(c)))
        ref = np.sort_complex(np.roots(c[::-1]))
        assert np.abs(mine - ref).max() < 1e-8


def test_durand_kerner_high_degree():
    # (u-1)(u-2)...(u-6) expanded
    ref = np.arange(1.0, 7.0)
    c = np.poly(ref)[::-1].astype(complex)
    roots = np.sort_complex(np.array(_durand_kerner(c)))
    assert np.abs(roots - ref).max() < 1e-9


def test_roots_in_u_pade2():
    q = deflate_pade_square(2)
    roots = roots_in_u(q)
    s = (11.0 + 3.0 * np.sqrt(15.0) * 1j) / 6.0
    got = np.sort_complex(np.array(roots))
    ref = np.sort_complex(np.array([s, s.conjugate()]))
    assert np.abs(got - ref).max() < 1e-12


def test_roots_in_u_iterative_matches_analytic():
    q = deflate_pade_square(4)
    a = list(roots_in_u(q, analytic_if_possible=True))
    b = list(roots_in_u(q, analytic_if_possible=False))
    # greedy pair-match: lexicographic sorting is unstable for conjugate
    # pairs whose real parts agree to rounding
    for v in a:
        j = int(np.argmin([abs(v - w) for w in b]))
        assert abs(v - b[j]) < 1e-9
        b.pop(j)


def test_poly_json_roundtrip(tmp_path):
    p = pade(2)
    path = tmp_path / "p.json"
    save_poly(str(path), p)
    back = load_poly(str(path))
    assert back.parity == "odd"
    assert np.abs(np.array(back.coeffs) - np.array(p.coeffs)).max() == 0.0
