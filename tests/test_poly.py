import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rqet import (DomainError, InputError, check_qet_conditions, load_poly, pade, poly_eval,
                  polynomial)
from rqet.poly import MAX_DEGREE
from conftest import exact_pade_coeffs, save_poly
from pade_table import deflated_roots, exact_deflation, to_mp


@pytest.mark.parametrize("l", [1, 2, 3, 4, 6, 8, 20])
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


# the generator's exact deflation and root step (tests/pade_table.py)

def test_deflate_pade_square_l2():
    # 1 - p2(x)^2 = (1 - u)^3 q(u) with u = x^2 and q exactly quadratic
    assert exact_deflation(2) == [1, Fraction(-33, 64), Fraction(9, 64)]


def test_deflate_pade_square_l4():
    assert exact_deflation(4) == [1, Fraction(-17305, 16384), Fraction(14235, 16384),
                                  Fraction(-6475, 16384), Fraction(1225, 16384)]


def test_deflated_identity_reconstructs():
    # multiply the factors back and compare against 1 - p2^2 on a grid
    q = [float(c) for c in exact_deflation(2)]
    xs = np.linspace(-1.3, 1.3, 57)
    u = xs * xs
    lhs = 1.0 - np.real(poly_eval(pade(2), xs)) ** 2
    rhs = (1 - u) ** 3 * np.polynomial.polynomial.polyval(u, q)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_roots_in_u_pade2():
    with mpmath.workdps(30):
        roots = [complex(r) for r in deflated_roots(to_mp(exact_deflation(2)))]
    s = (11.0 + 3.0 * np.sqrt(15.0) * 1j) / 6.0
    got = np.sort_complex(np.array(roots))
    ref = np.sort_complex(np.array([s, s.conjugate()]))
    assert np.abs(got - ref).max() < 1e-14


def test_poly_json_roundtrip(tmp_path):
    p = pade(2)
    path = tmp_path / "p.json"
    save_poly(str(path), p)
    assert path.read_bytes() == (b'{"coeffs": [[0.0, 0.0], [1.875, 0.0], [0.0, 0.0], [-1.25, 0.0], '
                                 b'[0.0, 0.0], [0.375, 0.0]], "parity": "odd"}\n')
    back = load_poly(str(path))
    assert back.parity == "odd"
    assert np.abs(np.array(back.coeffs) - np.array(p.coeffs)).max() == 0.0


@pytest.mark.parametrize("text, message", [
    ('[[0.0, 0.0], [1.0]]', "coefficient 1 is not a [re, im] pair"),
    ('[[0.0, 0.0], 1.0]', "coefficient 1 is not a [re, im] pair"),
    ('[[0.0, 0.0], [1e400, 0.0]]', "coefficient 1 holds a non-finite or non-numeric value"),
    ('[[0.0, 0.0], [null, 0.0]]', "coefficient 1 holds a non-finite or non-numeric value"),
    ('[[0.0, 0.0], [true, false]]', "coefficient 1 holds a non-finite or non-numeric value"),
])
def test_poly_file_pair_errors_name_the_coefficient(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"coeffs": {text}, "parity": "weird"}}')  # pairs are read before parity
    with pytest.raises(InputError) as exc:
        load_poly(str(path))
    assert str(exc.value) == message


@pytest.mark.parametrize("text", ['{"coeffs": [[0.0, 0.0]]}', '[1, 2]'])
def test_poly_file_needs_its_keys(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        load_poly(str(path))
    assert str(exc.value) == f"polynomial file {path} needs keys coeffs, parity"


def test_load_poly_refuses_a_degree_over_the_limit(tmp_path):
    path = tmp_path / "p.json"
    save_poly(str(path), polynomial(np.ones(MAX_DEGREE + 2)))
    with pytest.raises(InputError) as exc:
        load_poly(str(path))
    assert str(exc.value) == (f"{MAX_DEGREE + 2} coefficients make a degree over the limit "
                              f"of {MAX_DEGREE}")
    save_poly(str(path), polynomial(np.ones(MAX_DEGREE + 1)))
    assert load_poly(str(path)).degree == MAX_DEGREE


def test_overflowing_values_give_verdicts_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = check_qet_conditions(polynomial(np.ones(MAX_DEGREE + 1)))  # inf and NaN outside
        # Horner overflows inside too, to inf and to NaN (at x = -1, where the value is 1e308)
        huge = check_qet_conditions(polynomial(1e308 * np.array([0, 1, 1, -1])))
    assert not top.bounded_inside and top.dominating_outside and top.witness[0] == "bounded_inside"
    assert not huge.bounded_inside and huge.witness[0] == "bounded_inside"
