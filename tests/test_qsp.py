import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqet import (DomainError, InputError, NumericError,
                  canonicalize_angles, chebyshev_reflection_phases,
                  find_phases_rotation, load_poly, pade, pade_complement, pade_phases, poly_eval, polynomial, qsp,
                  reflection_upper_left, rotation_to_reflection, save_phases)
from rqet._kernels import phase_chain


def direct_product(phases, xs, form="reflection"):
    """Top-left entry of the phased product by plain 2x2 multiplication, one
    point at a time: prod_i exp(i phi_i Z) R(x) in reflection form, and
    exp(i phi_0 Z) prod_{i>=1} W(x) exp(i phi_i Z) in rotation form."""
    def zrot(phi):
        return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])

    out = []
    for x in xs:
        w = np.sqrt(1.0 - x * x)
        if form == "rotation":
            W, M = np.array([[x, 1j * w], [1j * w, x]]), zrot(phases[0])
            for phi in phases[1:]:
                M = M @ W @ zrot(phi)
        else:
            R, M = np.array([[x, w], [w, -x]]), np.eye(2)
            for phi in phases:
                M = M @ zrot(phi) @ R
        out.append(M[0, 0])
    return np.array(out)


def cheb_poly(q):
    return polynomial(np.polynomial.chebyshev.cheb2poly(np.eye(q + 1)[q]))


def analytic_reference_set():
    t1 = np.arctan(np.sqrt(15.0) / 7.0)
    t2 = np.arctan(np.sqrt(15.0))
    return np.array([0.0, np.pi + t1 / 2, np.pi + t2 / 2, -t2 / 2, -t1 / 2])


def test_canonicalize_range():
    a = canonicalize_angles(np.array([3 * np.pi, -np.pi, 0.1, 2 * np.pi - 0.1]))
    assert np.all(a > -np.pi) and np.all(a <= np.pi)
    assert abs(a[0] - np.pi) < 1e-15
    assert abs(a[1] - np.pi) < 1e-15


def test_signal_rejects_out_of_range():
    with pytest.raises(DomainError):
        reflection_upper_left(pade_phases(2), [1.5])


def test_analytic_pade_phases_multiset():
    got = np.sort(canonicalize_angles(pade_phases(2)))
    ref = np.sort(canonicalize_angles(analytic_reference_set()))
    assert np.abs(got - ref).max() < 1e-12


def test_analytic_phases_realize_polynomial():
    phases = pade_phases(2)
    xs = np.linspace(-1, 1, 201)
    f = reflection_upper_left(phases, xs)
    ref = np.real(poly_eval(pade(2), xs))
    assert np.abs(f - ref).max() < 1e-10
    assert np.abs(f.imag).max() < 1e-10


@pytest.mark.parametrize("l", [2, 4, 6, 8])
def test_phase_pipeline_round_trip_even_pade(l):
    phases = pade_phases(l)
    assert len(phases) == 2 * l + 1
    xs = np.linspace(-1, 1, 201)
    f = reflection_upper_left(phases, xs)
    ref = np.real(poly_eval(pade(l), xs))
    assert np.abs(f - ref).max() < 1e-9


def test_pade_phases_copy_does_not_touch_cache():
    first = pade_phases(2)
    expected = first.copy()
    first[:] = 0.0
    assert np.array_equal(pade_phases(2), expected)


def test_pade_phases_derived_once(monkeypatch):
    calls = []
    original = qsp.find_phases_rotation

    def counting(f, h):
        calls.append(f.degree)
        return original(f, h)

    monkeypatch.setattr(qsp, "_PHASE_CACHE", {})
    monkeypatch.setattr(qsp, "find_phases_rotation", counting)
    first = pade_phases(2)
    second = pade_phases(2)
    assert calls == [5]
    assert np.array_equal(first, second)


def test_pade_phases_rejects_odd():
    with pytest.raises(DomainError):
        pade_phases(3)


def test_closed_form_route_for_l2_and_l4(monkeypatch):
    # the deflated remainder has degree l, so l in {2, 4} must never
    # reach the iterative root finder, and l = 6 must
    expected = {l: pade_phases(l) for l in (2, 4)}

    def refuse(*_):
        raise NumericError("iterative root finder called")

    monkeypatch.setattr("rqet.poly._durand_kerner", refuse)
    monkeypatch.setattr(qsp, "_PHASE_CACHE", {})
    for l in (2, 4):
        assert np.array_equal(pade_phases(l), expected[l])
    with pytest.raises(NumericError, match="iterative root finder called"):
        pade_phases(6)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7])
def test_chebyshev_trivial_phases(q):
    phases = chebyshev_reflection_phases(q)
    xs = np.linspace(-1, 1, 101)
    f = reflection_upper_left(phases, xs)
    ref = np.cos(q * np.arccos(xs))
    assert np.abs(f - ref).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=14).map(np.array))
def test_rotation_and_reflection_forms_agree(rot):
    xs = np.array([-1.0, -0.9, -0.2, 0.0, 0.33, 0.81, 1.0])
    refl = reflection_upper_left(rotation_to_reflection(rot), xs)
    assert np.abs(refl - direct_product(rot, xs, "rotation")).max() < 1e-12


def test_round_trip_checks_the_reflection_conversion(monkeypatch):
    original = qsp.rotation_to_reflection

    def one_angle_shifted(phases):
        out = original(phases)
        out[1] += 1e-3
        return out

    monkeypatch.setattr(qsp, "rotation_to_reflection", one_angle_shifted)
    monkeypatch.setattr(qsp, "_PHASE_CACHE", {})
    with pytest.raises(NumericError, match="phase round-trip fails"):
        pade_phases(4)


@pytest.mark.parametrize("l", [2, 4, 6, 8])
def test_pade_complement_identity(l):
    f = pade(l)
    h = pade_complement(l)
    assert h.degree == 2 * l
    xs = np.linspace(-1, 1, 301)
    lhs = np.real(poly_eval(f, xs)) ** 2 + (1 - xs * xs) * np.abs(poly_eval(h, xs)) ** 2
    assert np.abs(lhs - 1.0).max() < 1e-9


def test_complementary_rejects_dipping_polynomial():
    # odd family members admit no complementary partner
    for l in (1, 3):
        with pytest.raises(DomainError, match="odd family member"):
            pade_complement(l)


def test_pade_phases_factors_the_square_once(monkeypatch):
    calls = []
    original = qsp.deflate_pade_square

    def counting(l):
        calls.append(l)
        return original(l)

    monkeypatch.setattr(qsp, "deflate_pade_square", counting)
    for l in (2, 4, 6, 8):
        monkeypatch.setattr(qsp, "_PHASE_CACHE", {})
        calls.clear()
        pade_phases(l)
        assert calls == [l]


def test_pade_complement_rejects_negative_leading_factor(monkeypatch):
    original = qsp.deflate_pade_square
    monkeypatch.setattr(qsp, "deflate_pade_square", lambda l: polynomial(-original(l).coeffs))
    with pytest.raises(NumericError, match="positive leading factor"):
        pade_complement(4)


def test_pade_complement_rejects_real_root(monkeypatch):
    # a real root of q has no conjugate partner to split it with
    original = qsp.roots_in_u

    def one_pair_made_real(q):
        roots = original(q).copy()
        roots[np.argmax(roots.imag)] = roots[np.argmin(roots.imag)] = 0.5
        return roots

    monkeypatch.setattr(qsp, "roots_in_u", one_pair_made_real)
    with pytest.raises(NumericError, match="real root"):
        pade_complement(4)


def test_find_phases_requires_degree_gap():
    f = cheb_poly(3)
    with pytest.raises(DomainError):
        find_phases_rotation(f, polynomial([0.0, 0.0, 0.0, 1.0]))


def test_phases_json_roundtrip(tmp_path):
    phases = pade_phases(2)
    path = tmp_path / "ph.json"
    save_phases(str(path), "reflection", phases)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["form"] == "reflection"
    assert np.abs(np.asarray(doc["angles"]) - phases).max() == 0.0


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_poly_and_phase_files_reject_non_finite(tmp_path, constant):
    poly_path = tmp_path / "p.json"
    poly_path.write_text(f'{{"coeffs": [[0.0, 0.0], [{constant}, 0.0]], "parity": "odd"}}')
    with pytest.raises(InputError, match="non-finite value"):
        load_poly(str(poly_path))


def test_phase_chain_matches_direct_product():
    rng = np.random.default_rng(2)
    phases = rng.uniform(-np.pi, np.pi, 7)
    xs = np.array([-0.8, -0.1, 0.4, 0.95])
    fast = reflection_upper_left(phases, xs)
    assert np.abs(fast - direct_product(phases, xs)).max() < 1e-13


@pytest.mark.parametrize("length", [1, 2, 3, 24, 25, 26, 125, 5 ** 5])
def test_blocked_phase_chain_matches_reflection_product(length):
    # 25 fills whole blocks of isqrt(N) phases; 26, 125 and 5^5 leave tail phases
    rng = np.random.default_rng(length)
    phases = rng.uniform(-np.pi, np.pi, length)
    xs = np.array([-1.0, -0.6, 0.0, 0.3, 1.0])
    fast = phase_chain(phases, xs)
    assert np.abs(fast - direct_product(phases, xs)).max() < 1e-12
