import numpy as np
import pytest

from rqet import (DomainError, InputError, NumericError,
                  canonicalize_angles, chebyshev_reflection_phases,
                  complementary_poly, find_phases_rotation, load_phases,
                  load_poly, pade, pade_phases, poly_eval, polynomial, qsp,
                  qsp_reflection_eval, qsp_rotation_eval,
                  reflection_upper_left, rotation_to_reflection, save_phases)
from rqet._kernels import phase_chain


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


def test_rotation_signal_is_unitary():
    from rqet.qsp import reflection_matrix, w_matrix
    for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
        for M in (w_matrix(x), reflection_matrix(x)):
            assert np.abs(M @ M.conj().T - np.eye(2)).max() < 1e-15


def test_signal_rejects_out_of_range():
    from rqet.qsp import reflection_matrix
    with pytest.raises(DomainError):
        reflection_matrix(1.5)


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


def test_rotation_and_reflection_forms_agree():
    f = cheb_poly(3)
    h = complementary_poly(f)
    rot = find_phases_rotation(f, h)
    refl = rotation_to_reflection(rot)
    for x in (-0.9, -0.2, 0.33, 0.81):
        a = qsp_rotation_eval(rot, x)[0, 0]
        b = qsp_reflection_eval(refl, x)[0, 0]
        assert abs(a - b) < 1e-12


def test_complementary_chebyshev():
    # T_q pairs with U_(q-1) scaled: f f* + (1-x^2) h h* = 1
    for q in (2, 3, 5):
        f = cheb_poly(q)
        h = complementary_poly(f)
        xs = np.linspace(-1, 1, 101)
        lhs = np.real(poly_eval(f, xs)) ** 2 + (1 - xs * xs) * np.abs(poly_eval(h, xs)) ** 2
        assert np.abs(lhs - 1.0).max() < 1e-9
        assert h.degree == q - 1


def test_complementary_t2_is_twice_x():
    h = complementary_poly(cheb_poly(2))
    c = np.array(h.coeffs)
    assert h.degree == 1
    assert abs(c[0]) < 1e-12
    assert abs(abs(c[1]) - 2.0) < 1e-12


def test_complementary_pade2_identity():
    f = pade(2)
    h = complementary_poly(f)
    xs = np.linspace(-1, 1, 301)
    lhs = np.real(poly_eval(f, xs)) ** 2 + (1 - xs * xs) * np.abs(poly_eval(h, xs)) ** 2
    assert np.abs(lhs - 1.0).max() < 1e-9


def test_complementary_rejects_dipping_polynomial():
    # the degree-3 family member admits no complementary partner
    with pytest.raises((DomainError, NumericError)):
        complementary_poly(pade(1))


def test_find_phases_requires_degree_gap():
    f = cheb_poly(3)
    with pytest.raises(DomainError):
        find_phases_rotation(f, polynomial([0.0, 0.0, 0.0, 1.0]))


def test_phases_json_roundtrip(tmp_path):
    phases = pade_phases(2)
    path = tmp_path / "ph.json"
    save_phases(str(path), "reflection", phases)
    form, back = load_phases(str(path))
    assert form == "reflection"
    assert np.abs(back - phases).max() == 0.0


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_poly_and_phase_files_reject_non_finite(tmp_path, constant):
    poly_path = tmp_path / "p.json"
    poly_path.write_text(f'{{"coeffs": [[0.0, 0.0], [{constant}, 0.0]], "parity": "odd"}}')
    with pytest.raises(InputError, match="non-finite value"):
        load_poly(str(poly_path))
    phase_path = tmp_path / "ph.json"
    phase_path.write_text(f'{{"form": "reflection", "angles": [0.5, {constant}]}}')
    with pytest.raises(InputError, match="non-finite value"):
        load_phases(str(phase_path))


def test_phase_chain_matches_direct_product():
    rng = np.random.default_rng(2)
    phases = rng.uniform(-np.pi, np.pi, 7)
    xs = np.array([-0.8, -0.1, 0.4, 0.95])
    fast = reflection_upper_left(phases, xs)
    slow = np.array([qsp_reflection_eval(phases, float(x))[0, 0] for x in xs])
    assert np.abs(fast - slow).max() < 1e-13


@pytest.mark.parametrize("length", [1, 2, 3, 24, 25, 26, 125, 5 ** 5])
def test_blocked_phase_chain_matches_reflection_product(length):
    # 25 fills whole blocks of isqrt(N) phases; 26, 125 and 5^5 leave tail phases
    rng = np.random.default_rng(length)
    phases = rng.uniform(-np.pi, np.pi, length)
    xs = np.array([-1.0, -0.6, 0.0, 0.3, 1.0])
    fast = phase_chain(phases, xs)
    slow = np.array([qsp_reflection_eval(phases, float(x))[0, 0] for x in xs])
    assert np.abs(fast - slow).max() < 1e-12
