import json
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqet import (DomainError, InputError, NumericError,
                  canonicalize_angles, chebyshev_reflection_phases, deflate_pade_square,
                  find_phases_rotation, load_poly, pade, pade_complement, pade_phases, poly_eval, polynomial, qsp,
                  reflection_upper_left, rotation_to_reflection, save_phases)
from rqet._kernels import _block_length, _distinct_rows, phase_chain
from conftest import exact_pade_coeffs


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
    for x in (1.5, np.nan):
        with pytest.raises(DomainError):
            reflection_upper_left(pade_phases(2), [x])


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


def test_closed_form_route_only_for_l2(monkeypatch):
    # the deflated remainder has degree l: only l = 2 takes the quadratic
    # formula, and every larger l reaches the iterative root finder
    expected = pade_phases(2)

    def refuse(*_):
        raise NumericError("iterative root finder called")

    monkeypatch.setattr("rqet.poly._durand_kerner", refuse)
    monkeypatch.setattr(qsp, "_PHASE_CACHE", {})
    assert np.array_equal(pade_phases(2), expected)
    for l in (4, 6):
        with pytest.raises(NumericError, match="iterative root finder called"):
            pade_phases(l)


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


def reference_phases(l):
    """Reflection phases of p_l from the exact q, mpmath roots and a 60-digit peel.

    Same conventions as the float path: h takes the upper root of each
    conjugate pair and the positive square root of q's leading coefficient.
    """
    q = to_mp(exact_deflation(l))
    roots = mpmath.polyroots(q[::-1], maxsteps=200, extraprec=200)
    h = [mpmath.sqrt(q[-1])]
    for factor in [[-1, 0, 1]] * (l // 2) + [[-r, 0, 1] for r in roots if r.imag > 0]:
        h = poly_mul(h, factor)
    f = to_mp(exact_pade_coeffs(l))
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
    refl = [rot[0] + rot[deg] + (deg - 1) * mpmath.pi / 2] + [a - mpmath.pi / 2 for a in rot[1:deg]]
    return [a - 2 * mpmath.pi * mpmath.ceil((a - mpmath.pi) / (2 * mpmath.pi)) for a in refl]


_REFERENCE_BOUNDS = {2: 2e-15, 4: 1e-14, 6: 5e-13, 8: 5e-12}


@pytest.mark.parametrize("l", [2, 4, 6, 8])
def test_phases_match_high_precision_reference(l):
    # the float deflation is exact: p_l's coefficients are dyadic rationals
    exact = exact_deflation(l)
    assert [Fraction(v.real) for v in deflate_pade_square(l).coeffs] == exact
    with mpmath.workdps(60):
        ref = np.array([float(a) for a in reference_phases(l)])
        p = to_mp(exact_pade_coeffs(l))
        for x in np.linspace(-1.0, 1.0, 9):
            target = mpmath.polyval(p[::-1], mpmath.mpf(x))
            assert abs(mp_reflection_value(ref, x) - target) <= 1e-15
    got = pade_phases(l)
    worst = np.abs(np.mod(got - ref + np.pi, 2.0 * np.pi) - np.pi).max()
    assert worst <= _REFERENCE_BOUNDS[l]


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
    save_phases(str(path), phases)
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


def tiled_blocks(rng, length, block, kinds=3):
    """`length` phases made of `kinds` random blocks of `block` phases, tiled
    in random order and cut to length."""
    pool = rng.uniform(-np.pi, np.pi, (kinds, block))
    return pool[rng.integers(kinds, size=-(-length // block))].reshape(-1)[:length]


# (length, kernel block length): random lists, then lists tiled from a few blocks
_CHAIN_CASES = [(n, None) for n in (1, 2, 3, 24, 25, 26, 125, 5 ** 5)] + [
    (5 ** 4, 25), (5 ** 5, 25), (7 ** 3, 7), (3 * 5 ** 3, 15), (997, 31)]


@pytest.mark.parametrize("length, block", _CHAIN_CASES,
                         ids=[f"{n}" if b is None else f"{n}-tiled" for n, b in _CHAIN_CASES])
def test_blocked_phase_chain_matches_reflection_product(length, block):
    # 24, 25, 26, 125 and 5^5 split into divisor-length blocks; 997 (prime) keeps
    # isqrt(N) and leaves tail phases; the tiled lists repeat their blocks on the
    # kernel's block boundaries
    rng = np.random.default_rng(length)
    if block is None:
        phases = rng.uniform(-np.pi, np.pi, length)
    else:
        assert _block_length(length) == block
        phases = tiled_blocks(rng, length, block)
    xs = np.array([-1.0, -0.6, 0.0, 0.3, 1.0])
    fast = phase_chain(phases, xs)
    assert np.abs(fast - direct_product(phases, xs)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 120), st.integers(0, 2 ** 32 - 1))
def test_phase_chain_on_tiled_blocks(block, kinds, length, seed):
    phases = tiled_blocks(np.random.default_rng(seed), length, block, kinds)
    xs = np.array([-0.9, -0.2, 0.5, 1.0])
    assert np.abs(phase_chain(phases, xs) - direct_product(phases, xs)).max() < 1e-12


def test_phase_chain_blocks_merge_only_when_bitwise_equal():
    rng = np.random.default_rng(5)
    a = rng.uniform(-np.pi, np.pi, 25)
    last_bit = a.copy()
    last_bit[17] = np.nextafter(last_bit[17], np.inf)
    zero, negzero = np.zeros(25), np.zeros(25)
    negzero[3] = -0.0
    blocks = np.stack([a, last_bit, a, zero, negzero, last_bit, zero])
    distinct, index = _distinct_rows(blocks)
    assert index == [0, 1, 0, 2, 3, 1, 2]
    assert np.array_equal(distinct[index].view(np.uint64), blocks.view(np.uint64))
