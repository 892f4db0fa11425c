import json
import os
import subprocess
import sys
import warnings
from functools import lru_cache
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rqet
from rqet import (DomainError, InputError, NumericError,
                  canonicalize_angles, flatten_sign_phases,
                  load_poly, pade, pade_phases, poly_eval, qsp,
                  reflection_upper_left, save_phases)
from rqet import _kernels
from rqet._kernels import _block_length, _distinct_rows, _plan
from conftest import (TWO_LEVEL_LENGTHS, chebyshev_reflection_phases, exact_pade_coeffs,
                      tiled_blocks, two_level_tiled)
import pade_table


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
    # the one upper bound, 1 + 1e-12, and its message naming the value
    for x, shown in ((1.5, "1.500000000000"), (np.nan, "nan"), (-1 - 2e-12, "1.000000000002")):
        with pytest.raises(DomainError, match=rf"^signal point magnitude {shown} exceeds 1$"):
            reflection_upper_left(pade_phases(2), [0.5, x])
    assert np.isfinite(reflection_upper_left(pade_phases(2), [-1 - 1e-12, 1 + 1e-12])).all()


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


def pade_in_t(l, xs):
    """p_l(x) = x * sum_k C(2k,k)/4^k t^k by Horner in t = 1 - x^2, with
    its dyadic coefficients exact in double; the monomial form loses up to
    6e-12 to cancellation at l = 20."""
    t = 1.0 - xs * xs
    acc = np.zeros_like(xs)
    for k in range(l, -1, -1):
        acc = acc * t + comb(2 * k, k) / 4.0 ** k
    return xs * acc


@pytest.mark.parametrize("l", list(pade_table.LEVELS))
def test_phase_pipeline_round_trip_even_pade(l):
    phases = pade_phases(l)
    assert len(phases) == 2 * l + 1
    xs = np.linspace(-1, 1, 201)
    f = reflection_upper_left(phases, xs)
    assert np.abs(f - pade_in_t(l, xs)).max() < 5e-15


def test_pade_phases_copy_does_not_touch_cache():
    first = pade_phases(2)
    expected = first.copy()
    first[:] = 0.0
    assert np.array_equal(pade_phases(2), expected)


def test_pade_phases_derived_once(monkeypatch):
    reads = []
    original = qsp.read_json

    def counting(path, what):
        reads.append(what)
        return original(path, what)

    monkeypatch.setattr(qsp, "_PHASE_CACHE", {})
    monkeypatch.setattr(qsp, "read_json", counting)
    first = pade_phases(2)
    second = pade_phases(2)
    assert reads == ["phase table"]
    assert np.array_equal(first, second)


def test_pade_phases_rejects_odd():
    with pytest.raises(DomainError):
        pade_phases(3)


def test_pade_phases_rejects_untabulated():
    for l in (0, 22):
        with pytest.raises(DomainError, match=r"tabulated for even l = 2\.\.20"):
            pade_phases(l)


def test_loading_phases_does_not_import_mpmath():
    src = os.path.dirname(os.path.dirname(rqet.__file__))
    code = "import sys, rqet; rqet.pade_phases(8); assert 'mpmath' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_loading_phases_imports_nothing_more():
    # set-up cost: the load check's chain must not pull in lazily imported
    # numpy modules (np.unique without indices imports numpy.ma, ~15 ms)
    src = os.path.dirname(os.path.dirname(rqet.__file__))
    code = ("import sys, rqet; before = set(sys.modules)\n"
            "for l in range(2, 21, 2): rqet.pade_phases(l)\n"
            "assert set(sys.modules) == before, sorted(set(sys.modules) - before)")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
    # the generator's conversion, rounded, against the rotation-form product
    refl = [float(a) for a in pade_table.rotation_to_reflection([mpmath.mpf(a) for a in rot])]
    xs = np.array([-1.0, -0.9, -0.2, 0.0, 0.33, 0.81, 1.0])
    got = reflection_upper_left(refl, xs)
    assert np.abs(got - direct_product(rot, xs, "rotation")).max() < 1e-12


def test_round_trip_rejects_corrupted_table(monkeypatch, tmp_path):
    with open(qsp._TABLE_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["angles"]["4"][1] += 1e-3
    path = tmp_path / "pade_phases.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(qsp, "_TABLE_PATH", str(path))
    monkeypatch.setattr(qsp, "_PHASE_CACHE", {})
    with pytest.raises(NumericError, match="phase round-trip fails"):
        pade_phases(4)
    assert qsp._PHASE_CACHE == {}


def test_round_trip_reference_is_accurate(monkeypatch):
    # the load check's p_l, by Horner in 1 - x^2, meets every tabulated chain
    # within 3e-15 (measured); the monomial form is 3.8e-14 off at l = 12 and
    # 2.0e-12 at l = 20
    monkeypatch.setattr(qsp, "_IDENTITY_TOL", 1e-14)
    monkeypatch.setattr(qsp, "_PHASE_CACHE", {})
    for l in range(2, 21, 2):
        pade_phases(l)


@lru_cache(maxsize=None)
def generated_table(dps):
    return pade_table.phase_table(dps)


def test_committed_table_matches_generator():
    assert pade_table.TABLE_PATH.read_text(encoding="utf-8") == pade_table.render(generated_table(60))


def test_table_is_stable_in_working_precision():
    assert generated_table(60) == generated_table(80)


@pytest.mark.parametrize("l", list(pade_table.LEVELS))
def test_phases_match_high_precision_reference(l):
    # the 60-digit reference realizes p_l to 1e-40 and its rounding to 2e-15
    # (measured 1.4e-16 at l = 2 up to 1.05e-15 at l = 20, at 9 points in
    # exact arithmetic); pade_phases serves exactly those rounded floats
    with mpmath.workdps(60):
        ref = pade_table.reference_phases(l)
        rounded = np.array([0.0] + [float(a) for a in ref[1:]])
        p = pade_table.to_mp(exact_pade_coeffs(l))
        for x in np.linspace(-1.0, 1.0, 9):
            target = mpmath.polyval(p[::-1], mpmath.mpf(x))
            assert abs(pade_table.mp_reflection_value(ref, x) - target) <= 1e-40
            assert abs(pade_table.mp_reflection_value(rounded, x) - target) <= 2e-15
    assert abs(ref[0]) < 1e-30
    assert np.array_equal(pade_phases(l), rounded)


@pytest.mark.parametrize("l", [2, 4, 6, 8])
def test_pade_complement_identity(l):
    # the generator's h: p_l^2 + (1 - x^2) h h* = 1 to the working precision
    with mpmath.workdps(60):
        f = pade_table.to_mp(exact_pade_coeffs(l))
        h = pade_table.pade_complement(l)
        assert len(h) == 2 * l + 1
        for x in np.linspace(-1.0, 1.0, 31):
            x = mpmath.mpf(x)
            hv = mpmath.polyval(h[::-1], x)
            lhs = mpmath.polyval(f[::-1], x) ** 2 + (1 - x * x) * abs(hv) ** 2
            assert abs(lhs - 1) < 1e-40


def test_pade_complement_rejects_negative_leading_factor(monkeypatch):
    original = pade_table.exact_deflation
    monkeypatch.setattr(pade_table, "exact_deflation", lambda l: [-c for c in original(l)])
    with pytest.raises(AssertionError, match="positive leading factor"):
        pade_table.pade_complement(4)


def test_pade_complement_rejects_real_root(monkeypatch):
    # a real root of q has no conjugate partner to split it with
    original = pade_table.deflated_roots

    def one_pair_made_real(q):
        roots = list(original(q))
        roots[0] = roots[1] = mpmath.mpc(0.5)
        return roots

    monkeypatch.setattr(pade_table, "deflated_roots", one_pair_made_real)
    with pytest.raises(AssertionError, match="real root"):
        pade_table.pade_complement(4)


def test_complementary_rejects_dipping_polynomial():
    # odd family members admit no complementary partner, so no phases
    for l in (1, 3):
        with pytest.raises(DomainError, match="odd family member"):
            pade_phases(l)


def test_phases_json_roundtrip(tmp_path):
    phases = pade_phases(2)
    path = tmp_path / "ph.json"
    save_phases(str(path), phases)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["form"] == "reflection"
    assert np.abs(np.asarray(doc["angles"]) - phases).max() == 0.0
    save_phases(str(path), np.array([0.5, -1.25, np.pi]))
    assert path.read_bytes() == b'{"form": "reflection", "angles": [0.5, -1.25, 3.141592653589793]}\n'


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reflection_upper_left_rejects_non_finite_phases(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(InputError, match="finite"):
            reflection_upper_left([bad, 0.1], [0.3])


@pytest.mark.parametrize("phases, xs", [([[0.1, 0.2]], [0.3]), ([0.1, 0.2], [[0.3, 0.4]]),
                                        (0.1, [0.3])])
def test_reflection_upper_left_rejects_non_1d_input(phases, xs):
    with pytest.raises(InputError, match="1-d"):
        reflection_upper_left(phases, xs)


# (length, kernel block length): random lists, then lists tiled from a few blocks
_CHAIN_CASES = [(n, None) for n in (0, 1, 2, 3, 24, 25, 26, 125, 5 ** 5)] + [
    (5 ** 4, 25), (5 ** 5, 25), (7 ** 3, 7), (3 * 5 ** 3, 15), (997, 31)]


@pytest.mark.parametrize("length, block", _CHAIN_CASES,
                         ids=[f"{n}" if b is None else f"{n}-tiled" for n, b in _CHAIN_CASES])
def test_blocked_phase_chain_matches_reflection_product(length, block):
    # 0 is the empty product; the random lists repeat nothing and run one
    # position at a time; the tiled lists repeat their blocks on the kernel's
    # block boundaries, except 997, a prime, which has none and stays whole
    rng = np.random.default_rng(length)
    if block is None:
        phases = rng.uniform(-np.pi, np.pi, length)
    else:
        assert _block_length(length) == (block if length % block == 0 else length)
        phases = tiled_blocks(rng, length, block)
    xs = np.array([-1.0, -0.6, 0.0, 0.3, 1.0])
    fast = reflection_upper_left(phases, xs)
    assert np.abs(fast - direct_product(phases, xs)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 120), st.integers(0, 2 ** 32 - 1))
def test_phase_chain_on_tiled_blocks(block, kinds, length, seed):
    phases = tiled_blocks(np.random.default_rng(seed), length, block, kinds)
    xs = np.array([-0.9, -0.2, 0.5, 1.0])
    assert np.abs(reflection_upper_left(phases, xs) - direct_product(phases, xs)).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TWO_LEVEL_LENGTHS), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
@example(2401, 5, 3, 0)
def test_phase_chain_on_two_level_tiled_lists(length, subs, kinds, seed):
    phases = two_level_tiled(np.random.default_rng(seed), length, subs, kinds)
    xs = np.array([-0.9, -0.2, 0.5, 1.0])
    assert np.abs(reflection_upper_left(phases, xs) - direct_product(phases, xs)).max() < 1e-12


def test_reflection_chain_at_no_points_walks_nothing(monkeypatch):
    # no points give an empty result at once: the leaf, which would step
    # through all 5^7 positions on empty arrays, is never called
    def refuse(*_):
        raise AssertionError("the chain was walked at no points")

    monkeypatch.setattr(_kernels, "_block_stage", refuse)
    phases = np.random.default_rng(7).uniform(-np.pi, np.pi, 5 ** 7)
    out = reflection_upper_left(phases, np.array([]))
    assert out.shape == (0,) and out.dtype == np.complex128


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


def _distinct_rows_by_scan(blocks, most=np.inf):
    """Reference: each row's uint64 view compared with every distinct row
    found so far, stopping once more than `most` rows are distinct."""
    bits = np.ascontiguousarray(blocks).view(np.uint64)
    first, index = [], []
    for i, row in enumerate(bits):
        j = next((j for j, f in enumerate(first) if np.array_equal(bits[f], row)), len(first))
        if j == len(first):
            if len(first) + 1 > most:
                return None
            first.append(i)
        index.append(j)
    return blocks[first], index


def _assert_same_rows(blocks, most=np.inf):
    got, ref = _distinct_rows(blocks, most), _distinct_rows_by_scan(blocks, most)
    if ref is None:
        assert got is None
        return
    assert got is not None
    assert got[0].dtype == blocks.dtype
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1] == ref[1]


def _old_key_columns(k):
    """Columns an earlier, sampled-key _distinct_rows hashed: rows that differ
    only elsewhere shared its key, so they are the inputs worth planting."""
    return sorted({0, min(1, k - 1), *((k - 1) * i // 5 for i in range(6))})


_NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                         dtype=np.uint64).view(np.float64)


@st.composite
def _planted_rows(draw):
    """Rows tiled from a pool of variants of one random row, each differing
    from it in a single column outside _old_key_columns (when there is one):
    a nextafter neighbour, 0.0 and -0.0, and NaNs with different payloads."""
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    row = rng.uniform(-np.pi, np.pi, k)
    hidden = np.setdiff1d(np.arange(k), _old_key_columns(k))
    col = int(rng.choice(hidden)) if len(hidden) else draw(st.integers(0, k - 1))
    pool = [row]
    for value in (np.nextafter(row[col], np.inf), 0.0, -0.0, *_NAN_PAYLOADS):
        variant = row.copy()
        variant[col] = value
        pool.append(variant)
    pool = np.array(pool)[rng.permutation(len(pool))[: draw(st.integers(1, len(pool)))]]
    n = draw(st.integers(1, 60))
    return pool[rng.integers(len(pool), size=n)]


@settings(max_examples=200, deadline=None)
@given(_planted_rows(), st.one_of(st.just(np.inf), st.integers(0, 8)))
def test_distinct_rows_matches_bytewise_dedup(blocks, most):
    _assert_same_rows(blocks, most)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 80), st.integers(1, 9), st.integers(0, 2 ** 16),
       st.one_of(st.just(np.inf), st.integers(0, 12)))
def test_distinct_rows_matches_bytewise_dedup_on_index_rows(c, n, values, seed, most):
    # the fold dedups int64 rows of table indices
    rows = np.random.default_rng(seed).integers(values, size=(n, c))
    _assert_same_rows(rows, most)
    _assert_same_rows(rows[rows[:, 0].argsort(kind="stable")], most)


def test_distinct_rows_splits_a_group_past_the_first_comparison_step():
    # the 625 x 625 top split of the 5^8 sign list, with last-bit differences
    # planted in late rows, in columns outside _old_key_columns
    blocks = flatten_sign_phases(2, 8).reshape(625, 625).copy()
    hidden = np.setdiff1d(np.arange(625), _old_key_columns(625))
    _assert_same_rows(blocks)
    for row, col in ((600, hidden[-1]), (601, hidden[3]), (624, hidden[-1])):
        blocks[row, col] = np.nextafter(blocks[row, col], np.inf)
    _assert_same_rows(blocks)
    assert len(_distinct_rows(blocks)[0]) == 11
    _assert_same_rows(blocks, 10)
    assert _distinct_rows(blocks, 10) is None


@pytest.mark.parametrize("l, n", [(2, 8), (2, 9), (4, 5), (8, 4), (20, 3)])
def test_plan_is_the_same_under_the_reference_dedup(monkeypatch, l, n):
    flat = flatten_sign_phases(l, n)
    got = _plan(flat)
    monkeypatch.setattr(_kernels, "_distinct_rows", _distinct_rows_by_scan)
    ref = _plan(flat)
    assert got.rows.dtype == ref.rows.dtype and got.rows.shape == ref.rows.shape
    assert got.rows.tobytes() == ref.rows.tobytes()
    assert len(got.folds) == len(ref.folds)
    for a, b in zip(got.folds, ref.folds):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
