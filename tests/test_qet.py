import dataclasses
import math
import os
import tracemalloc
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rqet import (BlockEncoding, DomainError, InputError, NumericError, ScalarSignTable,
                  canonicalize_angles, coherent_perturb, compose_phases, dilate_general,
                  dilate_hermitian, distinct_angles, distinct_nonzero_angles, error_bound,
                  extract, flatten_sign_phases, hermitian_eig, operator_norm, pade,
                  pade_phases, poly_eval, qet_assemble, qet_recursive_step,
                  query_count, reflection_upper_left, run_polar, run_sign, sign_iterations)
import rqet.cli
import rqet.qet
from rqet import _kernels
from rqet._kernels import _block_length, _distinct_rows, _plan
from rqet.blockenc import _encoding
from rqet.qet import (MAX_PHASES, _check_dense_cost, _check_phase_count, _phased_product,
                      scalar_grid)
from conftest import (TWO_LEVEL_LENGTHS, check_flattened_structure, chebyshev_reflection_phases,
                      hermitian_with_spectrum, recovery_cost, scalar_sign_iterate,
                      tiled_blocks, two_level_tiled)


@pytest.fixture
def gapped8():
    vals = [0.52, -0.61, 0.7, -0.8, 0.88, -0.95, 0.99, -0.55]
    return hermitian_with_spectrum(42, vals)


def template_daggers(q: int) -> np.ndarray:
    """Dagger pattern of the length-q product: slot j holds the plain
    oracle when j and q share parity, the adjoint otherwise (1-based)."""
    j = np.arange(1, q + 1)
    return (j % 2) != (q % 2)


def test_template_daggers_pattern():
    assert list(template_daggers(5)) == [False, True, False, True, False]
    assert list(template_daggers(4)) == [True, False, True, False]


def test_plan_rejects_empty():
    be = dilate_hermitian(np.diag([0.5, -0.5]).astype(complex))
    with pytest.raises(InputError):
        qet_assemble(be, np.array([]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
def test_chebyshev_operator_oracle(q):
    # trivial phase lists must reproduce Chebyshev matrix polynomials,
    # pinning the product-order and dagger conventions
    A, Q = hermitian_with_spectrum(q, [0.9, -0.3, 0.45, -0.7])
    be = dilate_hermitian(A)
    U = qet_assemble(be, chebyshev_reflection_phases(q))
    X = U[:4, :4]
    w = np.array([0.9, -0.3, 0.45, -0.7])
    ref = (Q * np.cos(q * np.arccos(w))[None, :]) @ Q.conj().T
    assert operator_norm(X - ref) < 1e-10


def test_single_level_matches_polynomial(gapped8):
    A, Q = gapped8
    be = dilate_hermitian(A)
    X = extract(qet_recursive_step(be, pade_phases(2)))
    w, V = np.linalg.eigh(A)
    ref = (V * np.real(poly_eval(pade(2), w))[None, :]) @ V.conj().T
    assert operator_norm(X - ref) < 1e-11


def test_compose_associative_and_faithful():
    base = pade_phases(2)
    c2 = compose_phases(base, base)
    c3a = compose_phases(c2, base)
    c3b = compose_phases(base, c2)
    A, _ = hermitian_with_spectrum(11, [0.6, -0.75])
    be = dilate_hermitian(A)
    Ua = qet_assemble(be, c3a)
    Ub = qet_assemble(be, c3b)
    nested = qet_recursive_step(qet_recursive_step(qet_recursive_step(be, base), base), base)
    assert operator_norm(Ua - nested.unitary) < 1e-12
    assert operator_norm(Ub - nested.unitary) < 1e-12


def _compose_slot_loop(outer, inner):
    """Reference: substitute the inner list slot by slot, carrying the
    adjoint's flipped leading rotation into the next junction."""
    segments, carry = [], 0.0
    for a, dag in zip(outer, template_daggers(len(outer))):
        if dag:
            segments.append(np.concatenate(([a + carry], -inner[:0:-1])))
            carry = -inner[0]
        else:
            segments.append(np.concatenate(([a + carry + inner[0]], inner[1:])))
            carry = 0.0
    return canonicalize_angles(np.concatenate(segments))


# values at and just inside the edges of (-pi, pi], and multiples of pi
_EDGE_ANGLES = [-0.0, np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0),
                1e-300, -1e-300, 3 * np.pi, -3 * np.pi, 5 * np.pi, -7 * np.pi]
_phase_list = st.lists(st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_EDGE_ANGLES)),
                       min_size=1, max_size=9).map(np.array)


def _in_range(a):
    return bool(((a > -np.pi) & (a <= np.pi)).all())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(_EDGE_ANGLES)), min_size=1, max_size=12).map(np.array))
def test_canonicalize_is_idempotent(angles):
    once = canonicalize_angles(angles)
    assert _in_range(once)
    assert canonicalize_angles(once).tobytes() == once.tobytes()


def test_canonicalize_keeps_in_range_angles():
    rng = np.random.default_rng(8)
    inside = np.concatenate((rng.uniform(-np.pi, np.pi, 200), [-0.0, 0.0, np.pi, 1e-300, -1e-300,
                             np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0)]))
    out = canonicalize_angles(inside)
    assert out.tobytes() == inside.tobytes()
    assert out is not inside
    edges = np.array([-np.pi, 3 * np.pi, -3 * np.pi, 5 * np.pi, -5 * np.pi, -7 * np.pi])
    assert canonicalize_angles(edges).tobytes() == np.full(6, np.pi).tobytes()


def test_tabulated_bases_are_canonical():
    for l in range(2, 21, 2):
        base = pade_phases(l)
        assert base[:1].tobytes() == np.zeros(1).tobytes(), l  # +0.0, not -0.0
        assert _in_range(base), l
        assert canonicalize_angles(base).tobytes() == base.tobytes(), l


@pytest.mark.parametrize("l, levels", [(2, 6), (8, 3), (20, 2)])
def test_flattened_lists_hold_only_the_bits_of_the_base(l, levels):
    # canonicalization leaves in-range angles alone, so the adjoint pattern is
    # the exact negation of the plain one and no angle is rounded
    base = pade_phases(l)
    allowed = set(np.concatenate((base, -base)).view(np.uint64).tolist())
    assert set(flatten_sign_phases(l, levels).view(np.uint64).tolist()) <= allowed


def test_angle_counts_and_structure_see_through_the_pi_seam():
    # -pi, pi and the odd multiples of pi are one angle, pi
    assert distinct_nonzero_angles([np.pi, -np.pi, 3 * np.pi, -7 * np.pi]) == 1
    assert distinct_nonzero_angles([np.pi, np.nextafter(-np.pi, 0.0)]) == 1
    base = pade_phases(2)
    flat = flatten_sign_phases(2, 3)
    shifted = flat.copy()
    shifted[5::7] += 2.0 * np.pi  # heads and body angles alike, now out of range
    assert check_flattened_structure(shifted, base)
    assert check_flattened_structure(flat, base + 2.0 * np.pi)
    assert distinct_nonzero_angles(shifted) == distinct_nonzero_angles(flat) == 8


@pytest.mark.parametrize("q", range(1, 13))
def test_chebyshev_phases_are_canonical(q):
    phases = chebyshev_reflection_phases(q)
    assert _in_range(phases)
    # -pi/2 is in range and stays as it is; (q - 1) pi/2 is reduced once,
    # exactly when it is in range or an odd multiple of pi
    assert phases[1:].tobytes() == np.full(q - 1, -np.pi / 2.0).tobytes()
    want = {0: 0.0, 1: np.pi / 2.0, 2: np.pi, 3: -np.pi / 2.0}[(q - 1) % 4]
    if q <= 3 or (q - 1) % 4 == 2:
        assert phases[0] == want
    assert abs(phases[0] - want) < 1e-14


@settings(max_examples=300, deadline=None)
@given(_phase_list, _phase_list)
@example(np.array([-0.0, np.pi]), np.array([np.pi, -0.0, 3 * np.pi]))  # even: slot 0 adjoint
@example(np.array([np.nextafter(-np.pi, 0.0)] * 4), np.array([1e-300, -np.pi]))
def test_compose_matches_slot_loop(outer, inner):
    assert compose_phases(outer, inner).tobytes() == _compose_slot_loop(outer, inner).tobytes()


@pytest.mark.parametrize("l,levels", [(2, 6), (4, 4), (6, 3), (8, 3), (20, 2)])
def test_flatten_matches_slot_loop(l, levels):
    base = pade_phases(l)
    flat = base
    for _ in range(levels - 1):
        flat = _compose_slot_loop(flat, base)
    assert flatten_sign_phases(l, levels).tobytes() == flat.tobytes()


def test_compose_rejects_non_finite_angles():
    with pytest.raises(InputError, match="finite"):
        compose_phases([np.nan, 1.0, 2.0], [0.0, np.inf])
    with pytest.raises(InputError, match="finite"):
        compose_phases([1.0], [0.0, -np.inf])


def test_assemble_rejects_non_finite_angles():
    be = dilate_hermitian(np.diag([0.5, -0.5]))
    with pytest.raises(InputError, match="finite"):
        qet_assemble(be, [0.1, np.nan, 0.2])


_short_list = st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=6).map(np.array)


@settings(max_examples=200, deadline=None)
@given(_short_list, _short_list, _short_list)
def test_compose_is_associative_as_an_operator(a, b, c):
    A, _ = hermitian_with_spectrum(4, [0.8, -0.35])
    be = dilate_hermitian(A)
    left = qet_assemble(be, compose_phases(compose_phases(a, b), c))
    right = qet_assemble(be, compose_phases(a, compose_phases(b, c)))
    nested = qet_assemble(qet_recursive_step(qet_recursive_step(be, c), b), a)
    assert operator_norm(left - right) < 1e-12
    assert operator_norm(left - nested) < 1e-12


def test_compose_parities_close_for_all_lengths():
    # any outer/inner lengths compose, and the flat product is the nested one
    rng = np.random.default_rng(3)
    A, _ = hermitian_with_spectrum(5, [0.7, -0.4])
    be = dilate_hermitian(A)
    for q_out in range(1, 8):
        for q_in in range(1, 8):
            outer = rng.uniform(-np.pi, np.pi, q_out)
            inner = rng.uniform(-np.pi, np.pi, q_in)
            flat = qet_assemble(be, compose_phases(outer, inner))
            nested = qet_assemble(qet_recursive_step(be, inner), outer)
            assert operator_norm(flat - nested) < 1e-12, (q_out, q_in)


def test_phase_cap_admits_five_to_the_tenth():
    assert query_count(10, 2) == MAX_PHASES
    _check_phase_count(10, 2)
    with pytest.raises(DomainError, match="48828125 phases"):
        _check_phase_count(11, 2)


def test_compose_scalar_against_iterate():
    base = pade_phases(2)
    flat = compose_phases(base, base)
    xs = np.linspace(-1, 1, 41)
    f = reflection_upper_left(flat, xs)
    ref = np.array([scalar_sign_iterate(float(x), 2, 2) for x in xs])
    assert np.abs(f - ref).max() < 1e-12


def test_flattened_length_and_query_count():
    for n in (1, 2, 3, 4):
        flat = flatten_sign_phases(2, n)
        assert len(flat) == 5 ** n
        assert query_count(n, 2) == 5 ** n
    assert query_count(0, 2) == 1
    assert query_count(3, 4) == 9 ** 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eight_angle_structure(n):
    base = pade_phases(2)
    flat = flatten_sign_phases(2, n)
    assert distinct_nonzero_angles(flat) <= 8
    # every nonzero angle comes from the base list up to sign
    allowed = canonicalize_angles(np.concatenate((base, -base)))
    allowed = np.concatenate((allowed, [0.0]))
    vals = canonicalize_angles(flat)
    for v in vals:
        assert np.abs(allowed - v).min() < 1e-9
    assert check_flattened_structure(flat, base)


@pytest.mark.parametrize("l, n", [(2, 6), (4, 4), (6, 3), (8, 3)])
def test_flattened_blocks_repeat(l, n):
    # the chain kernel multiplies out each distinct block once; on a nested list every
    # aligned block of (2l+1)^j phases is one of at most 4l + 1 bit patterns
    flat = flatten_sign_phases(l, n)
    for j in range(1, n):
        blocks = flat.reshape(-1, (2 * l + 1) ** j)
        assert len({row.tobytes() for row in blocks}) <= 4 * l + 1


def test_structure_rejects_shuffled_list():
    base = pade_phases(2)
    flat = flatten_sign_phases(2, 2).copy()
    assert check_flattened_structure(flat, base)
    shuffled = flat.copy()
    shuffled[3], shuffled[4] = shuffled[4], shuffled[3]
    assert not check_flattened_structure(shuffled, base)
    # block 2's junction is neither zero nor a base angle up to sign; its tail is intact
    junction = flat.copy()
    junction[len(base)] = 0.123
    assert not check_flattened_structure(junction, base)
    assert not check_flattened_structure(flat[:-1], base)


def test_sign_iterations_reference_values():
    assert sign_iterations(0.1, 1e-10, 2) == 8
    assert sign_iterations(0.5, 1e-8, 2) == 4
    assert sign_iterations(0.5, 0.99, 2) == 0
    assert sign_iterations(0.9, 2.0, 2) == 0


def test_sign_iterations_guards():
    with pytest.raises(DomainError):
        sign_iterations(0.0, 1e-8)
    with pytest.raises(DomainError):
        sign_iterations(1.5, 1e-8)
    with pytest.raises(DomainError):
        sign_iterations(0.5, 0.0)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="finite"):
            sign_iterations(0.5, eps)


def _sign_iterations_directly(delta, eps, l):
    """The level count as first written: delta^-2 ln(1/eps) formed outright."""
    target = math.log(1.0 / eps) / (delta * delta)
    return 0 if target <= 1.0 else max(0, math.ceil(math.log(target, l + 1)))


def test_sign_iterations_in_logarithms_match_the_direct_formula():
    # 800,000 grid points, where delta^2 and 1/eps are both representable
    grid = [(d, e) for d in np.geomspace(1e-3, 0.999, 400).tolist()
            for e in np.geomspace(1e-15, 0.9, 200).tolist()]
    for l in range(2, 21, 2):
        assert [sign_iterations(d, e, l) for d, e in grid] == \
               [_sign_iterations_directly(d, e, l) for d, e in grid], l


def test_sign_iterations_survive_extreme_gaps_and_tolerances():
    # delta^2 underflows to 0 and 1/eps overflows: both once ended in a traceback
    assert sign_iterations(1e-200, 1e-8) == 842
    assert sign_iterations(0.5, 1e-320) == 8
    assert sign_iterations(0.5, 5e-324) == 8
    assert sign_iterations(0.5, 1.0) == sign_iterations(0.5, 3.0) == 0


@pytest.mark.parametrize("levels", [10 ** 8, 10 ** 12])
def test_huge_level_counts_are_refused_without_forming_the_count(levels):
    with pytest.raises(DomainError, match=rf"^{levels} levels need 5\^{levels} phases \(~2\^"):
        _check_phase_count(levels, 2)
    with pytest.raises(InputError, match="levels must be nonnegative"):
        _check_phase_count(-levels, 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: run_sign(np.diag([0.5, -0.5]), 0.5, 1e-8, mode="bogus"), InputError,
     "unknown mode 'bogus'"),
    (lambda: chebyshev_reflection_phases(0), DomainError, "degree must be at least 1"),
    (lambda: compose_phases([], pade_phases(2)), InputError,
     "phase lists must be nonempty 1-d arrays"),
    (lambda: flatten_sign_phases(2, 0), InputError, "levels must be at least 1"),
])
def test_degenerate_requests_are_refused(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_error_bound_monotone():
    b = [error_bound(0.5, n) for n in range(5)]
    assert all(x > y for x, y in zip(b, b[1:]))
    assert b[0] == 0.75


def test_error_bound_is_the_direct_power_and_never_overflows():
    for l in (1, 2, 3, 4, 8, 20):
        for delta in (1e-200, 1e-8, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0):
            for levels in range(1100):  # the direct power overflows from (l+1)^levels > 2^1024
                try:
                    want = (1.0 - delta * delta) ** ((l + 1) ** levels)
                except OverflowError:  # any power over 2^1000 of a base in [0, 1) is 0.0
                    want = 0.0 if delta * delta > 0.0 else 1.0
                assert error_bound(delta, levels, l).hex() == want.hex(), (l, delta, levels)
    assert error_bound(0.5, 1000) == 0.0 and error_bound(1e-200, 10 ** 12) == 1.0


def test_recovery_cost_exact_integers():
    assert recovery_cost(2, 8, 1) == 16384
    assert recovery_cost(0, 8, 1) == 1
    assert recovery_cost(3, 8, 2) == 2 ** 3 * 8 ** 9 * 2
    with pytest.raises(InputError):
        recovery_cost(-1)


def test_scalar_grid_contents():
    g = scalar_grid(0.1)
    assert len(g) == 21
    assert g.min() == -1.0 and g.max() == 1.0
    assert np.abs(g).min() >= 0.1 - 1e-15


def test_run_sign_modes_agree(gapped8):
    A, _ = gapped8
    be_r, rep_r = run_sign(A, 0.5, 1e-8, mode="recursive")
    be_f, rep_f = run_sign(A, 0.5, 1e-8, mode="flattened")
    tab, rep_s = run_sign(A, 0.5, 1e-8, mode="scalar")
    assert operator_norm(be_r.unitary - be_f.unitary) < 1e-9
    assert rep_r.rows[-1].n == rep_f.rows[-1].n == rep_s.rows[-1].n == 4
    assert rep_r.converged and rep_f.converged and rep_s.converged
    assert isinstance(tab, ScalarSignTable)
    for rr, rf in zip(rep_r.rows, rep_f.rows):
        assert abs(rr.error - rf.error) < 1e-9
        assert rr.queries == rf.queries


def test_run_sign_errors_below_bounds(gapped8):
    A, _ = gapped8
    _, rep = run_sign(A, 0.5, 1e-8, mode="recursive")
    for row in rep.rows:
        assert row.error <= row.bound


def test_run_sign_rejects_bad_gap(gapped8):
    A, _ = gapped8
    with pytest.raises(DomainError):
        run_sign(A, 0.75, 1e-8)


def test_run_sign_depth_cap(gapped8, monkeypatch):
    A, _ = gapped8
    # no depth cap: recursive n = 5 runs and converges
    _, rep = run_sign(A, 0.5, 1e-11, mode="recursive")
    assert rep.rows[-1].n == 5 and rep.converged
    _, rep = run_sign(A, 0.5, 1e-14, mode="scalar")
    assert rep.rows[-1].n == 5

    # flattened n = 5 at d = 64 (3,905 slots) is charged its plans' 345
    # products, within the dense budget, and runs
    vals = np.linspace(0.5, 1.0, 64) * np.resize([1.0, -1.0], 64)
    A64, _ = hermitian_with_spectrum(7, vals)
    _, rep = run_sign(A64, 0.5, 1e-14, mode="flattened")
    assert rep.rows[-1].n == 5 and rep.rows[-1].error < 1e-10

    # at l = 8, n = 4 the plans hold 17 + 289 + 849 + 1377 = 2532 products,
    # over the budget; the lists may be composed and planned, which the phase
    # cap bounds, but no product may be formed
    def refuse(*_):
        raise AssertionError("dense work started over the budget")

    monkeypatch.setattr("rqet.qet._phased_product", refuse)
    with pytest.raises(DomainError, match="2532 dense products"):
        run_sign(A64, 0.5, 1e-14, l=8, mode="flattened", levels=4)


def test_dense_budget_boundary():
    # max(2d, 32)^3 is 2^21 at d = 64 and 2^15 for every d <= 16
    _check_dense_cost(2048, 64)
    with pytest.raises(DomainError, match="2049 dense products"):
        _check_dense_cost(2049, 64)
    _check_dense_cost(131_072, 8)
    with pytest.raises(DomainError, match="131073 dense products"):
        _check_dense_cost(131_073, 8)


def test_run_sign_zero_levels(gapped8):
    A, _ = gapped8
    be, rep = run_sign(A, 0.5, 0.999, mode="recursive")
    assert rep.rows[-1].n == 0
    assert rep.rows[-1].queries == 1
    assert operator_norm(extract(be) - A) < 1e-12


@pytest.mark.parametrize("delta", [0.3, 0.5])
def test_zero_level_scalar_run_measures_the_grid(delta):
    # eigenvalues 0.9 and -0.8 sit closer to +-1 than the grid's +-delta, so
    # row 0 must be the grid's 1 - delta, like every later row's maximum
    table, rep = run_sign(np.diag([0.9, -0.8]).astype(complex), delta, 0.49, mode="scalar",
                          levels=0)
    assert [(r.n, r.error) for r in rep.rows] == [(0, 1 - delta)]
    assert not rep.converged
    assert np.array_equal(table.values, table.points) and table.flattened_distance is None
    assert not np.shares_memory(table.values, table.points)


def test_report_csv_format(gapped8):
    A, _ = gapped8
    _, rep = run_sign(A, 0.5, 1e-4, mode="recursive")
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "n,error,bound,queries,distinct_angles,wall_time_ms"
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "5"
    float(first[1]); float(first[2]); float(first[5])


def test_scalar_headline_regime():
    # the small-gap regime runs only in scalar mode: 5^8 phases
    _, rep = run_sign(np.diag([0.5, -0.5]).astype(complex), 0.1, 1e-10, mode="scalar")
    assert rep.rows[-1].n == 8
    assert rep.rows[-1].queries == 390625
    assert rep.final_error <= 1e-10


def _mp_iterates(l, levels, x):
    """p_l applied 1..levels times to x at 50 digits, by Horner in 1 - y^2."""
    with mpmath.workdps(50):
        y, out = mpmath.mpf(float(x)), []
        for _ in range(levels):
            acc, u = mpmath.mpf(0), 1 - y * y
            for k in range(l, -1, -1):
                acc = acc * u + mpmath.mpf(comb(2 * k, k)) / 4 ** k
            y = y * acc
            out.append(y)
        return out


@pytest.mark.parametrize("l, gap, eps, levels, n", [
    (2, 0.1, 1e-10, None, 8), (2, 0.5, 1e-8, None, 4), (8, 0.05, 1e-10, None, 5),
    (20, 0.5, 1e-8, 4, 4), (2, 0.1, 1e-10, 10, 10)])
def test_scalar_rows_match_high_precision_iteration(l, gap, eps, levels, n):
    # each level is one reflection chain, rounded once, so no rounding
    # compounds: measured worst 2.2e-16 over these cases, final values exact
    table, rep = run_sign(np.diag([0.5, -0.5]).astype(complex), gap, eps, l, mode="scalar",
                          levels=levels)
    assert rep.rows[-1].n == n
    ref = [_mp_iterates(l, n, x) for x in table.points]
    final = np.array([float(r[-1]) for r in ref])
    assert np.abs(table.values - final).max() <= 1e-15
    for row in rep.rows:
        exact = max(float(abs(r[row.n - 1] - np.sign(x))) for x, r in zip(table.points, ref))
        assert abs(row.error - exact) <= 1e-15, row.n


# measured: 4.6e-12, 7.1e-13, 2.4e-13 and 1.1e-13, with the chain's top row
# renormalized; the rounding still grows about 5x per level, so the bound
# guards the grouping of the product and the exactness of the list
_CHAIN_BOUNDS = {(2, 8): 1e-11, (4, 5): 2e-12, (8, 4): 1e-12, (20, 3): 5e-13}


@pytest.mark.parametrize("l, n", list(_CHAIN_BOUNDS))
def test_flattened_chain_matches_high_precision_iteration(monkeypatch, l, n):
    stage, block_stage = [], _kernels._block_stage

    def recording(blocks, x, w):
        stage.append(blocks.shape[1])
        return block_stage(blocks, x, w)

    monkeypatch.setattr(_kernels, "_block_stage", recording)
    xs = scalar_grid(0.1)
    ref = np.array([float(_mp_iterates(l, n, x)[-1]) for x in xs])
    assert np.abs(reflection_upper_left(flatten_sign_phases(l, n), xs) - ref).max() <= _CHAIN_BOUNDS[l, n]
    # a nested list repeats its blocks at every scale, down to blocks of 2l + 1
    assert max(stage) <= 2 * l + 1


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _full_stage(blocks, x, w):
    """Each block's product as whole 2x2 matrices: every row times the factor
    [[e x, e w], [e* w, -e* x]] in the leaf's order of operations."""
    ones, zeros = np.ones((len(blocks), len(x)), complex), np.zeros((len(blocks), len(x)), complex)
    M = [[ones, zeros], [zeros, ones]]
    for phi in blocks.T:
        e = np.exp(1j * phi)[:, None]
        M = [[(r0 * e) * x + (r1 * e.conj()) * w, (r0 * e) * w - (r1 * e.conj()) * x]
             for r0, r1 in M]
    return np.array(M).transpose(2, 0, 1, 3)


@pytest.mark.parametrize("k, points", [(0, 3), (1, 5), (2, 5), (5, 21), (8, 3), (13, 4)])
def test_block_stage_is_the_full_2x2_product_bit_for_bit(k, points):
    # the leaf multiplies out the top row, and _complete writes the bottom
    # one from the parity of k; rows longer than the points take several exp
    # chunks.  The leaf's [w, -x] row and the parity's conjugates set the
    # sign of an exact zero (w = 0 at x = +-1) differently from the full
    # multiply, so zeros are compared after + 0.0 makes them all +0.0
    rng = np.random.default_rng(k)
    blocks = rng.uniform(-np.pi, np.pi, (3, k))
    x = np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, points - 2)))
    w = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    top, ref = _kernels._block_stage(blocks, x, w), _full_stage(blocks, x, w)
    assert np.array_equal(_bits(top + 0.0), _bits(ref[:, 0] + 0.0))
    assert np.array_equal(_bits(_kernels._complete(top, k) + 0.0), _bits(ref + 0.0))


def _reference_chain(plan, xs):
    """plan_chain on whole 2x2 products throughout: the leaf is _full_stage,
    and every step of a fold multiplies both rows of its running products."""
    x = np.asarray(xs, dtype=np.float64)
    table = _full_stage(plan.rows, x, np.sqrt(np.maximum(0.0, 1.0 - x * x)))
    for index in plan.folds:
        out = table[index[:, 0]]
        for g in index.T[1:]:
            out = out[:, :, :1] * table[g][:, None, 0] + out[:, :, 1:] * table[g][:, None, 1]
        table = out
    r0, r1 = table[0, 0]
    return r0 / np.sqrt(np.abs(r0) ** 2 + np.abs(r1) ** 2)


_SIGN_DEPTHS = {2: 8, 4: 5, 8: 4, 20: 3}  # deepest plan drawn per l: at most 5^8 phases


@st.composite
def _chain_plans(draw):
    """A sign list's plan, or the plan of a tiled_blocks or two_level_tiled list."""
    kind = draw(st.sampled_from(["sign", "tiled", "two-level"]))
    if kind == "sign":
        l = draw(st.sampled_from(list(_SIGN_DEPTHS)))
        return rqet.qet._sign_plan(l, draw(st.integers(1, _SIGN_DEPTHS[l])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "tiled":
        return _plan(tiled_blocks(rng, draw(st.integers(1, 700)), draw(st.integers(1, 30)),
                                  draw(st.integers(1, 3))))
    return _plan(two_level_tiled(rng, draw(st.sampled_from(TWO_LEVEL_LENGTHS)),
                                 draw(st.integers(1, 5)), draw(st.integers(1, 3))))


@settings(deadline=None)  # example count from the profile: CI runs ci-deep's 500
@given(_chain_plans(), st.integers(0, 30), st.integers(0, 2 ** 32 - 1))
def test_plan_chain_is_the_whole_2x2_reference_bit_for_bit(plan, points, seed):
    # top rows through the fold, bottom rows written from parity, give the
    # reference's bits up to the sign of an exact zero
    xs = np.concatenate(([-1.0, 0.0, 1.0], np.random.default_rng(seed).uniform(-1, 1, points)))
    got, ref = _kernels.plan_chain(plan, xs), _reference_chain(plan, xs)
    assert np.array_equal(_bits(got + 0.0), _bits(ref + 0.0))


def test_phased_product_on_a_stack_of_points():
    xs = np.linspace(-1.0, 1.0, 9)
    w = np.sqrt(1.0 - xs * xs)
    U = np.empty((len(xs), 2, 2), dtype=np.complex128)
    U[:, 0, 0], U[:, 1, 1], U[:, 0, 1], U[:, 1, 0] = xs, -xs, w, w
    base = pade_phases(2)
    stacked = _phased_product(U, _plan(base))
    for x, P in zip(xs, stacked):
        per_point = qet_assemble(dilate_hermitian(np.array([[x]], dtype=complex)), base)
        assert np.abs(P - per_point).max() < 1e-15
    assert np.abs(stacked[:, 0, 0] - reflection_upper_left(base, xs)).max() < 1e-15


def slot_loop(U, phases):
    """The phased product one slot at a time: exp(i phi (2P - I)), then the
    oracle or its adjoint as the dagger template says.  The first slot is
    diag(g) times the oracle, taken as the oracle's rows scaled by g."""
    Ud = np.swapaxes(U.conj(), -1, -2)
    out = None
    for phi, dag in zip(phases, template_daggers(len(phases))):
        diag = np.repeat(np.exp([1j * phi, -1j * phi]), U.shape[-1] // 2)
        oracle = Ud if dag else U
        out = diag[:, None] * oracle if out is None else (out * diag) @ oracle
    return out


def dense_slot_product(U, phases):
    """The phased product of 2-d oracle U from dense factors: the rotation
    diag(e^{i phi} I, e^{-i phi} I) and U or U^dag for each slot, multiplied
    by np.linalg.multi_dot in groups of at most 25, which keeps its search
    for a multiplication order cheap."""
    d = U.shape[0] // 2
    factors = []
    for phi, dag in zip(phases, template_daggers(len(phases))):
        factors.append(np.diag(np.repeat(np.exp([1j * phi, -1j * phi]), d)))
        factors.append(U.conj().T if dag else U)
    while len(factors) > 1:
        factors = [np.linalg.multi_dot(g) if len(g) > 1 else g[0]
                   for g in (factors[i : i + 25] for i in range(0, len(factors), 25))]
    return factors[0]


@pytest.mark.parametrize("n", [0, 1, 2, 4])  # q = 5^n = 1, 5, 25 and 625 slots
@pytest.mark.parametrize("kind", ["sign", "random"])
@pytest.mark.parametrize("stack", [0, 3])
def test_phased_product_matches_dense_factors(n, kind, stack):
    q = 5 ** n
    if kind == "sign":  # a flattened sign list; at q = 625 it is multiplied by blocks
        phases = flatten_sign_phases(2, n) if n else pade_phases(2)[:1]
    else:
        phases = np.random.default_rng(q).uniform(-np.pi, np.pi, q)
    U = dilation_stack(q + stack, 2, stack)
    fast = _phased_product(U, _plan(phases))
    assert fast.shape == U.shape
    for got, oracle in zip(fast.reshape((-1,) + U.shape[-2:]), U.reshape((-1,) + U.shape[-2:])):
        assert np.abs(got - dense_slot_product(oracle, phases)).max() < 1e-13


def dilation_stack(seed, d, stack):
    """One d x d Hermitian dilation, or a stack of `stack` of them."""
    rng = np.random.default_rng(seed)
    Us = [dilate_hermitian(hermitian_with_spectrum(seed + i, rng.uniform(-1, 1, d))[0]).unitary
          for i in range(max(1, stack))]
    return np.stack(Us) if stack else Us[0]


# list lengths: under 16 slots, prime (no divisor fits, so one block and the
# slot loop), odd and even with odd and even block lengths (k = _block_length(q)
# in the comment), and lists tiled two levels deep
_PRODUCT_LENGTHS = [1, 2, 5, 15, 17, 31,
                    16, 18, 24, 32, 64,   # k = 4, 3, 4, 4, 8
                    25, 27, 45, 75, 125,  # k = 5, 3, 5, 5, 5
                    50, 81, 100, 135]     # k = 5, 9, 10, 9
_PRODUCT_LENGTHS += [q for q in TWO_LEVEL_LENGTHS if q not in _PRODUCT_LENGTHS]


_U = 2.0 ** -53  # unit roundoff of float64


def slot_loop_extended(U, phases):
    """slot_loop in np.clongdouble (64-bit mantissa on x86-64): the exact
    product, as far as the float64 products' rounding is concerned."""
    U = np.asarray(U, dtype=np.clongdouble)
    Ud = np.swapaxes(U.conj(), -1, -2)
    out = None
    for phi, dag in zip(phases, template_daggers(len(phases))):
        e = np.exp(np.clongdouble(1j) * np.longdouble(phi))
        diag = np.repeat(np.array([e, e.conj()]), U.shape[-1] // 2)
        oracle = Ud if dag else U
        out = diag[:, None] * oracle if out is None else (out * diag) @ oracle
    return out


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_PRODUCT_LENGTHS), st.sampled_from([1, 2, 4]), st.sampled_from([0, 3]),
       st.integers(1, 5), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@example(q=2401, d=4, stack=3, subs=1, kinds=1, seed=232)  # 1.32e-13 apart, 0.50 q u
def test_phased_product_matches_slot_loop(q, d, stack, subs, kinds, seed):
    phases = two_level_tiled(np.random.default_rng(seed), q, subs, kinds)
    U = dilation_stack(seed % 1000, d, stack)
    fast, ref = _phased_product(U, _plan(phases)), slot_loop(U, phases)
    assert fast.shape == ref.shape
    c = _block_length(q)
    if c == q or _distinct_rows(phases.reshape(-1, c), q // c // 2) is None:
        # no divisor, or blocks that repeat too little: the slot loop itself
        assert np.array_equal(fast.view(np.uint64), ref.view(np.uint64))
    else:
        # a deduplicated block rounds the same way wherever it recurs, so the
        # errors add coherently, linearly in q: each product is within q u of
        # the exact one (next test), and the two are within 2 q u of each other
        assert np.abs(fast - ref).max() < 2 * q * _U


# the hypothesis example above, and the largest errors found in 300 random
# draws of its strategy at q = 100 and q = 16 (0.91 and 0.80 q u, blocked)
@pytest.mark.parametrize("q, d, stack, subs, kinds, seed", [(2401, 4, 3, 1, 1, 232),
                                                          (100, 2, 3, 1, 3, 1934192851),
                                                          (16, 2, 3, 2, 3, 3017867663)])
def test_products_round_within_q_units(q, d, stack, subs, kinds, seed):
    phases = two_level_tiled(np.random.default_rng(seed), q, subs, kinds)
    U = dilation_stack(seed % 1000, d, stack)
    exact = slot_loop_extended(U, phases)
    for product in (_phased_product(U, _plan(phases)), slot_loop(U, phases)):
        assert np.abs(product - exact).max() < q * _U


@pytest.mark.parametrize("q", [625, 1296])
def test_phased_product_never_merges_blocks_of_a_general_dilation(q):
    # the blocks of these lists repeat, but this oracle is not its own
    # adjoint, so a block's product depends on its daggers: qet_assemble runs
    # the slot loop, opening on the adjoint when q is even
    A = np.random.default_rng(4).standard_normal((3, 3)) * 0.2 + 0j
    be = dilate_general(A)
    U = be.unitary
    assert not np.array_equal(U, U.conj().T)
    rng = np.random.default_rng(q)
    phases = flatten_sign_phases(2, 4) if q == 625 else two_level_tiled(rng, q, 2, 2)
    assert _plan(phases).folds
    assert np.array_equal(qet_assemble(be, phases).view(np.uint64),
                          slot_loop(U, phases).view(np.uint64))


@pytest.mark.parametrize("l, n", [(2, 4), (4, 3), (8, 2)])
def test_phased_product_on_reflections_matches_phase_chain(l, n):
    xs = scalar_grid(0.1)
    w = np.sqrt(1.0 - xs * xs)
    U = np.empty((len(xs), 2, 2), dtype=np.complex128)
    U[:, 0, 0], U[:, 1, 1], U[:, 0, 1], U[:, 1, 0] = xs, -xs, w, w
    flat = flatten_sign_phases(l, n)
    got = _phased_product(U, _plan(flat))[:, 0, 0]
    assert np.abs(got - reflection_upper_left(flat, xs)).max() < 1e-13


@pytest.mark.parametrize("q", [16, 17, 125, 625])
def test_phased_product_without_repeats_is_the_slot_loop(q):
    phases = np.random.default_rng(q).uniform(-np.pi, np.pi, q)
    U = dilation_stack(q, 4, 0)
    assert np.array_equal(_phased_product(U, _plan(phases)).view(np.uint64),
                          slot_loop(U, phases).view(np.uint64))


def test_phased_product_multiplies_a_flattened_list_by_blocks(monkeypatch):
    # record the executor's stacked steps: each slot loop's row length, and
    # each product of the fold
    leaves, products = [], []
    execute = rqet.qet._execute

    def recording(plan, leaf, times, complete):
        def counted_leaf(r):
            leaves.append(r.shape[1])
            return leaf(r)

        def counted_times(a, b):
            products.append(len(a))
            return times(a, b)

        return execute(plan, counted_leaf, counted_times, complete)

    monkeypatch.setattr(rqet.qet, "_execute", recording)
    flat = flatten_sign_phases(2, 4)
    U = dilation_stack(7, 8, 0)
    assert np.abs(_phased_product(U, _plan(flat)) - slot_loop(U, flat)).max() < 1e-13
    # the 625-slot list is folded from 5-slot blocks in 17 steps, not 625
    assert leaves == [5]
    assert sum(leaves) + len(products) == 17


def test_flattened_run_merges_blocks_on_a_nearly_hermitian_matrix(monkeypatch):
    # A is Hermitian only within HERMITICITY_TOL, as a matrix file may be; its
    # dilation still equals its own adjoint, so the levels whose blocks repeat
    # (125 and 625 slots) run blocked plans, and the products stay right
    A, _ = hermitian_with_spectrum(5, [-0.9, -0.4, 0.5, 0.8])
    A[0, 1] += 1e-15
    assert not np.array_equal(A, A.conj().T)
    U = dilate_hermitian(A).unitary
    assert np.array_equal(U, U.conj().T)
    blocked = []
    execute = rqet.qet._execute

    def recording(plan, leaf, times, complete):
        blocked.append(len(plan.folds) > 0)
        return execute(plan, leaf, times, complete)

    monkeypatch.setattr(rqet.qet, "_execute", recording)
    be, _ = run_sign(A, 0.4, 1e-8, mode="flattened", levels=4)
    assert blocked == [False, False, True, True]
    nested, _ = run_sign(A, 0.4, 1e-8, mode="recursive", levels=4)
    assert operator_norm(be.unitary - nested.unitary) < 1e-9


def _counting_execute(monkeypatch):
    """Record (plan.products, the work done) for every plan executed: the leaf's
    row-positions plus the stacked entries of every product of a fold."""
    runs, execute = [], _kernels._execute

    def counted(plan, leaf, times, complete):
        work = []

        def counted_leaf(rows):
            work.append(rows.size)
            return leaf(rows)

        def counted_times(a, b):
            work.append(len(a))
            return times(a, b)

        out = execute(plan, counted_leaf, counted_times, complete)
        runs.append((plan.products, sum(work)))
        return out

    monkeypatch.setattr(_kernels, "_execute", counted)
    monkeypatch.setattr(rqet.qet, "_execute", counted)
    return runs


@pytest.mark.parametrize("source", [(2, 8), (4, 4), (8, 3), (20, 3)]
                         + [("tiled", q) for q in TWO_LEVEL_LENGTHS])
def test_plan_charges_the_work_it_does(monkeypatch, source):
    if source[0] == "tiled":
        phases = two_level_tiled(np.random.default_rng(source[1]), source[1], 2, 2)
    else:
        phases = flatten_sign_phases(*source)
    runs = _counting_execute(monkeypatch)
    _kernels.plan_chain(_plan(phases), scalar_grid(0.1))
    _phased_product(dilation_stack(1, 2, 0), _plan(phases))
    assert len(runs) == 2
    assert all(products == work for products, work in runs)
    assert runs[0] == runs[1]


def test_qet_assemble_runs_the_plan_over_a_hermitian_dilation(monkeypatch):
    # the dilation equals its own adjoint, so the 625-slot sign list runs by
    # its plan, which does the work it charges (over a general dilation the
    # same list is the slot loop: test_phased_product_never_merges_...)
    flat = flatten_sign_phases(2, 4)
    plan = _plan(flat)
    be = dilate_hermitian(hermitian_with_spectrum(3, [-0.9, -0.4, 0.5, 0.8])[0])
    runs = _counting_execute(monkeypatch)
    got = qet_assemble(be, flat)
    assert runs == [(plan.products, plan.products)] and plan.products < len(flat)
    assert np.abs(got - slot_loop(be.unitary, flat)).max() < 1e-13


def test_warm_runs_plan_nothing(monkeypatch, capsys, cold_sign_plans):
    # after one warm-up, scalar and flattened runs and perturb run only plans
    # they own: the base list's one-row plan and the cached sign-list plans
    A, _ = hermitian_with_spectrum(7, [-0.9, -0.3, 0.35, 0.8])

    def runs():
        run_sign(A, 0.3, 1e-8, mode="scalar", levels=4)
        run_sign(A, 0.3, 1e-8, mode="flattened", levels=4)
        assert rqet.cli.main(["perturb", "--seed", "1", "--dim", "4", "--iters", "3",
                              "--delta-grid", "1e-6:1e-3:2", "--out", os.devnull]) == 0

    def refuse(*_):
        raise AssertionError("a warm run planned a list")

    runs()
    for module in (_kernels, rqet.qet, rqet.qsp):
        monkeypatch.setattr(module, "_plan", refuse)
    runs()


def test_each_list_is_planned_once(monkeypatch, cold_sign_plans):
    pade_phases(2)  # a cold derivation plans the base list for its round-trip check
    planned, plan = [], _kernels._plan

    def recording(rows, *args):
        if np.ndim(rows) == 1:  # a list, not the plan's own recursion
            planned.append(len(rows))
        return plan(rows, *args)

    monkeypatch.setattr(_kernels, "_plan", recording)
    monkeypatch.setattr(rqet.qet, "_plan", recording)
    A, _ = hermitian_with_spectrum(5, [-0.9, -0.4, 0.5, 0.8])
    run_sign(A, 0.4, 1e-8, mode="flattened", levels=4)
    assert planned == [5, 25, 125, 625]
    planned.clear()
    run_sign(A, 0.4, 1e-8, mode="flattened", levels=4)  # every level's plan is cached
    assert planned == []
    # the nested levels run the base list's one-row plan, which is not
    # planned, and the one flattened chain is planned on the first run at
    # (l, n) only
    run_sign(A, 0.4, 1e-8, mode="scalar", levels=6)
    assert planned == [5 ** 6]
    planned.clear()
    run_sign(A, 0.4, 1e-8, mode="scalar", levels=6)
    assert planned == []


def test_phased_product_memory_stays_small():
    # a random list never repeats a block, so it runs as the slot loop and
    # holds a few matrices, not one per slot (2048 x 16 x 16 x 16 B = 8 MB)
    phases = np.random.default_rng(3).uniform(-np.pi, np.pi, 2048)
    U = dilation_stack(3, 8, 0)
    tracemalloc.start()
    try:
        _phased_product(U, _plan(phases))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 21


def test_reflection_chain_memory_stays_small():
    # a random 5^8 list is one leaf row, and the leaf takes exp of len(xs)
    # positions at a time: about 1.6 MB, mostly the plan's look for repeats,
    # where the list's factors at once would take 12.5 MB
    phases = np.random.default_rng(8).uniform(-np.pi, np.pi, 5 ** 8)
    xs = np.linspace(-1.0, 1.0, 24)
    tracemalloc.start()
    try:
        reflection_upper_left(phases, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _hermitian_dilation(d, seed):
    return dilate_hermitian(hermitian_with_spectrum(seed, np.random.default_rng(seed)
                                                    .uniform(-1, 1, d))[0])


@pytest.mark.parametrize("d", [16, 32, 64])
@pytest.mark.parametrize("q", [1, 2, 5, 16, 17, 125])
def test_qubitized_product_carries_the_top_block_row(d, q):
    # a random list has the one-row plan, so over a Hermitian dilation at
    # 2d >= 32 the slot loop runs on the top d rows, and the bottom block row
    # is written from them
    be = _hermitian_dilation(d, q)
    assert be.qubitized
    phases = np.random.default_rng(q).uniform(-np.pi, np.pi, q)
    got, ref = qet_assemble(be, phases), slot_loop(be.unitary, phases)
    assert np.array_equal(got[:d].view(np.uint64), ref[:d].view(np.uint64))
    # the two bottom rows round independently: measured up to 3.8 q u
    assert np.abs(got[d:] - ref[d:]).max() < 16 * q * _U
    _assert_bottom_row_from_top(got, q)


def _assert_bottom_row_from_top(got, q):
    """q slots give [[P, Q], [s Q^dag, -s P^dag]], s = (-1)^(q+1): the bottom
    block row of `got` is exactly that of its own top row."""
    d = len(got) // 2
    P, Q, s = got[:d, :d], got[:d, d:], (-1) ** (q + 1)
    bottom = np.concatenate((Q.conj().T, P.conj().T), axis=1) * np.repeat([s, -s], d)
    assert np.array_equal(_bits(got[d:]), _bits(bottom))


@pytest.mark.parametrize("d", [16, 32])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("q", [1, 2, 5, 16, 17, 125])
def test_stacked_qubitized_product_carries_each_members_top_block_row(d, k, q):
    # preparation's and the filters' (k, 2d, 2d) stacks take the top-row form
    # too: each member's top rows are its own slot loop's, bit for bit, and its
    # bottom block row is written from them
    U = dilation_stack(q, d, k)
    phases = np.random.default_rng(q).uniform(-np.pi, np.pi, q)
    got = qet_assemble(_encoding(U, True), phases)
    assert got.shape == (k, 2 * d, 2 * d)
    for member, got_member in zip(U, got):
        ref = slot_loop(member, phases)
        assert np.array_equal(_bits(got_member[:d]), _bits(ref[:d]))
        _assert_bottom_row_from_top(got_member, q)


def test_nested_qubitized_levels_match_full_products_and_the_spectrum():
    d, base = 64, pade_phases(2)
    rng = np.random.default_rng(11)
    w = rng.uniform(0.3, 1.0, d) * rng.choice([-1.0, 1.0], d)
    A, V = hermitian_with_spectrum(11, w)
    top = dilate_hermitian(A)
    full = BlockEncoding(top.unitary)  # not qubitized: every slot a full product
    # the 2x2 reduction: each eigenvalue's reflection, nested with all four entries
    R = np.empty((d, 2, 2), dtype=np.complex128)
    R[:, 0, 0], R[:, 1, 1] = w, -w
    R[:, 0, 1] = R[:, 1, 0] = np.sqrt(1.0 - w * w)
    for n in range(1, 7):
        top, full = qet_recursive_step(top, base), qet_recursive_step(full, base)
        R = _phased_product(R, _plan(base))
        reduced = np.block([[(V * R[:, a, b]) @ V.conj().T for b in (0, 1)] for a in (0, 1)])
        sign_n = (V * [scalar_sign_iterate(x, 2, n) for x in w]) @ V.conj().T
        bound = 16 * 5 ** n * _U  # rounding grows x5 per level: measured up to 3.6 x 5^n u
        assert np.abs(top.unitary - full.unitary).max() < bound
        assert np.abs(top.unitary - reduced).max() < bound
        assert np.abs(extract(top) - sign_n).max() < bound


def test_qubitized_flag_survives_odd_steps_only():
    A, _ = hermitian_with_spectrum(2, np.linspace(-0.9, 0.9, 16))
    be = dilate_hermitian(A)
    odd, even = pade_phases(2), np.array([0.3, -1.1])
    assert be.qubitized and qet_recursive_step(be, odd).qubitized
    after_even = qet_recursive_step(be, even)  # [[P, Q], [-Q^dag, P^dag]]
    assert not after_even.qubitized
    assert not qet_recursive_step(after_even, odd).qubitized
    assert not BlockEncoding(be.unitary).qubitized
    # a hand-set flag over a unitary of another form would make qet_assemble
    # write a wrong bottom block row, so only the library sets it
    with pytest.raises(TypeError):
        BlockEncoding(be.unitary, True)
    with pytest.raises(TypeError):
        BlockEncoding(be.unitary, qubitized=True)
    assert not dataclasses.replace(be).qubitized
    assert run_sign(A, 0.05, 1e-8, levels=0)[0].qubitized  # the run's own dilation
    assert not dilate_general(A).qubitized
    assert not qet_recursive_step(dilate_general(A), odd).qubitized
    # a product over the even step's output keeps both of its block rows
    assert np.abs(qet_assemble(after_even, odd) - slot_loop(after_even.unitary, odd)).max() < 1e-14


@pytest.mark.parametrize("run, d", [("recursive", 8), ("recursive", 15), ("flattened", 16),
                                    ("polar", 16), ("perturb", 16)])
def test_runs_off_the_top_row_form_keep_their_products(monkeypatch, run, d):
    # every product these runs form is bit for bit the product with both
    # block rows, the one each formed before the top-row form existed
    calls, product = [], rqet.qet._phased_product

    def checked(U, plan, qubitized=False):
        out = product(U, plan, qubitized)
        calls.append(np.array_equal(out.view(np.uint64), product(U, plan).view(np.uint64)))
        return out

    monkeypatch.setattr(rqet.qet, "_phased_product", checked)
    monkeypatch.setattr(rqet.cli, "_phased_product", checked)
    A, Q = hermitian_with_spectrum(d, np.linspace(0.5, 0.95, d) * (-1) ** np.arange(d))
    if run == "polar":
        run_polar(Q * np.linspace(0.5, 1.0, d), 0.4, 1e-8, levels=2)  # singular values 0.5..1
    elif run == "perturb":
        assert rqet.cli.main(["perturb", "--seed", "1", "--dim", str(d), "--iters", "2",
                              "--delta-grid", "1e-6:1e-3:2", "--out", os.devnull]) == 0
    else:
        run_sign(A, 0.4, 1e-8, mode=run, levels=3)
    assert calls and all(calls)


def test_scalar_run_evaluates_one_chain(monkeypatch, cold_sign_plans):
    base = pade_phases(2)  # a cold derivation runs its own round-trip check through the chain
    calls, execute = [], _kernels.plan_chain

    def counted(plan, xs):
        calls.append(plan)
        return execute(plan, xs)

    monkeypatch.setattr(rqet.qsp, "plan_chain", counted)  # reflection_upper_left's executor
    monkeypatch.setattr(rqet.qet, "plan_chain", counted)
    for _ in range(2):  # cold, then warm: one flattened chain apiece, on the cached 5^8 plan
        calls.clear()
        table, rep = run_sign(np.diag([0.5, -0.5]).astype(complex), 0.1, 1e-10, mode="scalar")
        assert rep.rows[-1].n == 8
        assert table.flattened_distance <= 1e-10
        flat = rqet.qet._sign_plan(2, 8)
        assert len(calls) == 9 and sum(c is flat for c in calls) == 1
        # each of the 8 levels on the one-row base plan
        assert all(not c.folds and np.array_equal(c.rows, base[None]) for c in calls if c is not flat)


def test_scalar_run_forms_no_dense_product(monkeypatch):
    # scalar levels run on plan_chain alone: no dense product and no 2x2 stack
    def refuse(*_, **__):
        raise AssertionError("scalar mode formed a dense product")

    monkeypatch.setattr(rqet.qet, "_phased_product", refuse)
    monkeypatch.setattr(rqet.qet, "_blocks", refuse)
    A, _ = hermitian_with_spectrum(16, np.linspace(0.5, 0.95, 16) * (-1) ** np.arange(16))
    table, rep = run_sign(A, 0.4, 1e-8, mode="scalar", levels=3)
    assert [r.n for r in rep.rows] == [1, 2, 3] and table.values.dtype == np.float64


def test_scalar_run_refuses_an_eigenvalue_just_past_one():
    # every check has the one upper bound, 1 + NORM_SLACK = 1 + 1e-12
    with pytest.raises(DomainError, match=r"^operator norm 1\.000000000500 exceeds 1$"):
        run_sign(np.diag([1 + 5e-10, -0.5]).astype(complex), 0.1, 1e-6, mode="scalar")


@pytest.mark.parametrize("levels", [0, None])
def test_scalar_run_checks_its_points_before_any_level(monkeypatch, levels):
    # the same refusal at n = 0 and at the derived n, before any product
    def refuse(*_):
        raise AssertionError("a product was formed before the points were checked")

    monkeypatch.setattr(rqet.qet, "plan_chain", refuse)
    A, _ = hermitian_with_spectrum(1, [1 + 5e-10, -0.5, 0.7, -0.3])
    with pytest.raises(DomainError, match=r"^operator norm 1\.000000000500 exceeds 1$"):
        run_sign(A, 0.3, 1e-10, mode="scalar", levels=levels)


def test_scalar_run_rejects_a_corrupted_flattened_list(monkeypatch, cold_sign_plans):
    # the cache is empty, so the check plans the corrupted list; the fixture
    # then drops that plan
    def corrupted(l, levels):
        flat = flatten_sign_phases(l, levels)
        flat[len(flat) // 2] += 1e-3
        return flat

    monkeypatch.setattr("rqet.qet.flatten_sign_phases", corrupted)
    with pytest.raises(NumericError, match="nested and flattened products differ"):
        run_sign(np.diag([0.5, -0.5]).astype(complex), 0.5, 1e-8, mode="scalar")


def test_cached_sign_plans_are_read_only(cold_sign_plans):
    plan = rqet.qet._sign_plan(2, 4)
    for a in (plan.rows, *plan.folds):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


def test_cached_sign_plans_are_small_and_hold_no_list(monkeypatch, cold_sign_plans):
    # every admitted (l, n): even l of the table, n >= 1 up to MAX_PHASES queries
    lists, flatten = {}, flatten_sign_phases

    def recorded(l, levels):
        lists[l, levels] = flatten(l, levels)
        return lists[l, levels]

    monkeypatch.setattr("rqet.qet.flatten_sign_phases", recorded)
    total = 0
    for l in range(2, rqet.cli._MAX_PADE + 1, 2):
        n = 1
        while query_count(n, l) <= MAX_PHASES:
            plan = rqet.qet._sign_plan(l, n)
            for a in (plan.rows, *plan.folds):
                assert not np.shares_memory(a, lists[l, n])
                total += a.nbytes
            lists.pop((l, n))
            n += 1
    assert total < 2 ** 20  # measured: 510,312 bytes


@pytest.mark.parametrize("l, n", [(2, 8), (4, 5), (8, 3), (2, 9)])
def test_cached_plans_run_bit_for_bit_as_planned_lists(l, n, cold_sign_plans):
    pts = np.unique(np.concatenate((scalar_grid(0.1), [0.37, -0.91])))
    got = _kernels.plan_chain(rqet.qet._sign_plan(l, n), pts)
    assert got.tobytes() == _kernels.plan_chain(_plan(flatten_sign_phases(l, n)), pts).tobytes()


def _without_times(report):
    return [dataclasses.replace(r, wall_time_ms=0.0) for r in report.rows]


@pytest.mark.parametrize("mode", ["scalar", "flattened"])
def test_warm_runs_match_cold_runs_byte_for_byte(mode, cold_sign_plans):
    A, _ = hermitian_with_spectrum(7, [-0.9, -0.3, 0.35, 0.8])
    cold, cold_report = run_sign(A, 0.3, 1e-8, mode=mode, levels=5)
    warm, warm_report = run_sign(A, 0.3, 1e-8, mode=mode, levels=5)
    assert _without_times(cold_report) == _without_times(warm_report)
    if mode == "flattened":
        assert cold.unitary.tobytes() == warm.unitary.tobytes()
    else:
        assert cold.points.tobytes() == warm.points.tobytes()
        assert cold.values.tobytes() == warm.values.tobytes()
        assert cold.flattened_distance == warm.flattened_distance


def test_warm_scalar_run_composes_no_list(monkeypatch, cold_sign_plans):
    A = np.diag([0.5, -0.5]).astype(complex)
    run_sign(A, 0.1, 1e-10, mode="scalar")
    composed = []
    monkeypatch.setattr("rqet.qet.compose_phases", lambda *a: composed.append(a))
    table, _ = run_sign(A, 0.1, 1e-10, mode="scalar")
    assert composed == [] and table.flattened_distance <= 1e-10


def test_warm_flattened_run_composes_no_list(monkeypatch, cold_sign_plans):
    # the dilation equals its own adjoint, so each level runs its cached plan
    # and the slot-loop fallback, the only reader of a list, never runs
    A, _ = hermitian_with_spectrum(7, [-0.9, -0.3, 0.35, 0.8])
    cold, _ = run_sign(A, 0.3, 1e-8, mode="flattened", levels=4)
    composed = []
    monkeypatch.setattr("rqet.qet.compose_phases", lambda *a: composed.append(a))
    warm, _ = run_sign(A, 0.3, 1e-8, mode="flattened", levels=4)
    assert composed == [] and warm.unitary.tobytes() == cold.unitary.tobytes()


def test_coherent_perturb_first_order():
    base = pade_phases(2)
    A, _ = hermitian_with_spectrum(23, [0.55, -0.7, 0.9])
    be = dilate_hermitian(A)
    ref = qet_assemble(be, base)
    errs = []
    for d in (1e-3, 5e-4, 2.5e-4):
        U = qet_assemble(be, coherent_perturb(base, d))
        errs.append(operator_norm(U - ref))
    assert 1.8 <= errs[0] / errs[1] <= 2.2
    assert 1.8 <= errs[1] / errs[2] <= 2.2


def test_coherent_perturb_no_wraparound():
    phases = np.array([np.pi - 1e-12, -np.pi + 1e-12])
    out = coherent_perturb(phases, 1e-3)
    # scaling must not be folded back into the principal interval
    assert out[0] > np.pi


def test_scalar_sign_iterate_matches_numpy_iteration():
    x = 0.3
    y = x
    p = pade(2)
    for _ in range(3):
        y = float(np.real(poly_eval(p, y)))
    assert scalar_sign_iterate(0.3, 2, 3) == y
    assert abs(scalar_sign_iterate(0.3, 2, 1) - 0.52966125) < 1e-15


def test_distinct_angles_merge_across_pi_seam():
    assert distinct_nonzero_angles(np.array([np.pi - 1e-12, -np.pi + 1e-12])) == 1
    assert distinct_nonzero_angles(np.array([np.pi - 1e-12, -np.pi + 1e-12, 0.5])) == 2


@pytest.mark.parametrize("l", [2, 4, 6, 8])
def test_distinct_angles_from_base_list(l):
    # every level whose flattened list has at most 5^8 phases
    assert distinct_angles(l, 0) == 0
    n = 1
    while query_count(n, l) <= 5 ** 8:
        assert distinct_angles(l, n) == distinct_nonzero_angles(flatten_sign_phases(l, n)), n
        n += 1
    assert n > 4


@pytest.mark.parametrize("l", [10, 12, 14, 16, 18, 20])
def test_distinct_angles_from_base_list_large_l(l):
    for n in (1, 2, 3):
        assert distinct_angles(l, n) == distinct_nonzero_angles(flatten_sign_phases(l, n)), n


# Angles are k pi/40 plus a jitter far below the clustering tolerance,
# so every true cluster gap is either ~1e-11 or at least pi/40.
_jittered_grid_angle = st.tuples(st.integers(-40, 40), st.floats(-1e-11, 1e-11))


@settings(max_examples=200, deadline=None)
@given(st.lists(_jittered_grid_angle, min_size=1, max_size=12),
       st.data())
def test_distinct_angles_invariant_under_2pi_shift(angles, data):
    phases = np.array([k * np.pi / 40 + jit for k, jit in angles])
    residues = {k % 80 for k, _ in angles} - {0}
    assert distinct_nonzero_angles(phases) == len(residues)
    i = data.draw(st.integers(0, len(phases) - 1))
    shifted = phases.copy()
    shifted[i] += data.draw(st.sampled_from([-2.0 * np.pi, 2.0 * np.pi]))
    assert distinct_nonzero_angles(shifted) == len(residues)


_gapped_eigenvalue = st.tuples(st.floats(0.3, 1.0), st.booleans()).map(
    lambda t: t[0] if t[1] else -t[0])


@settings(max_examples=50, deadline=None)
@given(st.lists(_gapped_eigenvalue, min_size=1, max_size=4), st.integers(1, 3),
       st.sampled_from([2, 4, 6, 8]), st.integers(0, 2 ** 16))
def test_run_sign_modes_agree_on_random_spectra(eigenvalues, levels, l, seed):
    A, _ = hermitian_with_spectrum(seed, eigenvalues)
    rec, _ = run_sign(A, 0.3, 1e-8, l, mode="recursive", levels=levels)
    flat, _ = run_sign(A, 0.3, 1e-8, l, mode="flattened", levels=levels)
    table, _ = run_sign(A, 0.3, 1e-8, l, mode="scalar", levels=levels)
    w, V = hermitian_eig(A)
    at = np.searchsorted(table.points, w)
    assert np.array_equal(table.points[at], w)
    via_scalar = (V * table.values[at][None, :]) @ V.conj().T
    assert operator_norm(extract(flat) - extract(rec)) < 1e-10
    assert operator_norm(via_scalar - extract(rec)) < 1e-10


def _rows_without_time(report):
    return [(r.n, r.error, r.bound, r.queries, r.distinct_angles) for r in report.rows]


def _check_stack_runs_as_its_members(stack, mode, levels):
    # one stacked run: each member's encoding and report rows (but for the
    # shared wall_time_ms) bit for bit its own run's
    be, reports = run_sign(stack, 0.3, 1e-8, mode=mode, levels=levels)
    d = stack.shape[-1]
    assert be.unitary.shape == (len(stack), 2 * d, 2 * d) and len(reports) == len(stack)
    for M, U, report in zip(stack, be.unitary, reports):
        one, single = run_sign(M, 0.3, 1e-8, mode=mode, levels=levels)
        assert U.tobytes() == one.unitary.tobytes()
        assert be.qubitized == one.qubitized
        assert _rows_without_time(report) == _rows_without_time(single)
    assert [r.wall_time_ms for r in reports[0].rows] == [r.wall_time_ms for r in reports[-1].rows]


def _gapped_stack(seed, k, d):
    rng = np.random.default_rng(seed)
    return np.stack([hermitian_with_spectrum(seed + i, rng.uniform(0.3, 1.0, d)
                                             * rng.choice([-1.0, 1.0], d))[0] for i in range(k)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 16), st.sampled_from(["recursive", "flattened"]),
       st.sampled_from([0, 1, 3]), st.integers(0, 2 ** 16))
def test_a_stack_runs_as_its_members_bit_for_bit(k, d, mode, levels, seed):
    _check_stack_runs_as_its_members(_gapped_stack(seed, k, d), mode, levels)


@pytest.mark.parametrize("mode", ["recursive", "flattened"])
def test_a_d64_stack_runs_as_its_members_bit_for_bit(mode):
    _check_stack_runs_as_its_members(_gapped_stack(64, 2, 64), mode, 3)


def test_a_stack_is_refused_in_scalar_mode_and_checked_member_by_member():
    A, _ = hermitian_with_spectrum(7, [0.5, -0.6, 0.9])
    B, _ = hermitian_with_spectrum(8, [0.5, -0.6, 0.1])
    with pytest.raises(DomainError, match=r"^expected a square matrix, got shape \(2, 3, 3\)$"):
        run_sign(np.stack((A, A)), 0.3, 1e-8, mode="scalar")
    # the second member's gap fails, as it would in its own run after the first's
    # passed; when both fail, the first is named
    with pytest.raises(DomainError, match=r"^eigenvalues outside \+-\[delta, 1\]: 0\.1$"):
        run_sign(np.stack((A, B)), 0.3, 1e-8)
    with pytest.raises(DomainError, match=r"^eigenvalues outside \+-\[delta, 1\]: 0\.2$"):
        run_sign(np.stack((hermitian_with_spectrum(9, [0.5, -0.6, 0.2])[0], B)), 0.3, 1e-8)
    C, D = A.copy(), A.copy()
    C[0, 1] += 1e-6
    D[1, 2] += 1e-5
    with pytest.raises(DomainError, match=r"^matrix is not Hermitian: \|M\[0,1\] - conj"):
        run_sign(np.stack((A, C)), 0.3, 1e-8)
    with pytest.raises(DomainError, match=r"^matrix is not Hermitian: \|M\[0,1\] - conj\(M\[1,0\]\)\| = 1\.000e-06$"):
        run_sign(np.stack((C, D)), 0.3, 1e-8)
