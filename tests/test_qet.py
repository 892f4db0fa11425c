from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqet import (DomainError, InputError, NumericError, ScalarSignTable,
                  canonicalize_angles, check_flattened_structure,
                  chebyshev_reflection_phases, coherent_perturb,
                  complexity_estimate, compose_phases, dilate_hermitian,
                  distinct_angles, distinct_nonzero_angles, error_bound, extract,
                  flatten_sign_phases, hermitian_eig, operator_norm, pade,
                  pade_phases, poly_eval, qet_assemble, qet_recursive_step,
                  query_count, recovery_cost, run_sign, scalar_sign_iterate,
                  sign_iterations)
from rqet._kernels import phase_chain
from rqet.qet import (MAX_PHASES, _check_dense_cost, _check_phase_count, _check_scalar_cost,
                      _phased_product, scalar_grid, template_daggers)
from conftest import hermitian_with_spectrum


@pytest.fixture
def gapped8():
    vals = [0.52, -0.61, 0.7, -0.8, 0.88, -0.95, 0.99, -0.55]
    return hermitian_with_spectrum(42, vals)


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


_phase_list = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=9).map(np.array)


@settings(max_examples=300, deadline=None)
@given(_phase_list, _phase_list)
def test_compose_matches_slot_loop(outer, inner):
    assert np.array_equal(compose_phases(outer, inner), _compose_slot_loop(outer, inner))


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
    from rqet import reflection_upper_left
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


def test_error_bound_monotone():
    b = [error_bound(0.5, n) for n in range(5)]
    assert all(x > y for x, y in zip(b, b[1:]))
    assert b[0] == 0.75


def test_complexity_estimate_exponent():
    bound, nu = complexity_estimate(0.1, 1e-10, 2)
    assert abs(nu - np.log(5.0) / np.log(3.0)) < 1e-15
    # gap exponent 2*nu is below the square-root-free baseline of 2
    assert 1.0 < nu < 2.0
    assert bound > 0
    for eps in (0.0, 1.0, np.nan):
        with pytest.raises(DomainError):
            complexity_estimate(0.1, eps, 2)


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

    # flattened n = 5 at d = 64 is 5 + 25 + ... + 3125 = 3905 slots, over
    # the dense budget; nothing may be composed or assembled
    def refuse(*_):
        raise AssertionError("dense work started over the budget")

    monkeypatch.setattr("rqet.qet.qet_assemble", refuse)
    monkeypatch.setattr("rqet.qet.compose_phases", refuse)
    vals = np.linspace(0.5, 1.0, 64) * np.resize([1.0, -1.0], 64)
    A64, _ = hermitian_with_spectrum(7, vals)
    with pytest.raises(DomainError, match="3905 dense slots"):
        run_sign(A64, 0.5, 1e-14, mode="flattened")


def test_dense_budget_boundary():
    # max(2d, 32)^3 is 2^21 at d = 64 and 2^15 for every d <= 16
    _check_dense_cost(2048, 64)
    with pytest.raises(DomainError, match="2049 dense slots"):
        _check_dense_cost(2049, 64)
    _check_dense_cost(131_072, 8)
    with pytest.raises(DomainError, match="131073 dense slots"):
        _check_dense_cost(131_073, 8)


def test_scalar_budget_boundary():
    # 2^6 units per point-phase: n = 9 at l = 2 (sum of 5^k = 2,441,405) fits
    # 23 points but not 29, n = 10 not even the 21-point grid, and the
    # criterion-4 run (25 points, n = 8) uses 18% of the budget
    nine = sum(query_count(k, 2) for k in range(1, 10))
    _check_scalar_cost(23, nine)
    with pytest.raises(DomainError, match="29 points x 2441405 chain phases"):
        _check_scalar_cost(29, nine)
    with pytest.raises(DomainError, match="21 points x 12207030 chain phases"):
        _check_scalar_cost(21, nine + query_count(10, 2))
    _check_scalar_cost(25, sum(query_count(k, 2) for k in range(1, 9)))


def test_run_sign_zero_levels(gapped8):
    A, _ = gapped8
    be, rep = run_sign(A, 0.5, 0.999, mode="recursive")
    assert rep.rows[-1].n == 0
    assert rep.rows[-1].queries == 1
    assert operator_norm(extract(be) - A) < 1e-12


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


@pytest.mark.parametrize("gap, eps, levels, bound", [(0.1, 1e-10, 8, 5e-11),
                                                     (0.5, 1e-8, 4, 1e-13)])
def test_scalar_rows_match_high_precision_iteration(gap, eps, levels, bound):
    # measured: 2.9e-11 on the criterion-4 input, 4.7e-14 at gap 0.5
    table, rep = run_sign(np.diag([0.5, -0.5]).astype(complex), gap, eps, mode="scalar")
    assert rep.rows[-1].n == levels
    ref = [_mp_iterates(2, levels, x) for x in table.points]
    final = np.array([float(r[-1]) for r in ref])
    assert np.abs(table.values - final).max() <= bound
    for row in rep.rows:
        exact = max(float(abs(r[row.n - 1] - np.sign(x))) for x, r in zip(table.points, ref))
        assert abs(row.error - exact) <= bound, row.n


def test_phased_product_on_a_stack_of_points():
    xs = np.linspace(-1.0, 1.0, 9)
    w = np.sqrt(1.0 - xs * xs)
    U = np.empty((len(xs), 2, 2), dtype=np.complex128)
    U[:, 0, 0], U[:, 1, 1], U[:, 0, 1], U[:, 1, 0] = xs, -xs, w, w
    base = pade_phases(2)
    stacked = _phased_product(U, base)
    for x, P in zip(xs, stacked):
        per_point = qet_assemble(dilate_hermitian(np.array([[x]], dtype=complex)), base)
        assert np.abs(P - per_point).max() < 1e-15
    assert np.abs(stacked[:, 0, 0] - phase_chain(base, xs)).max() < 1e-15


def test_scalar_run_evaluates_one_chain(monkeypatch):
    pade_phases(2)  # a cold derivation runs its own round-trip check through the chain
    calls = []

    def counted(phases, xs):
        calls.append(len(phases))
        return phase_chain(phases, xs)

    monkeypatch.setattr("rqet.qsp.phase_chain", counted)
    table, rep = run_sign(np.diag([0.5, -0.5]).astype(complex), 0.1, 1e-10, mode="scalar")
    assert rep.rows[-1].n == 8
    assert calls == [5 ** 8]
    assert table.flattened_distance <= 1e-10


def test_scalar_run_rejects_a_corrupted_flattened_list(monkeypatch):
    def corrupted(l, levels):
        flat = flatten_sign_phases(l, levels)
        flat[len(flat) // 2] += 1e-3
        return flat

    monkeypatch.setattr("rqet.qet.flatten_sign_phases", corrupted)
    with pytest.raises(NumericError, match="nested and flattened products differ"):
        run_sign(np.diag([0.5, -0.5]).astype(complex), 0.5, 1e-8, mode="scalar")


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
