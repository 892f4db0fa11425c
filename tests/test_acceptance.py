"""Acceptance checks, one per shipped claim, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every check carries its stated tolerance and, where one applies, a
wall-clock cap measured around the computational core.
"""

import time

import numpy as np

from rqet import (canonicalize_angles, check_flattened_structure,
                  check_qet_conditions, chebyshev_reflection_phases,
                  coherent_perturb, dilate_hermitian, distinct_nonzero_angles,
                  extract, filtering_operator, flatten_sign_phases,
                  matrix_sign, operator_norm, pade, pade_phases, poly_eval,
                  polar_oracle, polynomial, preparation_projector,
                  qet_assemble, query_count, recovery_cost,
                  reflection_upper_left, run_polar, run_sign)
from conftest import hermitian_with_spectrum


def verdict(k: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {k}: {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_analytic_phase_reproduction():
    t0 = time.perf_counter()
    phases = pade_phases(2)
    xs = np.linspace(-1.0, 1.0, 201)
    realized = reflection_upper_left(phases, xs)
    target = np.real(poly_eval(pade(2), xs))
    max_dev = float(np.abs(realized - target).max())
    t1 = np.arctan(np.sqrt(15.0) / 7.0)
    t2 = np.arctan(np.sqrt(15.0))
    ref = np.array([0.0, np.pi + t1 / 2, np.pi + t2 / 2, -t2 / 2, -t1 / 2])
    set_dev = float(np.abs(np.sort(canonicalize_angles(phases))
                           - np.sort(canonicalize_angles(ref))).max())
    elapsed = time.perf_counter() - t0
    ok = max_dev <= 1e-10 and set_dev <= 1e-9 and elapsed < 1.0
    verdict(1, ok, f"grid dev {max_dev:.2e} (<=1e-10), angle multiset dev "
                   f"{set_dev:.2e}, {elapsed:.2f}s (<1s)")


def test_criterion_02_factorization_identity():
    t0 = time.perf_counter()
    p2 = np.zeros(6)
    for k, c in enumerate(pade(2).coeffs):
        p2[k] = c.real
    one_minus_sq = -np.convolve(p2, p2)
    one_minus_sq[0] += 1.0
    s = (11.0 + 3.0 * np.sqrt(15.0) * 1j) / 6.0
    cube = np.array([1.0])
    for _ in range(3):
        cube = np.convolve(cube, np.array([1.0, 0.0, -1.0]))
    quad = np.convolve(np.array([-s, 0.0, 1.0]), np.array([-s.conjugate(), 0.0, 1.0]))
    product = np.convolve(cube.astype(complex), quad)
    dev_plus = float(np.abs(one_minus_sq - (9.0 / 64.0) * product).max())
    dev_minus = float(np.abs(one_minus_sq - (-9.0 / 64.0) * product).max())
    elapsed = time.perf_counter() - t0
    ok = dev_plus <= 1e-12 and dev_minus > 1e-12 and elapsed < 0.1
    verdict(2, ok, f"derived +9/64 dev {dev_plus:.2e} (<=1e-12), printed sign "
                   f"dev {dev_minus:.2e} (must fail), {elapsed:.3f}s (<0.1s)")


def test_criterion_03_matrix_sign_convergence():
    vals = [0.52, -0.64, 0.71, -0.8, 0.87, -0.93, 0.98, -0.56]
    A, _ = hermitian_with_spectrum(101, vals)
    t0 = time.perf_counter()
    _, rep = run_sign(A, 0.5, 1e-8, mode="flattened")
    elapsed = time.perf_counter() - t0
    e3 = rep.rows[2].error
    e4 = rep.rows[3].error
    bound3 = 0.75 ** 27
    ok = e3 <= bound3 and e4 <= 1e-8 and rep.rows[3].n == 4 and elapsed < 10.0
    verdict(3, ok, f"n=3 error {e3:.3e} (<= {bound3:.3e}), n=4 error "
                   f"{e4:.3e} (<=1e-8), {elapsed:.2f}s (<10s)")


def test_criterion_04_headline_scalar_regime():
    A = np.diag([0.5, -0.5]).astype(complex)
    t0 = time.perf_counter()
    table, rep = run_sign(A, 0.1, 1e-10, mode="scalar")
    elapsed = time.perf_counter() - t0
    last = rep.rows[-1]
    ok = (last.n == 8 and last.queries == 390625
          and last.error <= 1e-10 and elapsed < 30.0)
    verdict(4, ok, f"n=8, 5^8 phases, scalar error {last.error:.3e} "
                   f"(<=1e-10), {elapsed:.2f}s (<30s)")


def test_criterion_05_flattened_recursive_equivalence():
    vals = [0.52, -0.64, 0.71, -0.8, 0.87, -0.93, 0.98, -0.56]
    A, _ = hermitian_with_spectrum(103, vals)
    worst = 0.0
    for n in (1, 2, 3):
        be_r, _ = run_sign(A, 0.5, 1e-8, mode="recursive", levels=n)
        be_f, _ = run_sign(A, 0.5, 1e-8, mode="flattened", levels=n)
        worst = max(worst, operator_norm(be_r.unitary - be_f.unitary))
    ok = worst <= 1e-9
    verdict(5, ok, f"max operator distance over n<=3: {worst:.3e} (<=1e-9)")


def test_criterion_06_eight_angle_structure():
    base = pade_phases(2)
    allowed = np.concatenate((canonicalize_angles(base),
                              canonicalize_angles(-base), [0.0]))
    ok = True
    details = []
    for n in (2, 3, 4):
        flat = flatten_sign_phases(2, n)
        distinct = distinct_nonzero_angles(flat)
        member = all(np.abs(allowed - v).min() < 1e-9
                     for v in canonicalize_angles(flat))
        structured = check_flattened_structure(flat, base)
        counted = query_count(n, 2) == 5 ** n == len(flat)
        ok = ok and distinct <= 8 and member and structured and counted
        details.append(f"n={n}: {distinct} distinct")
    verdict(6, ok, ", ".join(details) + "; membership, quadruple order, 5^n counts")


def test_criterion_07_condition_checker():
    rejected = all(not check_qet_conditions(pade(l)).passed for l in (1, 3))
    accepted = all(check_qet_conditions(pade(l)).passed for l in (2, 4, 6, 8))
    cheb_ok = True
    for q in range(2, 8):
        coeffs = np.polynomial.chebyshev.cheb2poly(np.eye(q + 1)[q])
        cheb_ok = cheb_ok and check_qet_conditions(polynomial(coeffs)).passed
    ok = rejected and accepted and cheb_ok
    verdict(7, ok, f"rejects l=1,3: {rejected}; accepts l=2,4,6,8: {accepted}; "
                   f"accepts T2..T7: {cheb_ok}")


def test_criterion_08_chebyshev_product_convention():
    vals = [0.9, -0.35, 0.5, -0.75]
    A, Q = hermitian_with_spectrum(104, vals)
    be = dilate_hermitian(A)
    worst = 0.0
    for q in range(2, 8):
        X = qet_assemble(be, chebyshev_reflection_phases(q))[:4, :4]
        ref = (Q * np.cos(q * np.arccos(np.array(vals)))[None, :]) @ Q.conj().T
        worst = max(worst, operator_norm(X - ref))
    ok = worst <= 1e-10
    verdict(8, ok, f"max deviation from Chebyshev matrices over q=2..7: "
                   f"{worst:.3e} (<=1e-10)")


def test_criterion_09_polar_decomposition():
    rng = np.random.default_rng(105)
    sv = np.array([0.51, 0.6, 0.68, 0.77, 0.84, 0.9, 0.96, 1.0])
    U = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
    V = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
    A = (U * sv[None, :]) @ V.conj().T
    enc, rep = run_polar(A, 0.5, 4.233e-4, levels=3)
    U_ref, _ = polar_oracle(A)
    err = operator_norm(extract(enc) - U_ref)
    bound = 0.75 ** 27
    # the per-step 1e-10 agreement between both update forms is enforced
    # inside run_polar; reaching this line means it held
    ok = err <= bound
    verdict(9, ok, f"n=3 polar error {err:.3e} (<= {bound:.3e}), "
                   f"step forms agreed to 1e-10")


def test_criterion_10_filtering_and_preparation():
    vals = [0.55, -0.6, 0.85, -0.95]
    A, _ = hermitian_with_spectrum(106, vals)
    eps_f = 1e-5
    res = filtering_operator(A, 0.5, eps_f)
    ref = (np.eye(4) + matrix_sign(A)) / 2
    dev_f = operator_norm(res.projector - ref)
    B, Q = hermitian_with_spectrum(107, [0.0, 0.6, -0.8])
    eps_p = 1e-6
    prep = preparation_projector(B, 0.5, eps_p)
    target = np.outer(Q[:, 0], Q[:, 0].conj())
    dev_p = operator_norm(prep.projector - target)
    ok = dev_f <= eps_f / 2 + 1e-9 and dev_p <= eps_p
    verdict(10, ok, f"filter dev {dev_f:.3e} (<= {eps_f / 2 + 1e-9:.1e}), "
                    f"preparation dev {dev_p:.3e} (<= {eps_p:.0e})")


def test_criterion_11_coherent_error_and_recovery_cost():
    A, _ = hermitian_with_spectrum(108, [0.55, -0.7, 0.9])
    be = dilate_hermitian(A)
    base = pade_phases(2)
    ref = qet_assemble(be, base)
    errs = {}
    for d in (1e-3, 5e-4, 2.5e-4):
        errs[d] = operator_norm(qet_assemble(be, coherent_perturb(base, d)) - ref)
    r1 = errs[1e-3] / errs[5e-4]
    r2 = errs[5e-4] / errs[2.5e-4]
    cost_ok = (recovery_cost(2, 8, 1) == 16384
               and recovery_cost(3, 8, 2) == 2 ** 3 * 8 ** 9 * 2
               and recovery_cost(0, 5, 7) == 7)
    ok = 1.8 <= r1 <= 2.2 and 1.8 <= r2 <= 2.2 and cost_ok
    verdict(11, ok, f"halving ratios {r1:.3f}, {r2:.3f} (in [1.8, 2.2]), "
                    f"recovery cost 2^k c^(k^2) q exact: {cost_ok}")
