import numpy as np
import pytest

from rqet import (DomainError, dilate_general, extract, filtering_operator,
                  matrix_sign, operator_norm, pade_phases, polar_oracle,
                  preparation_projector, project_state, qet_recursive_step,
                  run_polar)
from conftest import hermitian_with_spectrum


def random_with_singulars(seed, sv):
    sv = np.asarray(sv, dtype=np.float64)
    d = len(sv)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    V = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return (U * sv[None, :]) @ V.conj().T


def test_encode_block_is_input():
    A = random_with_singulars(1, [0.6, 0.9])
    assert np.abs(extract(dilate_general(A)) - A).max() < 1e-12


def test_single_qsvt_step_transforms_singulars():
    A = random_with_singulars(3, [0.55, 0.75, 0.95])
    X = extract(qet_recursive_step(dilate_general(A), pade_phases(2)))
    U, s, Vh = np.linalg.svd(A)
    p = lambda x: (15 * x - 10 * x ** 3 + 3 * x ** 5) / 8
    ref = (U * p(s)[None, :]) @ Vh
    assert operator_norm(X - ref) < 1e-11


def test_hermitian_input_reduces_to_eigen_case():
    A, Q = hermitian_with_spectrum(5, [0.6, -0.8, 0.95])
    X = extract(qet_recursive_step(dilate_general(A), pade_phases(2)))
    w, V = np.linalg.eigh(A)
    p = lambda x: (15 * x - 10 * x ** 3 + 3 * x ** 5) / 8
    ref = (V * p(w)[None, :]) @ V.conj().T
    assert operator_norm(X - ref) < 1e-11


def test_run_polar_converges():
    A = random_with_singulars(7, [0.52, 0.66, 0.8, 0.97])
    enc, rep = run_polar(A, 0.5, 1e-8)
    U_ref, _ = polar_oracle(A)
    assert rep.converged
    assert operator_norm(extract(enc) - U_ref) < 1e-8
    for row in rep.rows:
        assert row.error <= row.bound


def test_run_polar_rejects_small_singular():
    A = random_with_singulars(8, [0.3, 0.8])
    with pytest.raises(DomainError):
        run_polar(A, 0.5, 1e-6)


def test_run_polar_depth_cap():
    A = random_with_singulars(9, [0.6, 0.9])
    with pytest.raises(DomainError):
        run_polar(A, 0.5, 1e-14, max_depth=4)


def test_filtering_projects_positive_eigenspace():
    A = np.diag([0.5, -0.7]).astype(complex)
    res = filtering_operator(A, 0.5, 1e-6)
    assert operator_norm(res.projector - np.diag([1.0, 0.0])) < 0.5e-6 + 1e-9


def test_filtering_random_hermitian():
    A, Q = hermitian_with_spectrum(13, [0.55, -0.6, 0.85, -0.95])
    eps = 1e-5
    res = filtering_operator(A, 0.5, eps)
    ref = (np.eye(4) + matrix_sign(A)) / 2
    assert operator_norm(res.projector - ref) <= eps / 2 + 1e-9
    # the full conditioned operator stays unitary
    F = res.unitary
    assert np.abs(F.conj().T @ F - np.eye(F.shape[0])).max() < 1e-10


def test_preparation_projector_rank_one():
    vals = [0.0, 0.6, -0.8]
    A, Q = hermitian_with_spectrum(19, vals)
    eps = 1e-6
    res = preparation_projector(A, 0.5, eps)
    target = np.outer(Q[:, 0], Q[:, 0].conj())
    assert operator_norm(res.projector - target) <= eps
    assert res.effective_gap == pytest.approx(0.2)
    assert res.eps_each == pytest.approx(5e-7)


def test_preparation_rejects_missing_zero():
    A, _ = hermitian_with_spectrum(20, [0.6, -0.8, 0.9])
    with pytest.raises(DomainError):
        preparation_projector(A, 0.5, 1e-6)


def test_preparation_rejects_two_inner_eigenvalues():
    A, _ = hermitian_with_spectrum(21, [0.0, 0.1, 0.9])
    with pytest.raises(DomainError):
        preparation_projector(A, 0.5, 1e-6)


def test_project_state_probability():
    vals = [0.0, 0.7, -0.9]
    A, Q = hermitian_with_spectrum(22, vals)
    res = preparation_projector(A, 0.5, 1e-6)
    rng = np.random.default_rng(0)
    s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    s /= np.linalg.norm(s)
    out, prob = project_state(res.projector, s)
    overlap = abs(np.vdot(Q[:, 0], s)) ** 2
    assert abs(prob - overlap) < 1e-5
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # output aligns with the zero eigenvector up to phase
    assert abs(abs(np.vdot(Q[:, 0], out)) - 1.0) < 1e-5


def test_project_state_rejects_orthogonal():
    P = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        project_state(P, np.array([0.0, 1.0]))
