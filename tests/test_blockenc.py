import numpy as np
import pytest

from rqet import (DomainError, dilate_general, dilate_hermitian, extract,
                  unitarity_check)
from conftest import hermitian_with_spectrum


def test_dilate_zero_matrix():
    be = dilate_hermitian(np.zeros((3, 3), dtype=complex))
    assert unitarity_check(be.unitary)
    assert np.abs(extract(be)).max() == 0.0
    # the lower-left block must carry the full weight
    assert np.abs(be.unitary[3:, :3] - np.eye(3)).max() < 1e-12


def test_dilate_identity():
    be = dilate_hermitian(np.eye(2, dtype=complex))
    assert np.abs(extract(be) - np.eye(2)).max() < 1e-12
    assert unitarity_check(be.unitary)


def test_dilate_hermitian_random():
    A, _ = hermitian_with_spectrum(3, [0.9, -0.5, 0.2, -0.85])
    be = dilate_hermitian(A)
    assert be.system_dim == 4 and be.ancilla_dim == 2
    assert np.abs(extract(be) - A).max() < 1e-12
    assert unitarity_check(be.unitary)
    # Hermitian dilation squares to the identity
    assert np.abs(be.unitary @ be.unitary - np.eye(8)).max() < 1e-11


def test_extract_is_a_copy():
    A, _ = hermitian_with_spectrum(5, [0.6, -0.3])
    be = dilate_hermitian(A)
    before = be.unitary.copy()
    X = extract(be)
    X[:] = 0.0
    assert np.array_equal(be.unitary, before)


def test_dilate_rejects_large_norm():
    with pytest.raises(DomainError):
        dilate_hermitian(1.5 * np.eye(2, dtype=complex))


def test_dilate_norm_one_edge():
    A = np.diag([1.0, -1.0]).astype(complex)
    be = dilate_hermitian(A)
    assert unitarity_check(be.unitary)


def test_dilate_general_nonhermitian():
    rng = np.random.default_rng(17)
    sv = np.array([0.6, 0.8, 0.95])
    U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    A = (U * sv[None, :]) @ V.conj().T
    be = dilate_general(A)
    assert np.abs(extract(be) - A).max() < 1e-12
    assert unitarity_check(be.unitary)
    # adjoint sits in the lower-right corner with a sign flip
    d = be.system_dim
    assert np.abs(be.unitary[d:, d:] + A.conj().T).max() < 1e-12


def test_ancilla_rotation_structure():
    A, _ = hermitian_with_spectrum(4, [0.5, -0.5])
    be = dilate_hermitian(A)
    R = np.diag(np.repeat(np.exp([1j * np.pi / 3, -1j * np.pi / 3]), be.system_dim))
    assert unitarity_check(R)
    d = be.system_dim
    assert np.abs(np.diag(R)[:d] - np.exp(1j * np.pi / 3)).max() < 1e-15
    assert np.abs(np.diag(R)[d:] - np.exp(-1j * np.pi / 3)).max() < 1e-15


def test_ancilla_rotation_pi_gives_global_minus():
    A, _ = hermitian_with_spectrum(6, [0.4, -0.4])
    be = dilate_hermitian(A)
    R = np.diag(np.repeat(np.exp([1j * np.pi, -1j * np.pi]), be.system_dim))
    assert np.abs(R + np.eye(be.total_dim)).max() < 1e-12
