import numpy as np
import pytest

import rqet.blockenc
from rqet import (BlockEncoding, DomainError, InputError, NumericError, dilate_general,
                  dilate_hermitian, extract, hermitian_eig)
from rqet.linalg import _unitarity_deviation
from conftest import hermitian_with_spectrum


def test_dilate_zero_matrix():
    be = dilate_hermitian(np.zeros((3, 3), dtype=complex))
    assert _unitarity_deviation(be.unitary) <= 1e-10
    assert np.abs(extract(be)).max() == 0.0
    # the lower-left block must carry the full weight
    assert np.abs(be.unitary[3:, :3] - np.eye(3)).max() < 1e-12


def test_dilate_identity():
    be = dilate_hermitian(np.eye(2, dtype=complex))
    assert np.abs(extract(be) - np.eye(2)).max() < 1e-12
    assert _unitarity_deviation(be.unitary) <= 1e-10


def test_dilate_hermitian_random():
    A, _ = hermitian_with_spectrum(3, [0.9, -0.5, 0.2, -0.85])
    be = dilate_hermitian(A)
    assert be.system_dim == 4 and be.ancilla_dim == 2
    assert np.abs(extract(be) - A).max() < 1e-12
    assert _unitarity_deviation(be.unitary) <= 1e-10
    # Hermitian dilation squares to the identity
    assert np.abs(be.unitary @ be.unitary - np.eye(8)).max() < 1e-11


def test_dilation_takes_the_hermitian_part():
    A, _ = hermitian_with_spectrum(3, [0.9, -0.5, 0.2, -0.85])
    # exactly Hermitian input enters bit for bit
    assert np.array_equal(extract(dilate_hermitian(A)).view(np.uint64), A.view(np.uint64))
    # input Hermitian only within tolerance gives a dilation equal to its own adjoint
    A[0, 1] += 1e-15
    U = dilate_hermitian(A).unitary
    assert np.array_equal(U, U.conj().T)
    assert np.abs(extract(dilate_hermitian(A)) - A).max() < 1e-15


def test_extract_is_a_copy():
    A, _ = hermitian_with_spectrum(5, [0.6, -0.3])
    be = dilate_hermitian(A)
    before = be.unitary.copy()
    X = extract(be)
    X[:] = 0.0
    assert np.array_equal(be.unitary, before)


def test_complement_squares_to_identity_minus_h():
    # every dilation's complementary block sqrt(I - H), over a spectrum reaching both ends of [-1, 1]
    t = np.array([-1.0, -0.6, 0.0, 0.25, 0.81, 1.0])
    H, Q = hermitian_with_spectrum(7, t)
    R = rqet.blockenc._complement(Q, t)
    assert np.abs(R @ R - (np.eye(6) - H)).max() < 1e-12
    assert np.abs(R - R.conj().T).max() < 1e-12


def test_dilate_rejects_large_norm():
    with pytest.raises(DomainError):
        dilate_hermitian(1.5 * np.eye(2, dtype=complex))


def test_dilate_norm_one_edge():
    A = np.diag([1.0, -1.0]).astype(complex)
    be = dilate_hermitian(A)
    assert _unitarity_deviation(be.unitary) <= 1e-10


def test_dilate_general_nonhermitian():
    rng = np.random.default_rng(17)
    sv = np.array([0.6, 0.8, 0.95])
    U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    A = (U * sv[None, :]) @ V.conj().T
    be = dilate_general(A)
    assert np.abs(extract(be) - A).max() < 1e-12
    assert _unitarity_deviation(be.unitary) <= 1e-10
    # adjoint sits in the lower-right corner with a sign flip
    d = be.system_dim
    assert np.abs(be.unitary[d:, d:] + A.conj().T).max() < 1e-12


def test_ancilla_rotation_structure():
    A, _ = hermitian_with_spectrum(4, [0.5, -0.5])
    be = dilate_hermitian(A)
    R = np.diag(np.repeat(np.exp([1j * np.pi / 3, -1j * np.pi / 3]), be.system_dim))
    assert _unitarity_deviation(R) <= 1e-10
    d = be.system_dim
    assert np.abs(np.diag(R)[:d] - np.exp(1j * np.pi / 3)).max() < 1e-15
    assert np.abs(np.diag(R)[d:] - np.exp(-1j * np.pi / 3)).max() < 1e-15


def test_ancilla_rotation_pi_gives_global_minus():
    A, _ = hermitian_with_spectrum(6, [0.4, -0.4])
    be = dilate_hermitian(A)
    R = np.diag(np.repeat(np.exp([1j * np.pi, -1j * np.pi]), be.system_dim))
    assert np.abs(R + np.eye(be.total_dim)).max() < 1e-12


@pytest.mark.parametrize("U", [np.eye(3), np.ones((2, 4)), np.zeros((0, 0)), np.ones(4),
                               np.ones((2, 2, 3)), [[1.0]]],
                         ids=["odd", "rectangle", "empty", "1-d", "3-d", "1x1-list"])
def test_encoding_refuses_what_is_not_a_square_even_unitary(U):
    with pytest.raises(InputError, match="^a block encoding needs a square unitary of even, "
                                         "positive size, got shape"):
        BlockEncoding(U)


def test_encoding_dimensions_come_from_the_unitary():
    be = BlockEncoding(np.eye(6))
    assert (be.system_dim, be.total_dim) == (3, 6)
    assert np.array_equal(extract(be), np.eye(3))
    with pytest.raises(TypeError):  # the system dimension is no longer an argument
        BlockEncoding(np.eye(6), 2)


def test_dilations_refuse_a_failed_unitarity_check(monkeypatch):
    monkeypatch.setattr(rqet.blockenc, "_UNITARITY_TOL", 0.0)
    A, _ = hermitian_with_spectrum(3, [0.9, -0.5, 0.2, -0.85])
    with pytest.raises(NumericError, match=r"^Hermitian dilation failed the unitarity check by \d"):
        dilate_hermitian(A)
    with pytest.raises(NumericError, match=r"^general dilation failed the unitarity check by \d"):
        dilate_general(A)


def test_a_stacked_dilation_names_its_first_failing_member(monkeypatch):
    # a stack of Hermitian dilations is each member's, and a failed check names
    # the first member's deviation, as separate dilations one after another would
    mats = [hermitian_with_spectrum(s, v)[0] for s, v in ((3, [0.9, -0.5, 0.2]), (4, [0.7, -0.99, 0.3]))]
    stack = np.stack(mats)
    be = rqet.blockenc._dilate_spectrum(stack, hermitian_eig(stack))
    assert be.qubitized and be.system_dim == 3 and be.unitary.shape == (2, 6, 6)
    for M, U in zip(mats, be.unitary):
        assert U.tobytes() == dilate_hermitian(M).unitary.tobytes()
    monkeypatch.setattr(rqet.blockenc, "_UNITARITY_TOL", 0.0)
    messages = []
    for M in mats:
        with pytest.raises(NumericError) as exc:
            dilate_hermitian(M)
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    with pytest.raises(NumericError) as exc:
        rqet.blockenc._dilate_spectrum(stack, hermitian_eig(stack))
    assert str(exc.value) == messages[0]
