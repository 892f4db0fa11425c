import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqet import (DomainError, InputError, NumericError, filtering_operator, hermitian_eig,
                  hermitian_eigvals, load_matrix, matrix_function_hermitian,
                  operator_norm, polar_oracle, preparation_projector, run_polar, run_sign,
                  save_matrix)
import rqet.linalg
from rqet.linalg import _gram, _unitarity_deviation, require_square
from conftest import hermitian_with_spectrum, matrix_sign


def random_hermitian(seed, d):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (Z + Z.conj().T) / 2


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 17, 64])
def test_hermitian_eig_matches_lapack(dim):
    A = random_hermitian(dim, dim)
    w, V = hermitian_eig(A)
    w_ref = np.linalg.eigvalsh(A)
    assert np.abs(w - w_ref).max() < 1e-10 * max(1.0, np.abs(w_ref).max())


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_hermitian_eig_reconstruction_and_unitarity(dim):
    A = random_hermitian(100 + dim, dim)
    w, V = hermitian_eig(A)
    recon = (V * w[None, :]) @ V.conj().T
    assert np.abs(recon - A).max() < 1e-12 * max(1.0, np.abs(A).max())
    assert np.abs(V.conj().T @ V - np.eye(dim)).max() < 1e-12
    assert np.all(np.diff(w) >= 0)


def test_hermitian_eig_degenerate_spectrum():
    A, _ = hermitian_with_spectrum(5, [0.5, 0.5, 0.5, -0.25])
    w, V = hermitian_eig(A)
    assert np.abs(np.sort(w) - np.array([-0.25, 0.5, 0.5, 0.5])).max() < 1e-12


def test_hermitian_eig_tiny_offdiagonal_converges():
    # diagonal dominated by one large entry; the tiny eigenvalues must
    # not drown in rounding noise from the big diagonal
    A = np.diag([1e-4, 1e-8, 1e-21, 3e-5]).astype(complex)
    A[0, 1] = A[1, 0] = 1e-22
    w, V = hermitian_eig(A)
    assert np.abs(np.sort(w) - np.sort(np.linalg.eigvalsh(A))).max() < 1e-18


def test_diagonal_input_eigenvalues_exact():
    # scalar-mode sign runs insert these eigenvalues into their point grid,
    # so a diagonal matrix must give back its diagonal bit for bit
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 65))
        v = rng.uniform(0.05, 1.0, d) * np.where(rng.uniform(size=d) < 0.5, -1.0, 1.0)
        assert np.array_equal(hermitian_eig(np.diag(v).astype(complex)).eigenvalues, np.sort(v))


def test_eigensolver_failure_is_numeric_error(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        hermitian_eig(np.eye(2, dtype=complex))


def test_rejects_non_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError):
        hermitian_eig(M)


def test_rejects_oversized():
    with pytest.raises(DomainError):
        hermitian_eig(np.eye(65, dtype=complex))


def test_matrix_function_square_root():
    A, _ = hermitian_with_spectrum(7, [0.25, 0.49, 0.81])
    R = matrix_function_hermitian(A, np.sqrt)
    assert np.abs(R @ R - A).max() < 1e-12


def test_matrix_function_rejects_nonfinite_value():
    A = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(DomainError):
        matrix_function_hermitian(A, np.log)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(12)
    for d in (2, 5, 9):
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert abs(operator_norm(M) - np.linalg.svd(M, compute_uv=False)[0]) < 1e-10


def shaped_matrix(kind, seed, d, scale):
    """A seeded d x d matrix of the given kind, scaled by `scale`."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "hermitian":
        Z = (Z + Z.conj().T) / 2
    elif kind == "rank-1":
        Z = np.outer(Z[:, 0], Z[0].conj())
    elif kind == "zero":
        Z = np.zeros((d, d), dtype=complex)
    return scale * Z


_KINDS = st.sampled_from(["general", "hermitian", "rank-1", "zero"])
_SCALES = st.sampled_from([1e-6, 0.5, 1.0, 1e3])


@settings(max_examples=60, deadline=None)
@given(_KINDS, st.integers(0, 2 ** 32 - 1), st.integers(1, 64), _SCALES)
def test_operator_norm_matches_numpy_2_norm(kind, seed, d, scale):
    M = shaped_matrix(kind, seed, d, scale)
    ref = float(np.linalg.norm(M, 2))
    assert abs(operator_norm(M) - ref) <= 1e-13 * max(1.0, ref)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["hermitian", "zero"]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 64), _SCALES)
def test_hermitian_eigvals_match_hermitian_eig(kind, seed, d, scale):
    M = shaped_matrix(kind, seed, d, scale)
    w = hermitian_eigvals(M)
    assert w.shape == (d,) and np.all(np.diff(w) >= 0)
    assert np.abs(w - hermitian_eig(M).eigenvalues).max() <= 1e-13 * np.linalg.norm(M, 2)


@pytest.mark.parametrize("M", [
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),  # not Hermitian
    np.array([[np.nan]]),
    np.eye(65, dtype=complex),  # over MAX_DIM
], ids=["non-hermitian", "nan", "d65"])
def test_hermitian_eigvals_rejects_what_hermitian_eig_rejects(M):
    # so do the drivers, which leave their matrix check to these two
    with pytest.raises(DomainError) as full:
        hermitian_eig(M)
    calls = [lambda: hermitian_eigvals(M), lambda: filtering_operator(M, 0.5, 1e-6),
             lambda: preparation_projector(M, 0.5, 1e-6)]
    calls += [lambda mode=mode: run_sign(M, 0.5, 1e-6, mode=mode)
              for mode in ("recursive", "flattened", "scalar")]
    for call in calls:
        with pytest.raises(DomainError) as refused:
            call()
        assert str(refused.value) == str(full.value)


@settings(max_examples=60, deadline=None)
@given(_KINDS, st.integers(0, 2 ** 32 - 1), st.integers(1, 64), _SCALES)
def test_gram_is_exactly_hermitian(kind, seed, d, scale):
    # why operator_norm's eigensolve needs no Hermitian check
    G = _gram(shaped_matrix(kind, seed, d, scale))
    assert np.array_equal(G, G.conj().T)


@pytest.mark.parametrize("M", [np.array([[0.5, np.nan], [0.0, 0.5]]), np.full((3, 3), 1e200 + 0j)],
                         ids=["nan", "gram-overflow"])
def test_operator_norm_refuses_a_non_finite_gram(M):
    with pytest.raises(DomainError, match=r"^matrix has a NaN or infinite entry$"):
        operator_norm(M)


def test_values_only_eigensolver_failure_is_numeric_error(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        hermitian_eigvals(np.eye(2, dtype=complex))


def test_operator_norm_power_iteration_crosscheck():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    G = M.conj().T @ M
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    for _ in range(2000):
        v = G @ v
        v /= np.linalg.norm(v)
    lam = float(np.real(np.vdot(v, G @ v)))
    assert abs(operator_norm(M) - np.sqrt(lam)) < 1e-8


def test_matrix_sign_spectral():
    A, Q = hermitian_with_spectrum(9, [0.6, -0.3, 0.9, -0.8])
    S = matrix_sign(A)
    expected = (Q * np.array([1.0, -1.0, 1.0, -1.0])[None, :]) @ Q.conj().T
    assert np.abs(S - expected).max() < 1e-12
    assert np.abs(S @ S - np.eye(4)).max() < 1e-12


def test_matrix_sign_rejects_zero_eigenvalue():
    A = np.diag([0.5, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        matrix_sign(A)


def test_polar_oracle_properties():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    U, P = polar_oracle(M)
    assert _unitarity_deviation(U) <= 1e-10
    assert np.abs(U @ P - M).max() < 1e-10
    w = np.linalg.eigvalsh((P + P.conj().T) / 2)
    assert w.min() > -1e-12


def test_polar_oracle_refuses_a_residual_over_its_tolerance(monkeypatch):
    monkeypatch.setattr(rqet.linalg, "_RESIDUAL_TOL", 0.0)
    rng = np.random.default_rng(31)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    with pytest.raises(NumericError) as exc:
        polar_oracle(M)
    assert str(exc.value) == "polar factorization residual exceeded 0"


def test_polar_oracle_rejects_singular():
    M = np.zeros((3, 3), dtype=complex)
    M[0, 0] = 1.0
    with pytest.raises(DomainError):
        polar_oracle(M)


def test_non_finite_entries_are_domain_errors():
    # a NaN fails every comparison, so the Hermiticity test alone cannot catch it
    with pytest.raises(DomainError):
        hermitian_eig(np.array([[np.nan]]))
    A = np.diag([0.6, -0.7]).astype(complex)
    A[0, 0] = np.inf
    with pytest.raises(DomainError):
        run_sign(A, 0.5, 1e-6)
    B = np.diag([0.6, 0.7]).astype(complex)
    B[1, 0] = np.nan
    with pytest.raises(DomainError):
        run_polar(B, 0.5, 1e-6)


def test_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.json"
    save_matrix(str(path), M)
    back = load_matrix(str(path))
    assert np.abs(back - M).max() == 0.0
    M = np.array([[1.5, -2j], [0.25 + 1j, 3]])
    save_matrix(str(path), M)
    assert path.read_bytes() == (b'{"rows": 2, "cols": 2, "entries": '
                                 b'[[1.5, 0.0], [-0.0, -2.0], [0.25, 1.0], [3.0, 0.0]]}\n')
    assert np.array_equal(load_matrix(str(path)).view(np.uint64), M.view(np.uint64))


def test_matrix_json_rejects_nan(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[NaN, 0.0]]}')
    with pytest.raises(InputError):
        load_matrix(str(path))


@pytest.mark.parametrize("text, message", [
    ('[[0.5, 0.0], [1.0]]', "entry 1 is not a [re, im] pair"),
    ('[[0.5, 0.0], [1.0, 0.0, 2.0]]', "entry 1 is not a [re, im] pair"),
    ('[3, [0.5, 0.0]]', "entry 0 is not a [re, im] pair"),
    ('[[0.5, 0.0], [1e400, 0.0]]', "entry 1 holds a non-finite or non-numeric value"),
    ('[[0.5, 0.0], [0.0, "a"]]', "entry 1 holds a non-finite or non-numeric value"),
    ('[[0.5, 0.0], [false, 0.0]]', "entry 1 holds a non-finite or non-numeric value"),
])
def test_matrix_file_pair_errors_name_the_entry(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"rows": 1, "cols": 2, "entries": {text}}}')
    with pytest.raises(InputError) as exc:
        load_matrix(str(path))
    assert str(exc.value) == message


@pytest.mark.parametrize("text", ['{"rows": 1, "cols": 1}', '[1, 2]'])
def test_matrix_file_needs_its_keys(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        load_matrix(str(path))
    assert str(exc.value) == f"matrix file {path} needs keys rows, cols, entries"


@pytest.mark.parametrize("rows, cols", [("true", "true"), ("0", "1"), ("1.0", "1"), ('"1"', "1")])
def test_matrix_file_needs_positive_integer_sizes(tmp_path, rows, cols):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"rows": {rows}, "cols": {cols}, "entries": [[0.5, 0.0]]}}')
    with pytest.raises(InputError, match="rows and cols must be positive integers"):
        load_matrix(str(path))


def test_matrix_json_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"rows": 2, "cols": 1, "entries": [[1.0, 0.0]]}))
    with pytest.raises(InputError):
        load_matrix(str(path))


def test_save_matrix_rejects_nonfinite(tmp_path):
    M = np.array([[np.inf]], dtype=complex)
    with pytest.raises(InputError):
        save_matrix(str(tmp_path / "x.json"), M)


def test_require_square_refuses_a_rectangle():
    with pytest.raises(DomainError) as exc:
        require_square(np.zeros((2, 3)))
    assert str(exc.value) == "expected a square matrix, got shape (2, 3)"
