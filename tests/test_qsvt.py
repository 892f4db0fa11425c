import dataclasses
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rqet
from rqet import (DomainError, NumericError, dilate_general, distinct_nonzero_angles,
                  extract, filtering_operator, flatten_sign_phases, matrix_sign,
                  operator_norm, pade_phases, polar_oracle, preparation_projector,
                  qet_recursive_step, run_polar, run_sign)
from rqet.cli import _random_hermitian
from conftest import hermitian_with_spectrum


def random_with_singulars(seed, sv):
    sv = np.asarray(sv, dtype=np.float64)
    d = len(sv)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    V = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return (U * sv[None, :]) @ V.conj().T


def test_window_errors_list_the_values_outside():
    A = np.diag([0.2, 0.8, 1.5]).astype(complex)
    with pytest.raises(DomainError) as exc:
        run_polar(A, 0.5, 1e-6)
    assert str(exc.value) == "singular values outside [delta, 1]: 0.2, 1.5"
    with pytest.raises(DomainError) as exc:
        run_sign(np.diag([-0.2, 0.8, 1.5]).astype(complex), 0.5, 1e-6)
    assert str(exc.value) == "eigenvalues outside +-[delta, 1]: -0.2, 1.5"


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
    # no depth cap: n = 5 runs and converges
    A = random_with_singulars(9, [0.6, 0.9])
    _, rep = run_polar(A, 0.5, 1e-12)
    assert rep.rows[-1].n == 5 and rep.converged


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


def quarter_y_sandwich(U):
    """The filter unitary as two dense products: (rot- x I) diag(I, U)
    (rot+ x I), rot+- = [[c, +-c], [-+c, c]] the quarter Y rotations."""
    dim = U.shape[0]
    c = np.sqrt(0.5)
    rot = lambda sign: np.kron(np.array([[c, sign * c], [-sign * c, c]]), np.eye(dim))
    conditioned = np.block([[np.eye(dim), np.zeros((dim, dim))], [np.zeros((dim, dim)), U]])
    return rot(-1.0) @ conditioned @ rot(+1.0)


@pytest.mark.parametrize("d", [4, 64])
def test_filter_unitary_matches_quarter_y_sandwich(d):
    A = _random_hermitian(d, d, 0.5)
    res = filtering_operator(A, 0.5, 1e-8)
    be, _ = run_sign(A, 0.5, 1e-8, mode="recursive")
    assert np.abs(res.unitary - quarter_y_sandwich(be.unitary)).max() < 1e-14


_gapped_eigenvalue = st.tuples(st.floats(0.5, 1.0), st.booleans()).map(
    lambda t: t[0] if t[1] else -t[0])


@settings(max_examples=100, deadline=None)
@given(st.lists(_gapped_eigenvalue, min_size=1, max_size=4),
       st.sampled_from([1e-5, 1e-8]), st.integers(0, 2 ** 16))
def test_filter_output_is_idempotent(eigenvalues, eps, seed):
    A, _ = hermitian_with_spectrum(seed, eigenvalues)
    P = filtering_operator(A, 0.5, eps).projector
    assert operator_norm(P @ P - P) <= eps


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



def test_filtering_raises_when_sign_run_misses_eps():
    # n = 10 at gap 0.02 ends near 9e-9, above the requested 1e-10
    A = _random_hermitian(1, 8, 0.02)
    with pytest.raises(NumericError, match="above eps"):
        filtering_operator(A, 0.02, 1e-10)
    # each shifted filter ends near 2e-9, above its half of eps = 1e-10
    vals = [0.0] + list(np.linspace(0.1, 1.0, 7) * np.resize([1.0, -1.0], 7))
    C, _ = hermitian_with_spectrum(3, vals)
    with pytest.raises(NumericError, match="above eps"):
        preparation_projector(C, 0.1, 1e-10)


def _rows(report):
    return [(r.n, r.error, r.bound, r.queries, r.distinct_angles) for r in report.rows]


def test_recursive_drivers_never_flatten(monkeypatch):
    A, _ = hermitian_with_spectrum(23, [0.55, -0.6, 0.85, -0.95])
    B = random_with_singulars(24, [0.55, 0.7, 0.9])
    C, _ = hermitian_with_spectrum(25, [0.0, 0.6, -0.8])
    calls = {
        "sign": lambda: run_sign(A, 0.5, 1e-8, mode="recursive")[1],
        "polar": lambda: run_polar(B, 0.5, 1e-8)[1],
        "filter": lambda: filtering_operator(A, 0.5, 1e-8).report,
        "prep": lambda: preparation_projector(C, 0.5, 1e-6).plus_report,
    }
    expected = {name: _rows(call()) for name, call in calls.items()}
    # the distinct-angle column matches the lists that are no longer built
    for rows in expected.values():
        for n, *_, distinct in rows:
            assert distinct == distinct_nonzero_angles(flatten_sign_phases(2, n))

    def refuse(*_):
        raise AssertionError("compose_phases called by a recursive driver")

    monkeypatch.setattr("rqet.qet.compose_phases", refuse)
    for name, call in calls.items():
        assert _rows(call()) == expected[name], name


def test_every_exported_dataclass_has_resolvable_annotations():
    exported = [getattr(rqet, name) for name in dir(rqet)]
    classes = [c for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert {rqet.FilterResult, rqet.PreparationResult} <= set(classes)
    for cls in classes:
        hints = typing.get_type_hints(cls)
        assert {f.name for f in dataclasses.fields(cls)} <= set(hints), cls.__name__
