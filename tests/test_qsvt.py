import dataclasses
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rqet
from rqet import (DomainError, NumericError, dilate_general, dilate_hermitian,
                  distinct_nonzero_angles,
                  extract, filtering_operator, flatten_sign_phases,
                  operator_norm, pade_phases, polar_oracle, preparation_projector,
                  qet_recursive_step, run_polar, run_sign)
from rqet.cli import _random_hermitian
from conftest import hermitian_with_spectrum, matrix_sign


def random_with_singulars(seed, sv):
    sv = np.asarray(sv, dtype=np.float64)
    d = len(sv)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    V = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return (U * sv[None, :]) @ V.conj().T


def test_window_errors_list_the_values_outside():
    # past 1 the one upper bound refuses first and names the largest value;
    # under delta every value is listed
    for run in (run_polar, run_sign):
        with pytest.raises(DomainError) as exc:
            run(np.diag([-0.2, 0.8, 1.5]).astype(complex), 0.5, 1e-6)
        assert str(exc.value) == "operator norm 1.500000000000 exceeds 1"
    with pytest.raises(DomainError) as exc:
        run_polar(np.diag([0.2, 0.8, 0.1]).astype(complex), 0.5, 1e-6)
    assert str(exc.value) == "singular values outside [delta, 1]: 0.1, 0.2"
    with pytest.raises(DomainError) as exc:
        run_sign(np.diag([-0.2, 0.8, 0.1]).astype(complex), 0.5, 1e-6)
    assert str(exc.value) == "eigenvalues outside +-[delta, 1]: -0.2, 0.1"


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


def test_run_polar_checks_every_level_against_the_gram_forms(monkeypatch):
    A = random_with_singulars(9, [0.6, 0.9])
    calls, gram_update = [], rqet.qsvt._gram_update

    def counted(X, g_coeffs):
        calls.append(X.copy())
        return gram_update(X, g_coeffs)

    monkeypatch.setattr(rqet.qsvt, "_gram_update", counted)
    enc, _ = run_polar(A, 0.5, 1e-12, levels=3)
    assert len(calls) == 3 and np.array_equal(calls[0], A)  # level 1 against A itself
    calls.clear()
    run_polar(A, 0.5, 1e-12, levels=0)
    assert not calls  # level 0 has no step to check

    def perturbed(X, g_coeffs):
        right, left = gram_update(X, g_coeffs)
        return right, left + 1e-8

    monkeypatch.setattr(rqet.qsvt, "_gram_update", perturbed)
    with pytest.raises(NumericError, match="disagrees with the Gram closed forms"):
        run_polar(A, 0.5, 1e-12, levels=2)


def test_run_polar_derives_the_polynomial_once(monkeypatch):
    # every level's Gram check reads the same coefficients of p_l
    A = random_with_singulars(9, [0.6, 0.9])
    calls, pade = [], rqet.qsvt.pade
    monkeypatch.setattr(rqet.qsvt, "pade", lambda l: calls.append(l) or pade(l))
    _, rep = run_polar(A, 0.5, 1e-12, levels=4)
    assert calls == [2] and len(rep.rows) == 4


@pytest.mark.parametrize("run", ["recursive", "flattened", "scalar", "polar"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_nested_runs_report_one_row_per_level(run, n):
    # _nest's contract: n >= 1 gives rows 1..n, each timed, and no row 0;
    # n = 0 gives exactly one row 0, timed 0 ms
    if run == "polar":
        _, rep = run_polar(random_with_singulars(9, [0.6, 0.9]), 0.5, 1e-8, levels=n)
    else:
        _, rep = run_sign(np.diag([0.6, -0.9]).astype(complex), 0.5, 1e-8, mode=run, levels=n)
    assert [r.n for r in rep.rows] == (list(range(1, n + 1)) if n else [0])
    assert all((r.wall_time_ms > 0) == (n > 0) for r in rep.rows)


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
    with pytest.raises(DomainError, match=r"^need exactly one eigenvalue inside \+-0.5, found 0$"):
        preparation_projector(A, 0.5, 1e-6)


def test_preparation_rejects_two_inner_eigenvalues():
    A, _ = hermitian_with_spectrum(21, [0.0, 0.1, 0.9])
    with pytest.raises(DomainError, match=r"^need exactly one eigenvalue inside \+-0.5, found 2$"):
        preparation_projector(A, 0.5, 1e-6)


@pytest.mark.parametrize("vals, delta, message", [
    ([0.2, 0.6, -0.8], 0.5, "the isolated eigenvalue 2.000e-01 is not zero"),
    ([0.0, 0.6, -1.5], 0.5, "operator norm 1.500000000000 exceeds 1"),
    ([0.0, 0.6, -0.8], 1.0, "spectral gap must lie strictly between 0 and 1"),
    ([0.0, 0.6, -0.8], 0.0, "spectral gap must lie strictly between 0 and 1"),
])
def test_preparation_refusals_name_their_reason(vals, delta, message):
    A, _ = hermitian_with_spectrum(22, vals)
    with pytest.raises(DomainError) as exc:
        preparation_projector(A, delta, 1e-6)
    assert str(exc.value) == message



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


def test_filtering_refuses_a_block_that_is_no_projector(monkeypatch):
    A, _ = hermitian_with_spectrum(5, [0.6, -0.7, 0.8, -0.9])
    be, report = run_sign(A, 0.5, 1e-8)
    assert report.converged
    # a converged report over the starting dilation: its top block (I + A)/2 is no projector
    monkeypatch.setattr(rqet.qsvt, "run_sign", lambda *args, **kw: (dilate_hermitian(A), report))
    with pytest.raises(NumericError, match=r"^filter block violates idempotency by \d"):
        filtering_operator(A, 0.5, 1e-8)


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


_TRACED = ("hermitian_eig", "qet_assemble", "operator_norm", "dilate_general")


@pytest.mark.parametrize("run, calls", [
    ("sign", (1, 4, 4, 0)), ("polar", (3, 4, 5, 1)), ("filter", (1, 4, 4, 0)),
    ("preparation", (2, 12, 12, 0)),
], ids=["sign", "polar", "filter", "preparation"])
def test_d8_drivers_keep_their_traced_calls(monkeypatch, run, calls):
    # every eigensolve and product of a d = 8 call goes through these public
    # functions, where an outside tracer sees it, as many times as this pins
    counts = dict.fromkeys(_TRACED, 0)
    modules = [m for name, m in vars(rqet).items() if isinstance(m, type(rqet))] + [rqet]
    for name in _TRACED:
        fn = getattr(rqet, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    A, _ = hermitian_with_spectrum(1, np.linspace(0.5, 0.95, 8) * (-1) ** np.arange(8))
    if run == "sign":
        assert run_sign(A, 0.5, 1e-8)[1].rows[-1].n == 4  # recursive, n = 4
    elif run == "polar":
        run_polar(A, 0.5, 1e-8)
    elif run == "filter":
        filtering_operator(A, 0.5, 1e-8)
    else:
        vals = [0.0] + list(np.linspace(0.5, 1.0, 7) * np.resize([1.0, -1.0], 7))
        preparation_projector(hermitian_with_spectrum(2, vals)[0], 0.5, 1e-8)
    assert tuple(counts[name] for name in _TRACED) == calls
