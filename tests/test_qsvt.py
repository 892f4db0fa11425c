import dataclasses
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rqet
from rqet import (BlockEncoding, DomainError, NumericError, dilate_general, dilate_hermitian,
                  distinct_nonzero_angles,
                  extract, filtering_operator, flatten_sign_phases, hermitian_eig,
                  operator_norm, pade_phases, polar_oracle, preparation_projector,
                  qet_assemble, qet_recursive_step, run_polar, run_sign)
from rqet.qet import scalar_grid
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
    # one stacked call after the last step, on the blocks before each level
    A = random_with_singulars(9, [0.6, 0.9])
    calls, gram_update = [], rqet.qsvt._gram_update

    def counted(X, g_coeffs):
        calls.append(X.copy())
        return gram_update(X, g_coeffs)

    monkeypatch.setattr(rqet.qsvt, "_gram_update", counted)
    enc, _ = run_polar(A, 0.5, 1e-12, levels=3)
    blocks, be = [A], dilate_general(A)  # level 1 against A, level k against level k - 1
    for _ in range(2):
        be = qet_recursive_step(be, pade_phases(2))
        blocks.append(extract(be))
    assert len(calls) == 1 and np.array_equal(calls[0], np.stack(blocks))
    calls.clear()
    run_polar(A, 0.5, 1e-12, levels=0)
    assert not calls  # level 0 has no step to check

    def perturbed(X, g_coeffs):  # levels 2 and 3 off; the first failing level is named
        right, left = gram_update(X, g_coeffs)
        return right, left + np.array([0.0, 1e-8, 1e-7])[:, None, None]

    monkeypatch.setattr(rqet.qsvt, "_gram_update", perturbed)
    with pytest.raises(NumericError, match=r"^transform step disagrees with the Gram closed "
                                           r"forms by 1\.000e-08$"):
        run_polar(A, 0.5, 1e-12, levels=3)


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


@pytest.mark.parametrize("run", ["recursive", "flattened", "scalar", "polar"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_row_errors_equal_a_per_level_recomputation(run, n):
    # a run takes every level's error in one stacked call after its last step;
    # each row must be bit for bit the error of its level taken on its own
    base = pade_phases(2)
    if run == "polar":
        A = random_with_singulars(9, [0.6, 0.9, 0.75])
        _, rep = run_polar(A, 0.5, 1e-8, levels=n)
        U, target = dilate_general(A).unitary, polar_oracle(A)[0]
    else:
        A, _ = hermitian_with_spectrum(4, [0.6, -0.9, 0.75])
        _, rep = run_sign(A, 0.5, 1e-8, mode=run, levels=n)
        U, target = dilate_hermitian(A).unitary, matrix_sign(A)
    if run == "scalar":  # run_sign's points, each level one chain on the one-row plan
        U = pts = np.unique(np.concatenate((scalar_grid(0.5), hermitian_eig(A).eigenvalues)))
        step = lambda y, k: rqet.qet.plan_chain(rqet.qet._Plan(base[None], []), y).real
        error = lambda y: float(np.abs(y - np.sign(pts)).max())
    else:
        be0 = BlockEncoding(U)
        if run == "flattened":
            step = lambda U, k: qet_assemble(be0, flatten_sign_phases(2, k))
        else:
            step = lambda U, k: qet_assemble(BlockEncoding(U), base)
        error = lambda U: operator_norm(U[:3, :3] - target)
    errors = [error(U)] if n == 0 else []
    for k in range(1, n + 1):
        U = step(U, k)
        errors.append(error(U))
    assert [r.error for r in rep.rows] == errors
    assert all(type(r.error) is float for r in rep.rows)


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



def _patched_sign(monkeypatch, change):
    # run_sign as the filters call it; change(member, report, be) edits each member's outcome
    sign = rqet.qsvt.run_sign

    def patched(A, delta, eps, *args, **kwargs):
        be, reports = sign(A, delta, eps, *args, **kwargs)
        for member, report in enumerate(reports if isinstance(reports, list) else [reports]):
            assert report.converged
            be = change(member, report, be) or be
        return be, reports

    monkeypatch.setattr(rqet.qsvt, "run_sign", patched)


def _end_at(report, error):
    report.rows[-1] = dataclasses.replace(report.rows[-1], error=error)


_PREP_VALS = [0.0] + list(np.linspace(0.5, 1.0, 7) * np.resize([1.0, -1.0], 7))


def test_filtering_raises_when_sign_run_misses_eps(monkeypatch):
    # the miss is made, not met: every sign run converges, and its reports are
    # then set to end at 2 eps, so no rounding drift decides either refusal
    _patched_sign(monkeypatch, lambda member, report, be: _end_at(report, 2 * report.eps))
    A, _ = hermitian_with_spectrum(5, [0.6, -0.7, 0.8, -0.9])
    with pytest.raises(NumericError, match=r"^sign run ended at 2\.000e-08, above eps = 1\.000e-08$"):
        filtering_operator(A, 0.5, 1e-8)
    # each shifted filter gets half of eps
    C, _ = hermitian_with_spectrum(3, _PREP_VALS)
    with pytest.raises(NumericError, match=r"^sign run ended at 1\.000e-08, above eps = 5\.000e-09$"):
        preparation_projector(C, 0.5, 1e-8)


def test_filtering_refuses_a_block_that_is_no_projector(monkeypatch):
    A, _ = hermitian_with_spectrum(5, [0.6, -0.7, 0.8, -0.9])
    be, report = run_sign(A, 0.5, 1e-8)
    assert report.converged
    # a converged report over the starting dilation: its top block (I + A)/2 is no projector
    monkeypatch.setattr(rqet.qsvt, "run_sign", lambda *args, **kw: (dilate_hermitian(A), report))
    with pytest.raises(NumericError, match=r"^filter block violates idempotency by \d"):
        filtering_operator(A, 0.5, 1e-8)


def _idempotency_message(U):
    # the filter's guard on an iterate U, as one filter run states it
    d = U.shape[-1] // 2
    P = ((np.eye(2 * d) + U) / 2)[:d, :d]
    return f"filter block violates idempotency by {float(np.abs(P @ P - P).max()):.3e}"


@pytest.mark.parametrize("misses, named", [((1,), 1), ((0, 1), 0)], ids=["minus", "both"])
def test_preparation_names_the_first_member_to_miss_eps(monkeypatch, misses, named):
    # a stacked run checks the plus shift first: the message is the one the two
    # filters, run one after the other, gave
    errors = {0: 2e-8, 1: 3e-8}
    _patched_sign(monkeypatch, lambda member, report, be:
                  _end_at(report, errors[member]) if member in misses else None)
    C, _ = hermitian_with_spectrum(3, _PREP_VALS)
    with pytest.raises(NumericError) as exc:
        preparation_projector(C, 0.5, 1e-8)
    assert str(exc.value) == f"sign run ended at {errors[named]:.3e}, above eps = 5.000e-09"


@pytest.mark.parametrize("fails, named", [((1,), 1), ((0, 1), 0)], ids=["minus", "both"])
def test_preparation_names_the_first_member_that_is_no_projector(monkeypatch, fails, named):
    C, _ = hermitian_with_spectrum(3, _PREP_VALS)
    scale, shift = 1.25, 0.25 * np.eye(len(C))
    shifted = [(C + shift) / scale, -(C - shift) / scale]
    starts = [dilate_hermitian(M).unitary for M in shifted]

    def change(member, report, be):
        if member in fails:
            U = be.unitary.copy()
            U[member] = starts[member]
            return BlockEncoding(U)

    _patched_sign(monkeypatch, change)
    with pytest.raises(NumericError) as exc:
        preparation_projector(C, 0.5, 1e-8)
    assert str(exc.value) == _idempotency_message(starts[named])


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


_TRACED = ("hermitian_eig", "qet_recursive_step", "operator_norm", "dilate_general")


@pytest.mark.parametrize("run, calls", [
    ("sign", (1, 4, 1, 0)), ("polar", (2, 4, 1, 0)), ("filter", (1, 4, 1, 0)),
    ("preparation", (1, 6, 1, 0)),
], ids=["sign", "polar", "filter", "preparation"])
def test_d8_drivers_keep_their_traced_calls(monkeypatch, run, calls):
    # every eigensolve and product of a d = 8 call goes through these public
    # functions, where an outside tracer sees it, as many times as this pins:
    # one stacked operator_norm per run, and polar's one eigensolve of A^dag A
    # serves its gap check, polar factor and dilation (the other is of A A^dag).
    # Preparation's two shifted runs are one stacked run, whose six levels each
    # take one step; a stack's product skips qet_assemble, which perfbench's
    # tracer reads as one 2-d unitary, and every other level's goes through it
    counts = dict.fromkeys(_TRACED + ("qet_assemble",), 0)
    modules = [m for name, m in vars(rqet).items() if isinstance(m, type(rqet))] + [rqet]
    for name in counts:
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
    assert counts["qet_assemble"] == (0 if run == "preparation" else calls[1])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 16))
def test_preparation_equals_two_filter_runs_on_the_shifted_matrices(d, seed):
    rng = np.random.default_rng(seed)
    vals = np.concatenate(([0.0], rng.uniform(0.5, 1.0, d - 1) * rng.choice([-1.0, 1.0], d - 1)))
    C, _ = hermitian_with_spectrum(seed, vals)
    res = preparation_projector(C, 0.5, 1e-8)
    shift = 0.25 * np.eye(d)
    plus = filtering_operator((C + shift) / 1.25, 0.2, 5e-9)
    minus = filtering_operator(-(C - shift) / 1.25, 0.2, 5e-9)
    assert res.projector.tobytes() == (plus.projector @ minus.projector).tobytes()
    assert _rows(res.plus_report) == _rows(plus.report)
    assert _rows(res.minus_report) == _rows(minus.report)
