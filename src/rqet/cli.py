"""Command-line front end.

Subcommands: phases (load and flatten angle lists), sign-run and
polar-run (iteration drivers with CSV reports), conditions (check a
polynomial against the admissibility tests), perturb (coherent phase
noise sweep).  Exit codes: 0 success, 2 bad input, 3 domain
precondition violated, 4 numeric failure (including a run that ends
above its tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .blockenc import dilate_hermitian
from .errors import DomainError, InputError, NumericError, opened
from .linalg import load_matrix, operator_norm, require_dim
from .poly import check_qet_conditions, load_poly, pade
from .qet import (_check_dense_cost, _check_phase_count, _phased_product, _sign_plan,
                  coherent_perturb, distinct_angles, flatten_sign_phases, query_count, run_sign)
from .qsp import pade_phases, save_phases
from .qsvt import run_polar

_MAX_PADE = 20  # the largest l in the phase table
MAX_PRINTED_ANGLES = 5 ** 6  # longest flattened list `phases` writes to stdout
_EXITS = ((InputError, "input", 2), (DomainError, "domain", 3), (NumericError, "numeric", 4))


def _check_generated(seed: int, dim: int, gap: float) -> None:
    """Refuse generator arguments before any matrix is built: a dimension
    over MAX_DIM is the same domain error the eigensolver would raise."""
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if dim < 1:
        raise InputError("dim must be positive")
    if not (0.0 < gap < 1.0):
        raise InputError("gap must lie strictly between 0 and 1")
    require_dim(dim)


def _random_hermitian(seed: int, dim: int, gap: float) -> np.ndarray:
    """Seeded Hermitian test matrix with eigenvalues in +-[gap, 1]."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))[None, :].conj()
    mags = rng.uniform(gap, 1.0, size=dim)
    signs = np.where(rng.uniform(size=dim) < 0.5, -1.0, 1.0)
    if dim >= 2:
        signs[0], signs[1] = 1.0, -1.0
    vals = mags * signs
    M = (Q * vals[None, :]) @ Q.conj().T
    return (M + M.conj().T) / 2


def _random_general(seed: int, dim: int, gap: float) -> np.ndarray:
    """Seeded non-Hermitian test matrix with singular values in [gap, 1]."""
    rng = np.random.default_rng(seed)
    sv = rng.uniform(gap, 1.0, size=dim)
    U = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    V = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return (U * sv[None, :]) @ V.conj().T


def _load_or_generate(args, hermitian: bool) -> tuple[np.ndarray, dict]:
    meta: dict = {}
    if args.matrix is not None:
        A = load_matrix(args.matrix)
        meta["source"] = args.matrix
    else:
        if args.dim is None:
            raise InputError("provide --matrix PATH or --seed with --dim")
        _check_generated(args.seed, args.dim, args.gap)
        gen = _random_hermitian if hermitian else _random_general
        A = gen(args.seed, args.dim, args.gap)
        meta["source"] = f"seed={args.seed} dim={args.dim}"
    meta["normalization"] = 1.0
    if args.normalize:
        nrm = operator_norm(A)
        if nrm > 1.0:
            A = A / nrm
            meta["normalization"] = nrm
    return A, meta


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with opened(out, "w") as fh:
            fh.write(text)


def _require_even_pade(l: int) -> None:
    if l < 1 or l > _MAX_PADE:
        raise InputError(f"--pade-l must lie in 1..{_MAX_PADE}")
    if l % 2 == 1:
        report = check_qet_conditions(pade(l))
        witness = ""
        if report.witness is not None:
            name, x, val = report.witness
            witness = f" (witness: {name} at x={x:.6g} gives {val:.9g})"
        raise InputError(
            f"odd index {l} is not admissible: the iteration polynomial dips "
            f"below 1 in magnitude just outside [-1, 1], so no complementary "
            f"polynomial exists{witness}")


def _cmd_phases(args) -> int:
    count = 0
    if args.iters >= 1:
        _check_phase_count(args.iters, args.pade_l)  # an over-cap list stays a domain error
        count = query_count(args.iters, args.pade_l)
    if args.out is None and count > MAX_PRINTED_ANGLES:
        raise InputError(f"{count} flattened angles exceed the stdout limit of "
                         f"{MAX_PRINTED_ANGLES}; write them to a file with --out")
    base = pade_phases(args.pade_l)
    flat = flatten_sign_phases(args.pade_l, args.iters)
    payload = {
        "pade_l": args.pade_l,
        "form": "reflection",
        "levels": args.iters,
        "base_angles": [float(v) for v in base],
        "flattened_length": int(len(flat)),
        "query_count": count,
        "distinct_nonzero": distinct_angles(args.pade_l, args.iters),
    }
    if args.out is not None:
        save_phases(args.out, flat)
        payload["out"] = args.out
    else:
        payload["flattened_angles"] = [float(v) for v in flat]
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_conditions(args) -> int:
    p = load_poly(args.poly)
    report = check_qet_conditions(p)
    payload = {name: bool(ok) for name, ok in vars(report).items() if name != "witness"}
    payload["passed"] = bool(report.passed)
    if report.witness is not None:
        name, x, val = report.witness
        payload["witness"] = {"check": name, "x": float(x), "value": float(val)}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0 if report.passed else 3


def _finish_run(args, report, meta: dict, head: dict, tail: dict) -> int:
    """Write a run's CSV and print its summary; exit 0 if it converged, else 4."""
    _emit(report.to_csv(), args.out)
    summary = {"command": args.command, **head, "levels": report.rows[-1].n,
               "final_error": report.final_error, "epsilon": args.epsilon,
               "converged": report.converged, **tail, **meta}
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0 if report.converged else 4


def _cmd_sign_run(args) -> int:
    A, meta = _load_or_generate(args, hermitian=True)
    result, report = run_sign(A, args.gap, args.epsilon, args.pade_l,
                              mode=args.mode, levels=args.iters)
    return _finish_run(args, report, meta, {"mode": args.mode},
                       {"flattened_distance": getattr(result, "flattened_distance", None)})


def _cmd_polar_run(args) -> int:
    A, meta = _load_or_generate(args, hermitian=False)
    _, report = run_polar(A, args.gap, args.epsilon, args.pade_l, levels=args.iters)
    return _finish_run(args, report, meta, {}, {})


def _parse_grid(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError("--delta-grid must look like lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad --delta-grid {spec!r}") from exc
    if not (0.0 < lo <= hi) or count < 1:
        raise InputError("--delta-grid needs 0 < lo <= hi and count >= 1")
    if not math.isfinite(hi):
        raise InputError(f"--delta-grid bounds must be finite, got hi = {hi}")
    return lo, hi, count


def _cmd_perturb(args) -> int:
    if args.iters < 1:
        raise InputError("--iters must be at least 1")
    A, meta = _load_or_generate(args, hermitian=True)
    lo, hi, count = _parse_grid(args.delta_grid)
    plan = _sign_plan(args.pade_l, args.iters)
    # the reference, the zero perturbation and each grid value: one product of the plan apiece
    _check_dense_cost((count + 2) * plan.products, A.shape[0])
    largest = float(np.abs(plan.rows).max())  # every phase of the list is in a leaf row
    if not math.isfinite(largest * (1.0 + hi)):  # a Python float overflows to inf, no warning
        raise InputError(f"--delta-grid upper bound {hi:g} scales the phases past float64 "
                         f"(largest |phase| {largest:.6g})")
    U, n = dilate_hermitian(A).unitary, A.shape[0]  # its own adjoint: any plan runs as given

    def encoded(rel: float) -> np.ndarray:  # scaling keeps equal rows equal: the plan holds
        return _phased_product(U, plan._replace(rows=coherent_perturb(plan.rows, rel)))[:n, :n]
    X_ref = encoded(0.0)
    rows = ["delta,error"]
    for d in np.concatenate(([0.0], np.geomspace(lo, hi, count))):
        rows.append(f"{float(d):.17g},{operator_norm(encoded(float(d)) - X_ref):.17g}")
    _emit("\n".join(rows) + "\n", args.out)
    summary = {"command": "perturb", "levels": args.iters,
               "phase_count": query_count(args.iters, args.pade_l), **meta}
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def _add_matrix_args(sp) -> None:
    sp.add_argument("--matrix", help="JSON matrix file")
    sp.add_argument("--seed", type=int, default=0, help="generator seed")
    sp.add_argument("--dim", type=int, help="generated matrix dimension")
    sp.add_argument("--gap", type=float, default=0.5,
                    help="spectral gap / smallest singular value")
    sp.add_argument("--normalize", action="store_true",
                    help="rescale by the operator norm when it exceeds 1")
    sp.add_argument("--pade-l", type=int, default=2, dest="pade_l")
    sp.add_argument("--out", help="CSV path (stdout if omitted)")


def _add_run_args(sp) -> None:
    _add_matrix_args(sp)
    sp.add_argument("--epsilon", type=float, default=1e-8)
    sp.add_argument("--iters", type=int, help="override the derived level count")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rqet",
                                 description="analytic phase factors and sign-iteration drivers")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phases", help="load and flatten reflection phases")
    p.add_argument("--pade-l", type=int, default=2, dest="pade_l")
    p.add_argument("--iters", type=int, default=1, help="nesting levels to flatten")
    p.add_argument("--out", help="write the flattened list as JSON here")
    p.set_defaults(func=_cmd_phases)

    p = sub.add_parser("conditions", help="check a polynomial file for admissibility")
    p.add_argument("poly", help="JSON polynomial file")
    p.set_defaults(func=_cmd_conditions)

    p = sub.add_parser("sign-run", help="matrix sign iteration with a CSV report")
    _add_run_args(p)
    p.add_argument("--mode", choices=("recursive", "flattened", "scalar"), default="recursive")
    p.set_defaults(func=_cmd_sign_run)

    p = sub.add_parser("polar-run", help="polar-factor iteration with a CSV report")
    _add_run_args(p)
    p.set_defaults(func=_cmd_polar_run)

    p = sub.add_parser("perturb", help="coherent phase-noise sweep")
    _add_matrix_args(p)
    p.add_argument("--iters", type=int, default=1)
    p.add_argument("--delta-grid", default="1e-6:1e-2:9", dest="delta_grid",
                   help="log-spaced relative perturbations, lo:hi:count")
    p.set_defaults(func=_cmd_perturb)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if "pade_l" in args:  # every command but conditions
            _require_even_pade(args.pade_l)
        return args.func(args)
    except (InputError, DomainError, NumericError) as exc:
        kind, code = next((k, c) for cls, k, c in _EXITS if isinstance(exc, cls))
        print(f"{kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
