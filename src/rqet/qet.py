"""Recursive eigenvalue transformation for the matrix sign function.

One level applies the degree-(2l+1) sign-iteration polynomial to every
eigenvalue of an encoded Hermitian matrix through a phased product of
oracle calls.  Levels nest: the output unitary of one level is the
oracle of the next, so n levels realize the n-fold composite while the
phase list can equally be flattened into a single product up front.
The three drivers (recursive, flattened, scalar) must agree; tests and
the acceptance suite hold them to that.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .blockenc import BlockEncoding, _dilate_spectrum, extract, rotation_diagonal
from .errors import DomainError, InputError, NumericError
from .linalg import _sign_of, hermitian_eig, operator_norm, require_hermitian
from .poly import pade, poly_eval
from .qsp import _IDENTITY_TOL, canonicalize_angles, pade_phases, reflection_upper_left

_ANGLE_TOL = 1e-9
MAX_PHASES = 5 ** 10  # most queries of any run; longest list built: 78 MB of float64
DENSE_BUDGET = 2 ** 32  # slots x max(2d, 32)^3; the largest admitted run takes ~1-4 s on one core


def template_daggers(q: int) -> np.ndarray:
    """Dagger pattern of the length-q product: slot j holds the plain
    oracle when j and q share parity, the adjoint otherwise (1-based)."""
    j = np.arange(1, q + 1)
    return (j % 2) != (q % 2)


def _phased_product(U: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """qet_assemble's product on a stack of oracles of shape (..., 2d, 2d),
    one product per leading index, by broadcast matmul.  No checks."""
    Ud = np.swapaxes(U.conj(), -1, -2)
    out = np.broadcast_to(np.eye(U.shape[-1], dtype=np.complex128), U.shape)
    for phi, dag in zip(phases, template_daggers(len(phases))):
        diag = rotation_diagonal(phi, U.shape[-1] // 2)
        out = (out * diag) @ (Ud if dag else U)
    return out


def qet_assemble(be: BlockEncoding, phases: np.ndarray) -> np.ndarray:
    """Alternating product of ancilla rotations and oracle calls.

    Slot j (1-based, leftmost first) contributes
    exp(i phase_j (2P - I)) followed by the oracle or its adjoint per the
    dagger template, so the final slot always carries the plain oracle.
    Over a general dilation the same product acts on singular values.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 1 or len(phases) == 0:
        raise InputError("phase list must be a nonempty 1-d array")
    return _phased_product(be.unitary, phases)


def qet_recursive_step(be: BlockEncoding, phases: np.ndarray) -> BlockEncoding:
    """One nesting level: the assembled unitary becomes the next oracle."""
    return BlockEncoding(qet_assemble(be, phases), be.system_dim)


def compose_phases(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Phase list realizing outer-after-inner as a single flat product.

    Each outer slot is replaced by the inner list (or its adjoint, which
    reverses and negates it).  The adjoint substitution also flips the
    sign of the rotation that follows, carried into the next junction.
    Merged junction angles are canonicalized; the operator is unchanged
    because the rotations are 2pi-periodic in the phase.

    The parities always close: the template ends on a plain slot, so no
    carry is left, and the substituted daggers equal the full template.
    """
    outer = np.asarray(outer, dtype=np.float64)
    inner = np.asarray(inner, dtype=np.float64)
    if outer.ndim != 1 or inner.ndim != 1 or len(outer) == 0 or len(inner) == 0:
        raise InputError("phase lists must be nonempty 1-d arrays")
    dag = template_daggers(len(outer))
    carry = np.where(np.concatenate(([False], dag[:-1])), -inner[0], 0.0)
    head = np.where(dag, outer + carry, outer + carry + inner[0])
    body = np.where(dag[:, None], -inner[:0:-1], inner[1:])
    return canonicalize_angles(np.column_stack((head, body)).reshape(-1))


def _check_phase_count(levels: int, l: int) -> None:
    """Refuse a run of more than MAX_PHASES oracle queries, (2l+1)^levels.

    This caps the queries of every run as well as the length of any
    flattened list that is built.  Counts past float64's exact integers
    (2^53) are stated as powers, so no level count can overflow the message.
    """
    count = query_count(levels, l)
    if count <= MAX_PHASES:
        return
    if count < 2 ** 53:
        need = f"{count} phases (~{8 * count / 1e6:,.0f} MB"
    else:
        need = f"{2 * l + 1}^{levels} phases (~2^{math.log2(8 * count) - math.log2(1e6):.1f} MB"
    raise DomainError(f"{levels} levels need {need} per float64 list), over the cap of {MAX_PHASES}")


def _check_budget(cost: int, work: str, estimate: str) -> None:
    if cost > DENSE_BUDGET:
        raise DomainError(f"{work} cost an estimated 2^{math.log2(cost):.1f} ({estimate}), "
                          f"over the budget of 2^{math.log2(DENSE_BUDGET):.0f}")


def _check_dense_cost(slots: int, dim: int) -> None:
    """Refuse a dense run of `slots` phased-product slots on a d = dim
    system whose cost estimate exceeds DENSE_BUDGET; the floor of 32 on
    the dilation size stands for the per-slot Python overhead."""
    count = slots if slots < 2 ** 53 else f"2^{math.log2(slots):.1f}"
    _check_budget(slots * max(2 * dim, 32) ** 3, f"{count} dense slots at dimension {dim}",
                  "slots x max(2d, 32)^3")


def _check_scalar_cost(points: int, phases: int) -> None:
    """Refuse a scalar run that evaluates `phases` chain phases at each of
    `points` points when it exceeds DENSE_BUDGET.  One point-phase of
    phase_chain (~17 ns) costs 2^6 dense units (~0.24 ns each, from
    0.51 ms per d = 64 slot)."""
    _check_budget(points * phases * 2 ** 6, f"{points} points x {phases} chain phases",
                  "point-phases x 2^6")


def flatten_sign_phases(l: int, levels: int) -> np.ndarray:
    """Single phase list for `levels` nested sign-iteration steps."""
    if levels < 1:
        raise InputError("levels must be at least 1")
    _check_phase_count(levels, l)
    base = pade_phases(l)
    flat = base
    for _ in range(levels - 1):
        flat = compose_phases(flat, base)
    return flat


def distinct_nonzero_angles(phases: np.ndarray) -> int:
    """Number of distinct nonzero values in a canonicalized phase list,
    values closer than _ANGLE_TOL counting as one."""
    vals = canonicalize_angles(np.asarray(phases, dtype=np.float64))
    vals = np.sort(vals[np.abs(vals) > _ANGLE_TOL])
    if len(vals) == 0:
        return 0
    count = 1 + int(np.count_nonzero(np.diff(vals) > _ANGLE_TOL))
    # the lowest and highest clusters are one cluster if they meet across +-pi
    if count > 1 and vals[0] + 2.0 * np.pi - vals[-1] <= _ANGLE_TOL:
        count -= 1
    return count


def distinct_angles(l: int, levels: int) -> int:
    """Distinct nonzero angles of the flattened list of `levels` nested
    steps, counted from the base list without building the flattened one.

    Proof.  compose_phases(outer, base) writes, per outer slot, a junction
    head and then a body block.  Every head equals its outer angle (up to
    one rounding) except the first, which gains base[0]; every body block
    is the base tail or its reversed negation, and both kinds occur once
    the outer list has more than one slot.  By induction, level n >= 2
    holds every value of tail and -tail, heads repeating level n - 1's
    values, and a first head of n * base[0].  base[0] is 0 at l = 2 and
    below 2e-12 in magnitude for l <= 8, so within the phase cap that head
    stays far inside the angle tolerance of zero, and the count is that of
    base and -base together.  Level 1 is the base list; level 0 has none.
    """
    if levels < 0:
        raise InputError("levels must be nonnegative")
    if levels == 0:
        return 0
    base = pade_phases(l)
    if levels == 1:
        return distinct_nonzero_angles(base)
    return distinct_nonzero_angles(np.concatenate((base, -base)))


def check_flattened_structure(phases: np.ndarray, base: np.ndarray) -> bool:
    """Verify the run-length structure of a flattened list against its base.

    In blocks the length of the base list, positions 1..end must equal the
    base tail or its reversed negation, and each block-leading junction
    must be zero or one of the base angles up to sign.
    """
    phases = canonicalize_angles(np.asarray(phases, dtype=np.float64))
    base = canonicalize_angles(np.asarray(base, dtype=np.float64))
    L = len(base)
    if len(phases) % L != 0:
        return False
    blocks = phases.reshape(-1, L)
    fwd = base[1:]
    rev = canonicalize_angles(-base[:0:-1])
    junction_ok = np.concatenate(([0.0], base, canonicalize_angles(-base)))
    tails = blocks[:, 1:]
    tail_ok = ((np.abs(tails - fwd) <= _ANGLE_TOL).all(axis=1)
               | (np.abs(tails - rev) <= _ANGLE_TOL).all(axis=1))
    head_ok = (np.abs(blocks[:, :1] - junction_ok) <= _ANGLE_TOL).any(axis=1)
    return bool((tail_ok & head_ok).all())


def sign_iterations(delta: float, eps: float, l: int = 2) -> int:
    """Levels needed to push every eigenvalue in +-[delta, 1] within eps of +-1.

    Ceiling of the base-(l+1) logarithm of delta^-2 ln(1/eps), floored at
    zero: one level cubes (l=1 case) or better the deviation exponent, so
    the requirement compounds double-exponentially.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("spectral gap must lie strictly between 0 and 1")
    if eps <= 0.0:
        raise DomainError("tolerance must be positive")
    if not math.isfinite(eps):
        raise DomainError(f"tolerance must be finite, got {eps}")
    if l < 1:
        raise DomainError("polynomial index must be a positive integer")
    target = math.log(1.0 / eps) / (delta * delta)
    if target <= 1.0:
        return 0
    return max(0, math.ceil(math.log(target, l + 1)))


def query_count(levels: int, l: int = 2) -> int:
    """Oracle calls made by `levels` nested degree-(2l+1) steps."""
    if levels < 0:
        raise InputError("levels must be nonnegative")
    return (2 * l + 1) ** levels


def error_bound(delta: float, levels: int, l: int = 2) -> float:
    """(1 - delta^2) to the (l+1)^levels: worst-case sign deviation."""
    return (1.0 - delta * delta) ** ((l + 1) ** levels)


def complexity_estimate(delta: float, eps: float, l: int = 2) -> tuple[float, float]:
    """Query bound (2l+1) (delta^-2 ln(1/eps))^nu and the exponent nu.

    nu = log_(l+1)(2l+1) drops toward 1 as l grows; l = 2 gives
    log_3 5, about 1.465, for the gap-dependence exponent 2 nu.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("spectral gap must lie strictly between 0 and 1")
    if not (0.0 < eps < 1.0):
        raise DomainError("tolerance must lie strictly between 0 and 1")
    nu = math.log(2 * l + 1, l + 1)
    bound = (2 * l + 1) * (math.log(1.0 / eps) / (delta * delta)) ** nu
    return bound, nu


def recovery_cost(k: int, c_phi: int = 8, q: int = 1) -> int:
    """Classical phase-list bookkeeping cost 2^k c_phi^(k^2) q for k levels.

    Exact integer arithmetic; the value is astronomically large already
    for modest k, which is the point of tabulating it.
    """
    if k < 0 or c_phi < 1 or q < 1:
        raise InputError("levels must be nonnegative and the cost factors positive")
    return (2 ** k) * (c_phi ** (k * k)) * q


def scalar_sign_iterate(x: float, l: int, levels: int) -> float:
    """The composite polynomial applied to a scalar by direct iteration."""
    p = pade(l)
    y = float(x)
    for _ in range(levels):
        y = float(np.real(poly_eval(p, y)))
    return y


def coherent_perturb(phases: np.ndarray, rel: float) -> np.ndarray:
    """Scale every phase by (1 + rel), modeling a common control error.

    No canonicalization: wrapping would alias the perturbation away on
    angles near +-pi and break the linear error model being probed.
    """
    return np.asarray(phases, dtype=np.float64) * (1.0 + rel)


@dataclass(frozen=True)
class IterationRow:
    n: int
    error: float
    bound: float
    queries: int
    distinct_angles: int
    wall_time_ms: float


@dataclass
class IterationReport:
    """Per-level convergence table shared by the sign and polar drivers."""

    mode: str
    delta: float
    eps: float
    l: int
    rows: list[IterationRow] = field(default_factory=list)

    @property
    def final_error(self) -> float:
        if not self.rows:
            raise InputError("report has no rows")
        return self.rows[-1].error

    @property
    def converged(self) -> bool:
        return self.final_error <= self.eps

    def add(self, k: int, error: float, ms: float) -> None:
        """Append the row of level k, whose construction took `ms`."""
        self.rows.append(IterationRow(k, error, error_bound(self.delta, k, self.l),
                                      query_count(k, self.l), distinct_angles(self.l, k), ms))

    def to_csv(self) -> str:
        lines = ["n,error,bound,queries,distinct_angles,wall_time_ms"]
        for r in self.rows:
            lines.append(f"{r.n},{r.error:.17g},{r.bound:.17g},{r.queries},"
                         f"{r.distinct_angles},{r.wall_time_ms:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScalarSignTable:
    """Sign-approximation values on a point grid, from nested 2x2 products.

    flattened_distance is the largest distance from the flattened product
    at the same points; None when no level ran.
    """

    points: np.ndarray
    values: np.ndarray
    flattened_distance: float | None = None


def scalar_grid(delta: float) -> np.ndarray:
    """Symmetric test grid in +-[delta, 1]: 10 negative, 11 positive points."""
    return np.concatenate((np.linspace(-1.0, -delta, 10), np.linspace(delta, 1.0, 11)))


def _check_gap(w: np.ndarray, delta: float) -> None:
    bad = (np.abs(w) < delta - 1e-9) | (np.abs(w) > 1.0 + 1e-9)
    if bad.any():
        raise DomainError("eigenvalues outside +-[delta, 1]: "
                          + ", ".join(f"{v:.6g}" for v in w[bad]))


def run_sign(A: np.ndarray, delta: float, eps: float, l: int = 2,
             mode: str = "recursive", levels: int | None = None):
    """Drive the sign iteration to tolerance and report per level.

    mode "recursive" nests block encodings, "flattened" rebuilds each
    level from one composed phase list, "scalar" nests the 2x2 dilations
    [[x, w], [w, -x]], w = sqrt(1 - x^2), of the eigenvalues plus a
    21-point grid, one level per step, then evaluates the flattened
    product of all n levels once at the same points.  A nested-flattened
    distance over _IDENTITY_TOL raises NumericError; the table keeps the
    nested values.  Only the last two build lists; recursive mode counts
    distinct angles by distinct_angles.  Every mode refuses runs of more
    than MAX_PHASES queries; flattened and scalar modes, whose work grows
    as (2l+1)^n, also refuse runs over DENSE_BUDGET, scalar mode counting
    2^6 units per point-phase.  A row's wall_time_ms covers the level's
    construction (compose, assemble or nested step), not its error check
    nor scalar mode's final flattened check.

    Returns (result, report): the result is a BlockEncoding of the final
    iterate for matrix modes and a ScalarSignTable for scalar mode.
    """
    if mode not in ("recursive", "flattened", "scalar"):
        raise InputError(f"unknown mode {mode!r}")
    A = require_hermitian(A)
    spectrum = hermitian_eig(A)  # shared by the gap check, the target and the dilation
    w = spectrum.eigenvalues
    _check_gap(w, delta)
    n = sign_iterations(delta, eps, l)  # validates delta and eps even when levels overrides n
    if levels is not None:
        n = levels
    if n < 0:
        raise InputError("levels must be nonnegative")
    _check_phase_count(n, l)
    queries = sum(query_count(k, l) for k in range(1, n + 1))  # over all levels
    if mode == "flattened":
        _check_dense_cost(queries, A.shape[0])
    if mode == "scalar":
        pts = np.unique(np.concatenate((scalar_grid(delta), w)))
        _check_scalar_cost(len(pts), queries)
    base = pade_phases(l)
    target = _sign_of(spectrum)
    report = IterationReport(mode, delta, eps, l)

    if n == 0:
        err = operator_norm(A - target) if mode != "scalar" else float(np.abs(w - np.sign(w)).max())
        report.add(0, err, 0.0)
        if mode == "scalar":
            return ScalarSignTable(pts, pts.astype(np.complex128)), report
        return _dilate_spectrum(A, spectrum), report

    if mode == "scalar":
        U = np.empty((len(pts), 2, 2), dtype=np.complex128)
        U[:, 0, 0], U[:, 1, 1] = pts, -pts
        U[:, 0, 1] = U[:, 1, 0] = np.sqrt(np.maximum(0.0, 1.0 - pts * pts))
        for k in range(1, n + 1):
            t0 = time.perf_counter()
            U = _phased_product(U, base)
            ms = (time.perf_counter() - t0) * 1e3
            report.add(k, float(np.abs(U[:, 0, 0] - np.sign(pts)).max()), ms)
        vals = U[:, 0, 0].copy()
        distance = float(np.abs(reflection_upper_left(flatten_sign_phases(l, n), pts) - vals).max())
        if distance > _IDENTITY_TOL:
            raise NumericError(f"nested and flattened products differ by {distance:.3e} "
                               f"at n = {n}, over {_IDENTITY_TOL:.0e}")
        return ScalarSignTable(pts, vals, distance), report

    flat = base
    be0 = be = _dilate_spectrum(A, spectrum)
    for k in range(1, n + 1):
        t0 = time.perf_counter()
        if mode == "recursive":
            be = qet_recursive_step(be, base)
        else:
            if k > 1:
                flat = compose_phases(flat, base)
            be = qet_recursive_step(be0, flat)
        ms = (time.perf_counter() - t0) * 1e3
        report.add(k, operator_norm(extract(be) - target), ms)
    return be, report
