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
from .errors import DomainError, InputError
from .linalg import _sign_of, hermitian_eig, operator_norm, require_hermitian
from .poly import pade, poly_eval
from .qsp import canonicalize_angles, pade_phases, reflection_upper_left

_ANGLE_TOL = 1e-9
MAX_PHASES = 5 ** 10  # longest flattened list a driver builds: 78 MB of float64


def template_daggers(q: int) -> np.ndarray:
    """Dagger pattern of the length-q product: slot j holds the plain
    oracle when j and q share parity, the adjoint otherwise (1-based)."""
    j = np.arange(1, q + 1)
    return (j % 2) != (q % 2)


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
    U, Ud = be.unitary, be.unitary.conj().T
    out = np.eye(be.total_dim, dtype=np.complex128)
    for phi, dag in zip(phases, template_daggers(len(phases))):
        diag = rotation_diagonal(phi, be.system_dim)
        out = (out * diag[None, :]) @ (Ud if dag else U)
    return out


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
    """Refuse a flattened list longer than MAX_PHASES before building it."""
    count = query_count(levels, l)
    if count > MAX_PHASES:
        raise DomainError(f"{levels} levels need {count} phases (~{8 * count / 1e6:,.0f} MB "
                          f"per float64 list), over the cap of {MAX_PHASES}")


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


def _levels(n: int, base: np.ndarray):
    """Yield (k, flat_k) for k = 1..n, where flat_k is the flattened list
    of k nested steps; each list is composed only when its level is reached."""
    flat = base
    for k in range(1, n + 1):
        if k > 1:
            flat = compose_phases(flat, base)
        yield k, flat


def distinct_nonzero_angles(phases: np.ndarray, tol: float = _ANGLE_TOL) -> int:
    """Number of distinct nonzero values in a canonicalized phase list."""
    vals = canonicalize_angles(np.asarray(phases, dtype=np.float64))
    vals = np.sort(vals[np.abs(vals) > tol])
    if len(vals) == 0:
        return 0
    count = 1 + int(np.count_nonzero(np.diff(vals) > tol))
    # the lowest and highest clusters are one cluster if they meet across +-pi
    if count > 1 and vals[0] + 2.0 * np.pi - vals[-1] <= tol:
        count -= 1
    return count


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
    fwd = base[1:]
    rev = canonicalize_angles(-base[:0:-1])
    junction_ok = np.concatenate(([0.0], base, canonicalize_angles(-base)))
    for m in range(len(phases) // L):
        block = phases[L * m : L * (m + 1)]
        tail = block[1:]
        if not (np.abs(tail - fwd).max() <= _ANGLE_TOL or np.abs(tail - rev).max() <= _ANGLE_TOL):
            return False
        if np.abs(junction_ok - block[0]).min() > _ANGLE_TOL:
            return False
    return True


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
    log_3 5 - 1, about 0.465, for the gap-dependence exponent 2 nu.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("spectral gap must lie strictly between 0 and 1")
    if eps <= 0.0 or eps >= 1.0:
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

    def add(self, k: int, error: float, flat: np.ndarray, t0: float) -> None:
        """Append the row of level k, timed from t0 to now; the
        distinct-angle count of its flattened list is taken after the clock."""
        ms = (time.perf_counter() - t0) * 1e3
        self.rows.append(IterationRow(k, error, error_bound(self.delta, k, self.l),
                                      query_count(k, self.l), distinct_nonzero_angles(flat), ms))

    def to_csv(self) -> str:
        lines = ["n,error,bound,queries,distinct_angles,wall_time_ms"]
        for r in self.rows:
            lines.append(f"{r.n},{r.error:.17g},{r.bound:.17g},{r.queries},"
                         f"{r.distinct_angles},{r.wall_time_ms:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScalarSignTable:
    """Sign-approximation values on a point grid, one flattened product."""

    points: np.ndarray
    values: np.ndarray


def scalar_grid(delta: float) -> np.ndarray:
    """Symmetric test grid in +-[delta, 1]: 10 negative, 11 positive points."""
    return np.concatenate((np.linspace(-1.0, -delta, 10), np.linspace(delta, 1.0, 11)))


def _check_gap(w: np.ndarray, delta: float) -> None:
    bad = (np.abs(w) < delta - 1e-9) | (np.abs(w) > 1.0 + 1e-9)
    if bad.any():
        raise DomainError("eigenvalues outside +-[delta, 1]: "
                          + ", ".join(f"{v:.6g}" for v in w[bad]))


def run_sign(A: np.ndarray, delta: float, eps: float, l: int = 2,
             mode: str = "recursive", levels: int | None = None,
             max_matrix_depth: int = 4):
    """Drive the sign iteration to tolerance and report per level.

    mode "recursive" nests block encodings, "flattened" rebuilds each
    level from one composed phase list, "scalar" evaluates the flattened
    product on the eigenvalues plus a 21-point grid.  Matrix modes
    refuse depths past max_matrix_depth because the flattened check
    grows as 5^n; every mode refuses lists longer than MAX_PHASES.

    Returns (result, report): the result is a BlockEncoding of the final
    iterate for matrix modes and a ScalarSignTable for scalar mode.
    """
    if mode not in ("recursive", "flattened", "scalar"):
        raise InputError(f"unknown mode {mode!r}")
    A = require_hermitian(A)
    spectrum = hermitian_eig(A)  # shared by the gap check, the target and the dilation
    w = spectrum.eigenvalues
    _check_gap(w, delta)
    n = sign_iterations(delta, eps, l) if levels is None else levels
    if n < 0:
        raise InputError("levels must be nonnegative")
    if mode != "scalar" and n > max_matrix_depth:
        raise DomainError(f"{n} levels exceed the matrix-mode depth cap "
                          f"{max_matrix_depth}; use scalar mode or raise the cap")
    _check_phase_count(n, l)
    base = pade_phases(l)
    target = _sign_of(spectrum)
    report = IterationReport(mode, delta, eps, l)

    if n == 0:
        err = operator_norm(A - target) if mode != "scalar" else float(np.abs(w - np.sign(w)).max())
        report.rows.append(IterationRow(0, err, error_bound(delta, 0, l), 1, 0, 0.0))
        if mode == "scalar":
            pts = np.unique(np.concatenate((scalar_grid(delta), w)))
            return ScalarSignTable(pts, pts.astype(np.complex128)), report
        return _dilate_spectrum(A, spectrum), report

    if mode == "scalar":
        pts = np.unique(np.concatenate((scalar_grid(delta), w)))
        for k, flat in _levels(n, base):
            t0 = time.perf_counter()
            vals = reflection_upper_left(flat, pts)
            report.add(k, float(np.abs(vals - np.sign(pts)).max()), flat, t0)
        return ScalarSignTable(pts, vals), report

    be0 = _dilate_spectrum(A, spectrum)
    be = be0
    for k, flat in _levels(n, base):
        t0 = time.perf_counter()
        if mode == "recursive":
            be = qet_recursive_step(be, base)
        else:
            be = qet_recursive_step(be0, flat)
        report.add(k, operator_norm(extract(be) - target), flat, t0)
    return be, report
