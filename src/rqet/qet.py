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

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _execute, _Plan, _plan, plan_chain
from .blockenc import BlockEncoding, _dilate_spectrum, _encoding, extract
from .errors import DomainError, InputError, NumericError
from .linalg import _sign_of, hermitian_eig, operator_norm, require_hermitian
from .poly import pade, poly_eval
from .qsp import (_IDENTITY_TOL, _require_finite, _require_signal_points, canonicalize_angles,
                  pade_phases)

_ANGLE_TOL = 1e-9
MAX_PHASES = 5 ** 10  # most queries of any run; longest list built: 78 MB of float64
_PLUS_MINUS_I = np.array([1j, -1j])[:, None, None]
_DENSE_FLOOR = 32  # dilation size 2d below which a product costs about its Python overhead
DENSE_BUDGET = 2 ** 32  # products x max(2d, _DENSE_FLOOR)^3: under 1 s of d = 64 ones, one core


def _phased_product(U: np.ndarray, phases: np.ndarray | None, plan: _Plan | None = None,
                    qubitized: bool = False) -> np.ndarray:
    """qet_assemble's product on a stack of oracles of shape (..., 2d, 2d),
    one product per leading index, by broadcast matmul.  No checks.

    When the oracle equals its own adjoint, as the scalar reflection and
    every Hermitian dilation do, a slot's product does not depend on its
    dagger, so the list is multiplied by `plan`, or _kernels._plan(phases)
    if none is given: each distinct block once, folded by np.matmul, which
    agrees with the slot loop to rounding.  Any other oracle, and a list
    whose blocks do not repeat, gets the one-row plan: the slot loop.
    `phases` may be None when `plan` is given for an oracle that equals its
    own adjoint, since only the slot-loop fallback reads the list.

    The slot loop, the plan's leaf, multiplies out rows of slots one
    position at a time, all rows together as a (rows, ..., 2d, 2d) stack;
    the last slot of a row takes the plain oracle and the daggers
    alternate back from it.  The first position is a row scaling: diag(g)
    times the oracle is the oracle with row i multiplied by g_i, so it
    takes a broadcast multiply and no matmul; every later position scales
    the running product's columns and multiplies it by the oracle.  The
    loop holds the row products, one work stack of the same size and the
    rotation diagonals of as many positions as fit in one oracle.  A
    qubitized oracle under the one-row plan at 2d >= _DENSE_FLOOR keeps only
    the top d rows, bit for bit the slot loop's, and writes the bottom block
    row from them: k slots give [[P, Q], [s Q^dag, -s P^dag]], s = (-1)^(k+1).
    """
    d = U.shape[-1] // 2
    pair = (U, np.swapaxes(U.conj(), -1, -2))
    if plan is None:
        plan = _plan(phases)
    if plan.folds and not np.array_equal(U, pair[1]):
        plan = _Plan(phases[None], [])
    top = qubitized and not plan.folds and 2 * d >= _DENSE_FLOOR

    def slots(rows: np.ndarray) -> np.ndarray:
        shape = (len(rows),) + (1,) * U.ndim
        ep, em = np.exp(_PLUS_MINUS_I * rows.T)  # exp(+-i phi) of every position, in one call
        first = 1 - rows.shape[1] % 2  # pair[first] opens the row, so the last slot is plain
        M = np.empty((len(rows),) + U.shape, dtype=np.complex128)
        work, opener = np.empty_like(M), pair[first]
        if top:  # (d x 2d)(2d x 2d) products from the second slot on
            M, work, opener = M[..., :d, :], work[..., :d, :], opener[..., :d, :]
        chunk = max(1, U.size // (len(rows) * 2 * d))  # positions whose diagonals fit in one oracle
        diag = np.empty((chunk,) + shape[:-1] + (2 * d,), dtype=np.complex128)
        for j0 in range(0, len(ep), chunk):
            c = min(chunk, len(ep) - j0)
            diag[:c, ..., :d] = ep[j0 : j0 + c].reshape((c,) + shape)
            diag[:c, ..., d:] = em[j0 : j0 + c].reshape((c,) + shape)
            for j, g in enumerate(diag[:c], j0):
                if j == 0:  # diag(g) times the oracle: its rows scaled by g (the top d by ep[0])
                    np.multiply(ep[0].reshape(shape) if top else np.swapaxes(g, -1, -2), opener,
                                out=work)
                else:
                    M *= g
                    np.matmul(M, pair[(j + first) % 2], out=work)
                M, work = work, M
        if top:  # M.base: the buffer the last slot wrote; T[..., i, b, j]: row i of block b
            M, T = M.base, M.reshape(M.shape[:-1] + (2, d))
            np.conjugate(np.swapaxes(T[..., ::-1, :], -1, -3), out=M[..., d:, :].reshape(T.shape))
            M[..., d:, :] *= np.repeat([1 - 2 * first, 2 * first - 1], d)  # s and -s
        return M

    return _execute(plan, slots, np.matmul)[0]


def qet_assemble(be: BlockEncoding, phases: np.ndarray) -> np.ndarray:
    """Alternating product of ancilla rotations and oracle calls.

    Slot j (1-based, leftmost first) contributes
    exp(i phase_j (2P - I)) followed by the oracle or its adjoint per the
    dagger template, so the final slot always carries the plain oracle.
    Over a general dilation the same product acts on singular values.
    A list whose blocks repeat, as every flattened sign list's do, is
    multiplied by its plan when the oracle equals its own adjoint, others
    slot by slot, over a qubitized encoding by its top block row (_phased_product).
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 1 or len(phases) == 0:
        raise InputError("phase list must be a nonempty 1-d array")
    _require_finite(phases)
    return _phased_product(be.unitary, phases, qubitized=be.qubitized)


def qet_recursive_step(be: BlockEncoding, phases: np.ndarray) -> BlockEncoding:
    """One nesting level: the assembled unitary becomes the next oracle, qubitized
    if this one is and the list is odd (even: [[P, Q], [-Q^dag, P^dag]])."""
    return _encoding(qet_assemble(be, phases), be.system_dim,
                     be.qubitized and len(phases) % 2 == 1)


def compose_phases(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Phase list realizing outer-after-inner as a single flat product.

    Each outer slot is replaced by the inner list (or its adjoint, which
    reverses and negates it).  The adjoint substitution also flips the
    sign of the rotation that follows, carried into the next junction.
    The operator is unchanged by canonicalizing, because the rotations
    are 2pi-periodic in the phase.

    The parities always close: the template ends on a plain slot, so no
    carry is left, and the substituted daggers equal the full template.
    The daggers alternate, so the adjoint slots are q % 2, q % 2 + 2, ...
    (0-based) for q outer slots.

    Row j of the (q, len(inner)) result is slot j's junction head and
    then one of two body patterns, inner[1:] or -inner[:0:-1], which
    alternate with the daggers.  Only those values are canonicalized:
    the q heads, and each pattern once.  canonicalize_angles maps every
    element on its own, so the result is bit for bit the canonicalized
    whole list.  The list is written at memory speed: the first two rows
    once, then copies of the written prefix doubling in length, then the
    heads at stride len(inner).  canonicalize_angles leaves in-range
    angles alone, so a list built from in-range phases holds exactly the
    bits of its inputs, and the adjoint pattern is the exact negation of
    the plain one.  Non-finite angles raise InputError.
    """
    outer = np.asarray(outer, dtype=np.float64)
    inner = np.asarray(inner, dtype=np.float64)
    if outer.ndim != 1 or inner.ndim != 1 or len(outer) == 0 or len(inner) == 0:
        raise InputError("phase lists must be nonempty 1-d arrays")
    _require_finite(outer)
    _require_finite(inner)
    q, L = len(outer), len(inner)
    adj = q % 2  # first adjoint slot
    carry = np.zeros(q)
    carry[adj + 1 :: 2] = -inner[0]  # every adjoint slot is followed by a plain one
    head = outer + carry
    head[1 - adj :: 2] += inner[0]
    out = np.empty(q * L)
    rows = out[: min(2, q) * L].reshape(-1, L)
    rows[adj::2, 1:] = canonicalize_angles(-inner[:0:-1])
    rows[1 - adj :: 2, 1:] = canonicalize_angles(inner[1:])
    done = len(rows) * L
    while done < len(out):
        step = min(done, len(out) - done)
        out[done : done + step] = out[:step]
        done += step
    out[::L] = canonicalize_angles(head)
    return out


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


def _check_dense_cost(products: int, dim: int) -> None:
    """Refuse a run of `products` dense products, its plans' count
    (_Plan.products), on a d = dim system when products x max(2d, 32)^3
    exceeds DENSE_BUDGET; _DENSE_FLOOR = 32, which also gates the top-row
    form of _phased_product, stands for the per-product Python overhead."""
    cost = products * max(2 * dim, _DENSE_FLOOR) ** 3
    if cost > DENSE_BUDGET:
        count = products if products < 2 ** 53 else f"2^{math.log2(products):.1f}"
        raise DomainError(f"{count} dense products at dimension {dim} cost an estimated "
                          f"2^{math.log2(cost):.1f} (products x max(2d, {_DENSE_FLOOR})^3), "
                          f"over the budget of 2^{math.log2(DENSE_BUDGET):.0f}")


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


@functools.cache
def _sign_plan(l: int, levels: int) -> _Plan:
    """_plan of flatten_sign_phases(l, levels), once per (l, levels), as read-only
    copies: the cache keeps no list alive, and every admitted plan takes 0.51 MB."""
    plan = _plan(flatten_sign_phases(l, levels))
    rows, *folds = (np.array(a) for a in (plan.rows, *plan.folds))
    for a in (rows, *folds):
        a.flags.writeable = False
    return _Plan(rows, folds)


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


@functools.cache
def distinct_angles(l: int, levels: int) -> int:
    """Distinct nonzero angles of the flattened list of `levels` nested
    steps, counted from the base list without building the flattened one.

    Proof.  compose_phases(outer, base) writes, per outer slot, a junction
    head and then a body block.  Every head equals its outer angle (up to
    one rounding) except the first, which gains base[0]; every body block
    is the base tail or its reversed negation, and both kinds occur once
    the outer list has more than one slot.  By induction, level n >= 2
    holds every value of tail and -tail, heads repeating level n - 1's
    values, and a first head of n * base[0].  base[0] is exactly 0 for
    every tabulated l, so that head is zero, and the count is that of base
    and -base together.  Level 1 is the base list; level 0 has none.
    The count depends only on (l, levels) over the fixed table, so it is
    cached: a report asks for it on every row.
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


def _run_setup(mode: str, delta: float, eps: float, l: int, levels: int | None):
    """A run's level count (`levels`, else the derived one, refused by
    _check_phase_count if negative or over MAX_PHASES), base phases and report."""
    n = sign_iterations(delta, eps, l)  # validates delta and eps even when levels overrides n
    if levels is not None:
        n = levels
    _check_phase_count(n, l)
    return n, pade_phases(l), IterationReport(mode, delta, eps, l)


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


def _check_gap(w: np.ndarray, delta: float, what: str) -> None:
    """Refuse values whose magnitude is outside [delta, 1], listing them after `what`."""
    bad = (np.abs(w) < delta - 1e-9) | (np.abs(w) > 1.0 + 1e-9)
    if bad.any():
        raise DomainError(f"{what}: " + ", ".join(f"{v:.6g}" for v in w[bad]))


def run_sign(A: np.ndarray, delta: float, eps: float, l: int = 2,
             mode: str = "recursive", levels: int | None = None):
    """Drive the sign iteration to tolerance and report per level.

    mode "recursive" nests block encodings, "flattened" rebuilds each
    level from one composed phase list, "scalar" nests the 2x2 dilations
    [[x, w], [w, -x]], w = sqrt(1 - x^2), of the eigenvalues plus a
    21-point grid, one level per step, then evaluates the flattened
    product of all n levels once at the same points.  A nested-flattened
    distance over _IDENTITY_TOL raises NumericError; the table keeps the
    nested values.  Every mode refuses runs of more than MAX_PHASES
    queries.  Flattened mode charges every level's plan before any product
    is formed and refuses a run whose plans' products together exceed
    DENSE_BUDGET.  A row's wall_time_ms covers the level's construction
    (its product, or one nested step), not its plan, its error check nor
    scalar mode's final flattened check.

    Sign-list plans come from _sign_plan, made once per (l, n) and cached
    read-only: flattened levels run them over the dilation, which equals
    its own adjoint, and scalar mode's check runs one through plan_chain,
    so after the first run at (l, n) neither builds nor plans a list.

    Returns (result, report): the result is a BlockEncoding of the final
    iterate for matrix modes and a ScalarSignTable for scalar mode.
    """
    if mode not in ("recursive", "flattened", "scalar"):
        raise InputError(f"unknown mode {mode!r}")
    A = require_hermitian(A)
    spectrum = hermitian_eig(A)  # shared by the gap check, the target and the dilation
    w = spectrum.eigenvalues
    _check_gap(w, delta, "eigenvalues outside +-[delta, 1]")
    n, base, report = _run_setup(mode, delta, eps, l, levels)
    if mode == "flattened":  # every level's plan, made and charged before any product
        _check_dense_cost(sum(_sign_plan(l, k).products for k in range(1, n + 1)), A.shape[0])
    if mode == "scalar":
        pts = np.unique(np.concatenate((scalar_grid(delta), w)))
    target = _sign_of(spectrum)

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
        # reflection_upper_left's checks, less the scan of a list built from checked phases
        _require_signal_points(pts)
        distance = float(np.abs(plan_chain(_sign_plan(l, n), pts) - vals).max())
        if distance > _IDENTITY_TOL:
            raise NumericError(f"nested and flattened products differ by {distance:.3e} "
                               f"at n = {n}, over {_IDENTITY_TOL:.0e}")
        return ScalarSignTable(pts, vals, distance), report

    be0 = be = _dilate_spectrum(A, spectrum)
    for k in range(1, n + 1):
        t0 = time.perf_counter()
        if mode == "recursive":
            be = qet_recursive_step(be, base)
        else:
            be = BlockEncoding(_phased_product(be0.unitary, None, _sign_plan(l, k)), be0.system_dim)
        ms = (time.perf_counter() - t0) * 1e3
        report.add(k, operator_norm(extract(be) - target), ms)
    return be, report
