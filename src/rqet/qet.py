"""Recursive eigenvalue transformation for the matrix sign function.

One level applies the degree-(2l+1) sign-iteration polynomial to every
eigenvalue of an encoded Hermitian matrix through a phased product of
oracle calls.  Levels nest: the output unitary of one level is the
oracle of the next, so n levels realize the n-fold composite while the
phase list can equally be flattened into a single product up front.
Sign runs in three modes (recursive, flattened, scalar) and polar runs
share one level loop (_nest); tests and the acceptance suite hold the modes to agree.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _execute, _Plan, _plan, plan_chain
from .blockenc import BlockEncoding, _blocks, _dilate_spectrum, _encoding, extract
from .errors import DomainError, InputError, NumericError
from .linalg import _sign_of, hermitian_eig, operator_norm, require_square, require_unit_norm
from .qsp import _IDENTITY_TOL, _require_finite, canonicalize_angles, pade_phases

_ANGLE_TOL = 1e-9
MAX_PHASES = 5 ** 10  # most queries of any run; longest list built: 78 MB of float64
_PLUS_MINUS_I = np.array([1j, -1j])
_DENSE_FLOOR = 32  # dilation size 2d below which a product costs about its Python overhead
DENSE_BUDGET = 2 ** 32  # products x max(2d, _DENSE_FLOOR)^3: under 1 s of d = 64 ones, one core


def _phased_product(U: np.ndarray, plan: _Plan, qubitized: bool = False) -> np.ndarray:
    """qet_assemble's product of the list `plan` is of, on a stack of oracles
    of shape (..., 2d, 2d), one product per leading index, by broadcast
    matmul.  No checks: a plan with folds, whose np.matmul folds agree with
    the slot loop to rounding, is only for an oracle equal to its own adjoint.

    The slot loop, the plan's leaf, multiplies out rows of slots one
    position at a time, all rows together as a (rows, ..., 2d, 2d) stack;
    the last slot of a row takes the plain oracle and the daggers alternate
    back from it.  Each position's factors exp(+-i phi) are formed once per
    call as one (rows, 1..., 2d) row.  The first position reads it as a
    column: diag(g) times the oracle is the oracle with row i multiplied by
    g_i, a broadcast multiply and no matmul.  Every later one scales the
    running product's columns by its row and then multiplies by the oracle,
    the factor left of the oracle and right of the running product, as in
    the slot loop: numpy's complex multiply is not bitwise commutative.  A
    qubitized oracle under the one-row plan at 2d >= _DENSE_FLOOR keeps only
    the top d rows [P, Q], bit for bit the slot loop's, and _blocks writes
    the whole product from those two blocks: k slots give
    [[P, Q], [s Q^dag, -s P^dag]], s = (-1)^(k+1).
    """
    d = U.shape[-1] // 2
    pair = (U, np.swapaxes(U.conj(), -1, -2))
    top = qubitized and not plan.folds and 2 * d >= _DENSE_FLOOR

    def slots(rows: np.ndarray) -> np.ndarray:
        phi = rows.T.reshape(rows.shape[::-1] + (1,) * U.ndim)  # (positions, rows, 1..., 1)
        f = np.repeat(np.exp(phi * _PLUS_MINUS_I), d, axis=-1)  # f[j]: position j's factor row
        first = 1 - rows.shape[1] % 2  # pair[first] opens the row, so the last slot is plain
        n = d if top else 2 * d  # rows formed; top: (d x 2d)(2d x 2d) products
        M = f[0, ..., 0, :n, None] * pair[first][..., :n, :]  # the opener's rows scaled by g
        for j in range(1, len(f)):
            M = np.matmul(M * f[j], pair[(j + first) % 2])
        if top:  # the top row's blocks P, Q write the bottom row [s Q^dag, -s P^dag]
            P, Q, s = M[..., :d], M[..., d:], 1 - 2 * first
            M = _blocks(P, Q, s * np.swapaxes(Q.conj(), -1, -2), -s * np.swapaxes(P.conj(), -1, -2))
        return M

    return _execute(plan, slots, np.matmul)[0]


def qet_assemble(be: BlockEncoding, phases: np.ndarray) -> np.ndarray:
    """Alternating product of ancilla rotations and oracle calls.

    Slot j (1-based, leftmost first) contributes
    exp(i phase_j (2P - I)) followed by the oracle or its adjoint per the
    dagger template, so the final slot always carries the plain oracle.
    Over a general dilation the same product acts on singular values.
    The list is multiplied by its plan (_kernels._plan) when the oracle
    equals its own adjoint, as every Hermitian dilation does: a slot's
    product then does not depend on its dagger, so each distinct block is
    multiplied once.  Any other oracle, and a list whose blocks do not
    repeat, gets the one-row plan: the slot loop, over a qubitized encoding
    by its top block row (_phased_product).  A stack's k products are each bit
    for bit its own call's, folded only when every oracle is its own adjoint.
    """
    return _assemble(be, phases)


def _assemble(be: BlockEncoding, phases: np.ndarray) -> np.ndarray:
    """qet_assemble, for qet_recursive_step's stacks: perfbench's tracer reads its results as 2-d."""
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 1 or len(phases) == 0:
        raise InputError("phase list must be a nonempty 1-d array")
    _require_finite(phases)
    plan, U = _plan(phases), be.unitary
    if plan.folds and not np.array_equal(U, np.swapaxes(U.conj(), -1, -2)):
        plan = _Plan(phases[None], [])
    return _phased_product(U, plan, be.qubitized)


def qet_recursive_step(be: BlockEncoding, phases: np.ndarray) -> BlockEncoding:
    """One nesting level, of an encoding or a stack: the assembled unitary becomes the next
    oracle, qubitized if this one is and the list is odd (even: [[P, Q], [-Q^dag, P^dag]])."""
    U = (qet_assemble if be.unitary.ndim == 2 else _assemble)(be, phases)
    return _encoding(U, be.qubitized and len(phases) % 2 == 1)


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
    whole list.  The rows are written as one (q, len(inner)) array: the
    two body patterns at stride 2, the heads in column 0, then raveled.
    canonicalize_angles leaves in-range angles alone, so a list built from
    in-range phases holds exactly the bits of its inputs, and the adjoint
    pattern is the exact negation of the plain one.  Non-finite angles
    raise InputError.
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
    out = np.empty((q, L))
    out[adj::2, 1:] = canonicalize_angles(-inner[:0:-1])
    out[1 - adj :: 2, 1:] = canonicalize_angles(inner[1:])
    out[:, 0] = canonicalize_angles(head)
    return out.ravel()


def _check_phase_count(levels: int, l: int) -> None:
    """Refuse a run of more than MAX_PHASES oracle queries, (2l+1)^levels.

    This caps the queries of every run as well as the length of any
    flattened list that is built.  The count is formed exactly only below
    float64's exact integers (2^53); past them it is compared and stated in
    logarithms, so no level count takes long to refuse or overflows the message.
    """
    bits = levels * math.log2(2 * l + 1)
    if bits < 53:  # query_count refuses a negative level count
        count = query_count(levels, l)
        if count <= MAX_PHASES:
            return
        need = f"{count} phases (~{8 * count / 1e6:,.0f} MB"
    else:
        need = f"{2 * l + 1}^{levels} phases (~2^{bits + 3 - math.log2(1e6):.1f} MB"
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


def sign_iterations(delta: float, eps: float, l: int = 2) -> int:
    """Levels needed to push every eigenvalue in +-[delta, 1] within eps of +-1.

    Ceiling of the base-(l+1) logarithm of delta^-2 ln(1/eps), floored at
    zero: one level cubes (l=1 case) or better the deviation exponent, so
    the requirement compounds double-exponentially.  It is taken in
    logarithms, so no gap underflows delta^2 and no tolerance overflows 1/eps.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("spectral gap must lie strictly between 0 and 1")
    if eps <= 0.0:
        raise DomainError("tolerance must be positive")
    if not math.isfinite(eps):
        raise DomainError(f"tolerance must be finite, got {eps}")
    if l < 1:
        raise DomainError("polynomial index must be a positive integer")
    if eps >= 1.0:  # ln(1/eps) <= 0: every eigenvalue is already within eps
        return 0
    return max(0, math.ceil((math.log(-math.log(eps)) - 2.0 * math.log(delta)) / math.log(l + 1)))


def _run_setup(delta: float, eps: float, l: int, levels: int | None, runs: int = 1):
    """A run's level count (`levels`, else the derived one, refused by
    _check_phase_count if negative or over MAX_PHASES), base phases and `runs` reports."""
    n = sign_iterations(delta, eps, l)  # validates delta and eps even when levels overrides n
    if levels is not None:
        n = levels
    _check_phase_count(n, l)
    return n, pade_phases(l), [IterationReport(delta, eps, l) for _ in range(runs)]


def query_count(levels: int, l: int = 2) -> int:
    """Oracle calls made by `levels` nested degree-(2l+1) steps."""
    if levels < 0:
        raise InputError("levels must be nonnegative")
    return (2 * l + 1) ** levels


def error_bound(delta: float, levels: int, l: int = 2) -> float:
    """(1 - delta^2) to the (l+1)^levels: worst-case sign deviation.  Past
    2^1000 the exponent is taken as inf, which gives the value the exact power
    would (0.0, or 1.0 when delta^2 rounds to 0) without overflowing a float."""
    power = (l + 1) ** levels if levels * math.log2(l + 1) <= 1000 else math.inf
    return (1.0 - delta * delta) ** power


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
    """Per-level convergence table shared by the sign and polar runs (rows from _nest)."""

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
    """Refuse values past 1 (require_unit_norm), then list those under delta after `what`, by row."""
    for v in np.atleast_2d(w):
        require_unit_norm(v)
        if (bad := np.abs(v) < delta - 1e-9).any():
            raise DomainError(f"{what}: " + ", ".join(f"{x:.6g}" for x in v[bad]))


def _nest(U, n: int, reports: list[IterationReport], step, probe, errors_of):
    """The one nested-level loop of every run: U = step(U, k) for k = 1..n, keeping probe(U)
    of each level (of U itself when n = 0).  After the last step, one errors_of call on a new
    stack of the probes, free to overwrite, gives each report its rows (k, error, the step's
    time alone), or (0, error, 0 ms) when n = 0.  U is scalar mode's (points, 2, 2) stack or
    an encoding, with a report per member of a stack (same times); the last U is returned."""
    kept, ms = ([probe(U)], [0.0]) if n == 0 else ([], [])
    for k in range(1, n + 1):
        t0 = time.perf_counter()
        U = step(U, k)
        ms.append((time.perf_counter() - t0) * 1e3)
        kept.append(probe(U))
    errors = np.reshape(errors_of(np.stack(kept)), (len(kept), len(reports)))
    for k, row, t in zip(range(1 if n else 0, n + 1), errors, ms):
        for report, error in zip(reports, row):
            report.add(k, float(error), t)
    return U


def run_sign(A: np.ndarray, delta: float, eps: float, l: int = 2,
             mode: str = "recursive", levels: int | None = None):
    """Drive the sign iteration to tolerance and report per level.

    mode "recursive" nests block encodings, "flattened" rebuilds each
    level from one composed phase list, "scalar" nests the 2x2 dilations
    [[x, c], [c, -x]], c = sqrt(1 - x^2), of the eigenvalues plus a
    21-point grid, then, if n > 0, evaluates the flattened product of all
    n levels once at the same points.  A nested-flattened distance over
    _IDENTITY_TOL raises NumericError; the table keeps the nested values.
    Every mode refuses runs of more than MAX_PHASES queries.  Flattened
    mode charges every level's plan before any product is formed and
    refuses a run whose plans' products together exceed DENSE_BUDGET.
    Levels run in _nest, so row 0 of a zero-level run measures the points
    or block every later row does, and a row's wall_time_ms covers only
    its level's step (a nested step or a flattened level's product), not
    its plan, its error check nor scalar mode's final flattened check.

    Sign-list plans come from _sign_plan, made once per (l, n) and cached
    read-only: flattened levels run them over the dilation, which equals
    its own adjoint, and scalar mode's check runs one through plan_chain,
    so after the first run at (l, n) neither builds nor plans a list.

    Returns (result, report): the result is a BlockEncoding of the final
    iterate for matrix modes and a ScalarSignTable for scalar mode.  A matrix mode
    runs a (k, d, d) stack as one, each member bit for bit its own run and checked
    in turn: the result encodes the stack, and the report is a list of k.
    """
    if mode not in ("recursive", "flattened", "scalar"):
        raise InputError(f"unknown mode {mode!r}")
    spectrum = hermitian_eig(require_square(A) if mode == "scalar" else A)  # checks A; shared
    A = np.asarray(A, dtype=np.complex128)
    w = spectrum.eigenvalues
    _check_gap(w, delta, "eigenvalues outside +-[delta, 1]")
    n, base, reports = _run_setup(delta, eps, l, levels, len(np.atleast_2d(w)))
    if mode == "flattened":  # every level's plan, made and charged before any product, per member
        products = sum(_sign_plan(l, k).products for k in range(1, n + 1))
        _check_dense_cost(len(reports) * products, A.shape[-1])
    if mode == "scalar":
        pts = np.unique(np.concatenate((scalar_grid(delta), w)))  # in [-1, 1] by _check_gap
        x, c = pts[:, None, None], np.sqrt(np.maximum(0.0, 1.0 - pts * pts))[:, None, None]
        U = _blocks(x, c, c, -x)  # (points, 1, 1) blocks: each point's 2x2 [[x, c], [c, -x]]
        one_row = _Plan(base[None], [])  # nested stacks are not their own adjoint
        U = _nest(U, n, reports, lambda U, k: _phased_product(U, one_row), lambda U: U[:, 0, 0],
                  lambda V: np.abs(V - np.sign(pts)).max(axis=-1))
        vals, distance = U[:, 0, 0].copy(), None
        if n:  # reflection_upper_left less its checks: points above, phases tabulated
            distance = float(np.abs(plan_chain(_sign_plan(l, n), pts) - vals).max())
            if distance > _IDENTITY_TOL:
                raise NumericError(f"nested and flattened products differ by {distance:.3e} "
                                   f"at n = {n}, over {_IDENTITY_TOL:.0e}")
        return ScalarSignTable(pts, vals, distance), reports[0]

    target = _sign_of(spectrum)
    be0 = _dilate_spectrum(A, spectrum)

    def step(be, k):  # flattened: every level from be0, so the be passed in goes unused
        if mode == "recursive":
            return qet_recursive_step(be, base)
        return BlockEncoding(_phased_product(be0.unitary, _sign_plan(l, k)))
    U = _nest(be0, n, reports, step, extract, lambda X: operator_norm(np.subtract(X, target, out=X)))
    return U, reports if A.ndim == 3 else reports[0]
