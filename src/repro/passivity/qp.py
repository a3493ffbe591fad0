"""Convex QP solver for the passivity-enforcement subproblem (paper eq. 9).

The subproblem is

    minimize   1/2 x^T H x     subject to   F x <= g ,

with H block-diagonal SPD (a :class:`BlockDiagonalCost`) and usually far
fewer *active* constraints than total constraints.  Strong duality holds,
and the dual is a non-negative quadratic program

    minimize_{lambda >= 0}  1/2 lambda^T (F H^-1 F^T) lambda + g^T lambda

whose exact solution recovers the primal as x = -H^-1 F^T lambda.  This
replaces the commercial SOCP solver used by the paper (no external
optimizers are available offline); for this problem class the two are
equivalent since the SOCP's conic objective is exactly the quadratic form
minimized here.

On realistic port counts the constraint count n_c reaches thousands while
the active set stays small, and forming the dense dual Gram
M = F H^-1 F^T (n_c^2 entries, each a length-P^2*N dot product) used to
dominate the entire enforcement run.  The fast path exploits two
structures instead:

* every linearized row of eq. (8) is a rank-2 tensor
  ``f_i = Re(w_i (x) k_i) = Re(w_i) (x) Re(k_i) - Im(w_i) (x) Im(k_i)``
  with the port factor ``w_i = conj(u_i) outer conj(v_i)`` and the
  shared element kernel ``k_i = k(omega_i)`` in C^N, so Gram entries,
  primal slacks and H^-1 F^T products all collapse to port- and
  N-dimensional contractions (:class:`_StructuredOps`).  Reciprocal
  models keep the port factor on the P(P+1)/2 upper-triangle pairs
  (off-diagonal pairs count twice in dot products; the primal writes
  (a, b) and (b, a) alike, so every step is exactly symmetric);
* the dual is solved on a small working set of constraints (the rows
  most violated at x = 0, grown each round by those the last solution
  violates most, in one preallocated Gram) by a Lawson-Hanson active-set
  iteration that up/downdates a Cholesky factor of the active Gram; a
  structured pass over all rows then verifies global feasibility.  On
  exit every row outside the set is satisfied with zero multiplier, so
  the restricted KKT point is the global optimum.

The dense route (explicit M + scipy NNLS, the pre-engine code path)
remains both as the fallback and as the solver for per-element
(non-shared) costs, whose H^-1 does not factor over the tensor structure.

Every ``H^-1`` application -- the Cholesky solves behind
:class:`_StructuredOps`'s kernel tables and the primal recovery -- goes
through :meth:`BlockDiagonalCost.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from repro.obs import telemetry as obs
from repro.passivity.cost import BlockDiagonalCost
from repro.passivity.perturbation import ConstraintSet
from repro.resilience import faultinject
from repro.resilience.errors import QPInfeasibleError
from repro.util.logging import get_logger

_LOG = get_logger(__name__)

#: Ladder of structured-solver retunings tried before the dense route:
#: (ridge multiplier, seed_cap, grow_cap, max_rounds).  A Lawson-Hanson
#: stall is almost always conditioning -- a stiffer Tikhonov ridge on the
#: dual Gram plus a smaller working set converges where the well-
#: conditioned tuning cycles.
_STRUCTURED_RUNGS = (
    (1.0, 256, 128, 32),
    (1e4, 128, 128, 32),
    (1e8, 64, 64, 32),
)


@dataclass(frozen=True)
class QPSolution:
    """Solution of the enforcement QP.

    ``delta_c`` has shape (P, P, N); ``cost`` is the achieved quadratic
    value; ``max_violation`` is the worst remaining linearized constraint
    violation (should be ~0 for a feasible solve).  The last of ``rounds``
    dual solves ran on ``working_set`` rows (all, on the dense route).
    """

    delta_c: np.ndarray
    cost: float
    max_violation: float
    dual: np.ndarray
    working_set: int = 0
    rounds: int = 0


def _dual_nnls_dense(
    f: np.ndarray, y: np.ndarray, g: np.ndarray, ridge: float
) -> np.ndarray:
    """Dense route: form M = F Y, Cholesky-rewrite, scipy NNLS."""
    m = f @ y
    m = 0.5 * (m + m.T)
    m_reg = m + ridge * np.eye(m.shape[0])
    r = scipy.linalg.cholesky(m_reg, lower=False, check_finite=False)
    # min_lambda>=0 1/2 l^T M l + g^T l  ==  min ||R l + R^-T g||^2 / 2
    rhs = scipy.linalg.solve_triangular(
        r, -g, trans="T", lower=False, check_finite=False
    )
    lam, _ = scipy.optimize.nnls(r, rhs)
    return lam


def _cholesky_append(r: np.ndarray, column: np.ndarray, diagonal: float) -> np.ndarray:
    """Extend the upper factor ``r`` of A to that of [[A, c], [c^T, d]]."""
    s = scipy.linalg.solve_triangular(r, column, trans="T", check_finite=False)
    pivot = diagonal - float(s @ s)
    if not pivot > 0.0:
        raise np.linalg.LinAlgError("extended matrix is not numerically PD")
    return np.block([[r, s[:, None]], [np.zeros((1, s.size)), np.sqrt(pivot)]])


def _cholesky_delete(r: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Factor of A without rows/columns ``positions`` (Givens downdate)."""
    for i in positions[::-1]:
        k = r.shape[0]
        _, r = scipy.linalg.qr_delete(
            np.eye(k), r, int(i), which="col", check_finite=False
        )
        r = r[: k - 1]
    return r


def _nnls_gram(
    m: np.ndarray, q: np.ndarray, warm: np.ndarray | None = None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Lawson-Hanson NNLS for min 1/2 l^T M l + q^T l, l >= 0, with an
    explicit (small, possibly very ill-conditioned) symmetric PSD Gram
    ``m``.

    The enforcement dual is massively degenerate -- thousands of nearly
    parallel constraint rows make M numerically rank-deficient -- which the
    classic single-addition active-set rule with feasibility line searches
    tolerates (unlike block-pivoting schemes, which need a P-matrix).
    Returns ``(lam, active_mask)`` or ``(None, None)`` on iteration-cap
    overflow.  ``warm`` optionally seeds the active set.

    An upper Cholesky factor of M[active, active] is extended when an
    index joins and downdated when indices leave; an active Gram that is
    not numerically PD counts as a stall (the caller retries cold, then
    with a stiffer ridge).  The gradient uses the active (contiguous) rows
    of ``m``.
    """
    n = q.size
    gtol = 1e-10 * max(1.0, float(np.max(np.abs(q))) if n else 1.0)
    lam = np.zeros(n)
    active: list[int] = []
    in_active = np.zeros(n, dtype=bool)
    lam_active = np.zeros(0)
    grad = q.copy()
    factor = np.zeros((0, 0))
    max_iter = 5 * n + 100
    outer = 0
    pending_inner = False
    if warm is not None and warm.size == n and warm.any():
        active = [int(i) for i in np.nonzero(warm)[0]]
        in_active[active] = True
        try:
            factor = scipy.linalg.cholesky(m[np.ix_(active, active)], check_finite=False)
        except np.linalg.LinAlgError:
            return None, None
        lam_active = np.zeros(len(active))
        pending_inner = True  # clean the warm set before trusting it

    while outer < max_iter:
        outer += 1
        if not pending_inner:
            w = -grad
            w[in_active] = -np.inf
            j = int(np.argmax(w)) if n else 0
            if n == 0 or w[j] <= gtol:
                return lam, in_active  # KKT satisfied: optimal
            try:
                factor = _cholesky_append(factor, m[j, active], m[j, j])
            except np.linalg.LinAlgError:
                return None, None
            active.append(j)
            in_active[j] = True
            lam_active = np.append(lam_active, 0.0)
        pending_inner = False

        for _inner in range(max_iter):
            z = scipy.linalg.cho_solve((factor, False), -q[active], check_finite=False)
            if z.size and np.min(z) > 0.0:
                lam_active = z
                break
            # Feasibility line search toward z, then drop zeroed indices.
            mask = z <= 0.0
            denom = lam_active[mask] - z[mask]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(denom > 0.0, lam_active[mask] / denom, 0.0)
            alpha = float(np.min(steps)) if steps.size else 0.0
            lam_active = lam_active + alpha * (z - lam_active)
            keep = lam_active > 1e-14 * max(
                1.0, float(np.max(lam_active)) if lam_active.size else 1.0
            )
            if not np.any(keep) and keep.size:
                keep[-1] = True  # never empty the set entirely
                lam_active[-1] = max(lam_active[-1], 0.0)
            if np.all(keep):
                lam_active = np.maximum(z, 0.0)  # roundoff: accept clipped
                break
            for i, flag in enumerate(keep):
                if not flag:
                    in_active[active[i]] = False
            active = [a for a, flag in zip(active, keep) if flag]
            lam_active = lam_active[keep]
            factor = _cholesky_delete(factor, np.nonzero(~keep)[0])
        else:
            return None, None

        lam[:] = 0.0
        lam[active] = lam_active
        grad = lam_active @ m[active] + q
    return None, None


class _StructuredOps:
    """Factor-space contractions for structured constraint sets.

    Valid only for shared-block costs, where ``H^-1 = I_{P^2} (x) G^-1``
    factors over the ``w (x) k`` tensor structure of the constraint rows:

        f_i^T H^-1 f_j =   (wr_i . wr_j) (kr_i^T G^-1 kr_j)
                         - (wr_i . wi_j) (kr_i^T G^-1 ki_j)
                         - (wi_i . wr_j) (ki_i^T G^-1 kr_j)
                         + (wi_i . wi_j) (ki_i^T G^-1 ki_j)

    with the kernel tables precomputed once per QP over the (few hundred)
    distinct frequencies.  Port dot products run over the set's factor
    columns weighted by multiplicity; a perturbation is held on the same
    columns as an (n_cols, N) array.
    """

    def __init__(
        self, cost: BlockDiagonalCost, constraints: ConstraintSet
    ) -> None:
        self._cost = cost
        self.bounds = constraints.bounds
        self.wr = constraints.w_re
        self.wi = constraints.w_im
        self.fi = constraints.freq_index
        self.mult = np.bincount(constraints.port_map.ravel()).astype(float)
        kr = constraints.kernels.real  # (K, N)
        ki = constraints.kernels.imag
        self._kr = kr
        self._ki = ki
        self._kr_rows = kr[self.fi]  # (n_c, N)
        self._ki_rows = ki[self.fi]
        k = kr.shape[0]
        solved = cost.solve(0, 0, np.vstack([kr, ki]).T)  # (N, 2K)
        self.t_rr = kr @ solved[:, :k]
        self.t_ri = kr @ solved[:, k:]
        self.t_ir = ki @ solved[:, :k]
        self.t_ii = ki @ solved[:, k:]

    def gram(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Dual Gram submatrix M[rows_a, rows_b] (without ridge)."""
        wr_a, wi_a = self.wr[rows_a] * self.mult, self.wi[rows_a] * self.mult
        wr_b, wi_b = self.wr[rows_b], self.wi[rows_b]
        sel = np.ix_(self.fi[rows_a], self.fi[rows_b])
        return (
            (wr_a @ wr_b.T) * self.t_rr[sel]
            - (wr_a @ wi_b.T) * self.t_ri[sel]
            - (wi_a @ wr_b.T) * self.t_ir[sel]
            + (wi_a @ wi_b.T) * self.t_ii[sel]
        )

    def gram_diag(self) -> np.ndarray:
        """diag(M) over all rows (for the relative ridge scale)."""
        f = self.fi
        wr_m, wi_m = self.wr * self.mult, self.wi * self.mult
        return (
            np.einsum("ij,ij->i", wr_m, self.wr) * self.t_rr[f, f]
            - 2.0 * np.einsum("ij,ij->i", wr_m, self.wi) * self.t_ri[f, f]
            + np.einsum("ij,ij->i", wi_m, self.wi) * self.t_ii[f, f]
        )

    def primal(self, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """x = -H^-1 F[rows]^T lam on the factor columns, (n_cols, N)."""
        used = lam > 0.0
        rows, lam = rows[used], lam[used, None]
        ft = (lam * self.wr[rows]).T @ self._kr_rows[rows] - (
            lam * self.wi[rows]
        ).T @ self._ki_rows[rows]
        return -self._cost.solve(0, 0, ft.T).T

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """F x - g over *all* rows in one factor-space pass."""
        xm = x * self.mult[:, None]
        fx = np.einsum("ij,ij->i", self.wr @ xm, self._kr_rows) - np.einsum(
            "ij,ij->i", self.wi @ xm, self._ki_rows
        )
        return fx - self.bounds


def _solve_structured(
    cost: BlockDiagonalCost,
    constraints: ConstraintSet,
    dual_ridge: float,
    *,
    seed_cap: int,
    grow_cap: int,
    max_rounds: int,
) -> tuple[np.ndarray, np.ndarray, float, int, int] | None:
    """Working-set dual solve in factor space.

    Returns ``(lam, x, max_violation, working_set, rounds)``, with ``x``
    on the factor columns, or ``None`` when the round/pivot caps are hit
    (the caller falls back to the dense route).
    """
    if faultinject.check("qp.structured") == "stall":
        return None
    ops = _StructuredOps(cost, constraints)
    g = constraints.bounds
    n_c = g.size
    ridge = dual_ridge * max(float(np.mean(ops.gram_diag())), 1e-300)
    # Constraints violated by less than this are considered satisfied;
    # far below the enforcement margin, so the verdict is unaffected.
    tol = 1e-8 * max(1.0, float(np.max(np.abs(g))))
    lam = np.zeros(n_c)
    fresh = np.nonzero(g < 0.0)[0]
    if fresh.size == 0:
        # x = 0 is feasible and optimal.
        return lam, np.zeros((ops.wr.shape[1], ops._kr.shape[1])), 0.0, 0, 0
    if fresh.size > seed_cap:
        fresh = fresh[np.argsort(g[fresh])[:seed_cap]]
    # One buffer, sized for the largest set the caps allow, holds the
    # working-set Gram; each round fills in only the fresh rows' border.
    m_buf = np.empty((min(n_c, seed_cap + max_rounds * grow_cap),) * 2)
    work = np.zeros(0, dtype=np.intp)
    warm: np.ndarray | None = None
    for rounds in range(1, max_rounds + 1):
        w, size = work.size, work.size + fresh.size
        corner = ops.gram(fresh, fresh)
        m_buf[w:size, w:size] = 0.5 * (corner + corner.T)
        m_buf[range(w, size), range(w, size)] += ridge
        m_buf[:w, w:size] = ops.gram(work, fresh)
        m_buf[w:size, :w] = m_buf[:w, w:size].T
        work = np.concatenate([work, fresh])
        lam_w, free = _nnls_gram(m_buf[:size, :size], g[work], warm)
        if lam_w is None and warm is not None:
            # Warm starts occasionally stall the active set; retry cold.
            lam_w, free = _nnls_gram(m_buf[:size, :size], g[work], None)
        if lam_w is None:
            return None
        x = ops.primal(work, lam_w)
        slack = ops.slacks(x)
        violation = float(np.max(slack))
        slack[work] = -np.inf  # handled exactly by the subproblem
        fresh = np.nonzero(slack > tol)[0]
        if fresh.size == 0:
            lam[work] = lam_w
            return lam, x, max(violation, 0.0), work.size, rounds
        if fresh.size > grow_cap:
            fresh = fresh[np.argsort(-slack[fresh])[:grow_cap]]
        warm = np.concatenate([free, np.zeros(fresh.size, dtype=bool)])
    return None


def solve_block_qp(
    cost: BlockDiagonalCost,
    constraints: ConstraintSet,
    *,
    dual_ridge: float = 1e-12,
) -> QPSolution:
    """Solve min 1/2 x^T H x s.t. F x <= g via the dual NNLS route."""
    p, n = cost.n_ports, cost.n_states
    if constraints.n_constraints == 0:
        return QPSolution(
            delta_c=np.zeros((p, p, n)),
            cost=0.0,
            max_violation=0.0,
            dual=np.zeros(0),
        )
    if cost.shared and constraints.structured:
        # Fallback ladder: the nominal tuning first, then progressively
        # stiffer Tikhonov ridges on shrinking working sets before
        # conceding to the dense route.
        for rung, (ridge_mult, seed_cap, grow_cap, max_rounds) in enumerate(
            _STRUCTURED_RUNGS
        ):
            if rung > 0:
                obs.incr("fallback.qp_regularized")
                _LOG.warning(
                    "solve_block_qp: structured solve stalled; retrying "
                    "with ridge x%g", ridge_mult,
                )
            structured = _solve_structured(
                cost,
                constraints,
                max(dual_ridge * ridge_mult, 1e-12),
                seed_cap=seed_cap,
                grow_cap=grow_cap,
                max_rounds=max_rounds,
            )
            if structured is None:
                continue
            lam, x, violation, working_set, rounds = structured
            if not np.isfinite(x).all():
                continue
            delta_c = x[constraints.port_map]
            return QPSolution(
                delta_c=delta_c,
                cost=0.5 * cost.quadratic_value(delta_c),
                max_violation=violation,
                dual=lam,
                working_set=working_set,
                rounds=rounds,
            )
        obs.incr("fallback.qp_dense")
        _LOG.warning(
            "solve_block_qp: structured ladder exhausted; using the "
            "dense dual route"
        )
    try:
        f = constraints.dense_matrix()
        g = constraints.bounds
        y = cost.solve_flat(f.T)  # H^-1 F^T
        # dual_ridge is relative to the mean diagonal of M.
        diag = np.einsum("ij,ji->i", f, y)
        scale = max(float(np.mean(diag)), 1e-300)
        lam = _dual_nnls_dense(f, y, g, dual_ridge * scale)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        raise QPInfeasibleError(
            f"dense dual QP solve failed: {exc}", stage="enforcement"
        ) from exc
    x = -(y @ lam)
    if not np.isfinite(x).all():
        raise QPInfeasibleError(
            "dense dual QP produced a non-finite perturbation",
            stage="enforcement",
        )
    delta_c = x.reshape(p, p, n)
    violation = float(np.max(f @ x - g)) if g.size else 0.0
    return QPSolution(
        delta_c=delta_c,
        cost=0.5 * cost.quadratic_value(delta_c),
        max_violation=max(violation, 0.0),
        dual=lam,
        working_set=g.size,
        rounds=1,
    )
