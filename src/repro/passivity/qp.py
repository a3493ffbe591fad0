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
  with ``w_i = conj(u_i) outer conj(v_i)`` in C^(P^2) and the shared
  element kernel ``k_i = k(omega_i)`` in C^N, so Gram entries, primal
  slacks and H^-1 F^T products all collapse to P^2- and N-dimensional
  contractions (:class:`_StructuredOps`) -- the (n_c x P^2 N) matrix is
  never swept;
* the dual is solved on a small working set of constraints (seeded with
  the rows violated at x = 0) by a Lawson-Hanson active-set iteration on
  the explicitly-formed working Gram, then a single structured pass over
  all rows verifies global feasibility and pulls any violated
  constraints into the working set.  On exit every constraint outside
  the set is satisfied with zero multiplier, so the restricted KKT point
  is the global optimum.

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
    (1.0, 512, 1024, 32),
    (1e4, 256, 512, 24),
    (1e8, 128, 256, 16),
)


@dataclass(frozen=True)
class QPSolution:
    """Solution of the enforcement QP.

    ``delta_c`` has shape (P, P, N); ``cost`` is the achieved quadratic
    value; ``max_violation`` is the worst remaining linearized constraint
    violation (should be ~0 for a feasible solve).
    """

    delta_c: np.ndarray
    cost: float
    max_violation: float
    dual: np.ndarray


def _solve_h_inv_ft(
    cost: BlockDiagonalCost, constraints: ConstraintSet
) -> np.ndarray:
    """Compute Y = H^-1 F^T exploiting the block structure; (P*P*N, n_c).

    One batched solve over all constraints and blocks at once (a single
    Cholesky solve in the shared-block case).
    """
    return cost.solve_flat(constraints.dense_matrix().T)


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


def _nnls_gram(
    m: np.ndarray, q: np.ndarray, warm: np.ndarray | None = None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Lawson-Hanson NNLS for min 1/2 l^T M l + q^T l, l >= 0, with an
    explicit (small, possibly very ill-conditioned) PSD Gram ``m``.

    The enforcement dual is massively degenerate -- thousands of nearly
    parallel constraint rows make M numerically rank-deficient -- which the
    classic single-addition active-set rule with feasibility line searches
    tolerates (unlike block-pivoting schemes, which need a P-matrix).
    Returns ``(lam, active_mask)`` or ``(None, None)`` on iteration-cap
    overflow.  ``warm`` optionally seeds the active set.
    """
    n = q.size
    gtol = 1e-10 * max(1.0, float(np.max(np.abs(q))) if n else 1.0)
    lam = np.zeros(n)
    active: list[int] = []
    in_active = np.zeros(n, dtype=bool)
    lam_active = np.zeros(0)
    grad = q.copy()

    def _solve_active() -> np.ndarray:
        sub = m[np.ix_(active, active)]
        try:
            return scipy.linalg.solve(
                sub, -q[active], assume_a="pos", check_finite=False
            )
        except (scipy.linalg.LinAlgError, ValueError):
            return np.linalg.lstsq(sub, -q[active], rcond=None)[0]

    max_iter = 5 * n + 100
    outer = 0
    pending_inner = False
    if warm is not None and warm.size == n and warm.any():
        active = [int(i) for i in np.nonzero(warm)[0]]
        in_active[active] = True
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
            active.append(j)
            in_active[j] = True
            lam_active = np.append(lam_active, 0.0)
        pending_inner = False

        for _inner in range(max_iter):
            z = _solve_active()
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
        else:
            return None, None

        lam[:] = 0.0
        lam[active] = lam_active
        grad = m[:, active] @ lam_active + q
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
    distinct frequencies.
    """

    def __init__(
        self, cost: BlockDiagonalCost, constraints: ConstraintSet
    ) -> None:
        self._cost = cost
        self.bounds = constraints.bounds
        self.wr = constraints.w_re
        self.wi = constraints.w_im
        self.fi = constraints.freq_index
        kr = constraints.kernels.real  # (K, N)
        ki = constraints.kernels.imag
        self._kr = kr
        self._ki = ki
        k = kr.shape[0]
        solved = cost.solve(0, 0, np.vstack([kr, ki]).T)  # (N, 2K)
        self.t_rr = kr @ solved[:, :k]
        self.t_ri = kr @ solved[:, k:]
        self.t_ir = ki @ solved[:, :k]
        self.t_ii = ki @ solved[:, k:]

    def gram(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Dual Gram submatrix M[rows_a, rows_b] (without ridge)."""
        wr_a, wi_a = self.wr[rows_a], self.wi[rows_a]
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
        return (
            np.einsum("ij,ij->i", self.wr, self.wr) * self.t_rr[f, f]
            - 2.0 * np.einsum("ij,ij->i", self.wr, self.wi) * self.t_ri[f, f]
            + np.einsum("ij,ij->i", self.wi, self.wi) * self.t_ii[f, f]
        )

    def primal(self, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """x = -H^-1 F[rows]^T lam on the flattened (P*P*N,) layout."""
        k = self._kr.shape[0]
        p2 = self.wr.shape[1]
        acc_r = np.zeros((k, p2))
        acc_i = np.zeros((k, p2))
        np.add.at(acc_r, self.fi[rows], lam[:, None] * self.wr[rows])
        np.add.at(acc_i, self.fi[rows], lam[:, None] * self.wi[rows])
        ft = acc_r.T @ self._kr - acc_i.T @ self._ki  # (P^2, N)
        return -self._cost.solve_flat(ft.reshape(-1))

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """F x - g over *all* rows in one factor-space pass."""
        p2 = self.wr.shape[1]
        x2 = x.reshape(p2, -1)
        v_r = (x2 @ self._kr.T).T[self.fi]  # (n_c, P^2)
        v_i = (x2 @ self._ki.T).T[self.fi]
        fx = np.einsum("ij,ij->i", self.wr, v_r) - np.einsum(
            "ij,ij->i", self.wi, v_i
        )
        return fx - self.bounds


def _solve_structured(
    cost: BlockDiagonalCost,
    constraints: ConstraintSet,
    dual_ridge: float,
    *,
    seed_cap: int = 512,
    grow_cap: int = 1024,
    max_rounds: int = 32,
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Working-set dual solve in factor space.

    Returns ``(lam, x, max_violation)`` or ``None`` when the round/pivot
    caps are hit (the caller falls back to the dense route).
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
    seed = np.nonzero(g < 0.0)[0]
    if seed.size == 0:
        # x = 0 is feasible and optimal.
        dim = ops.wr.shape[1] * ops._kr.shape[1]
        return lam, np.zeros(dim), 0.0
    if seed.size > seed_cap:
        seed = seed[np.argsort(g[seed])[:seed_cap]]
    work = seed
    m_w = ops.gram(work, work)
    m_w = 0.5 * (m_w + m_w.T)
    m_w[np.arange(work.size), np.arange(work.size)] += ridge
    warm: np.ndarray | None = None
    for _ in range(max_rounds):
        lam_w, free = _nnls_gram(m_w, g[work], warm)
        if lam_w is None and warm is not None:
            # Warm starts occasionally stall the active set; retry cold.
            lam_w, free = _nnls_gram(m_w, g[work], None)
        if lam_w is None:
            return None
        x = ops.primal(work, lam_w)
        slack = ops.slacks(x)
        violation = float(np.max(slack))
        slack[work] = -np.inf  # handled exactly by the subproblem
        fresh = np.nonzero(slack > tol)[0]
        if fresh.size == 0:
            lam[:] = 0.0
            lam[work] = lam_w
            return lam, x, max(violation, 0.0)
        if fresh.size > grow_cap:
            fresh = fresh[np.argsort(-slack[fresh])[:grow_cap]]
        # Extend the working-set Gram incrementally.
        cross = ops.gram(work, fresh)
        corner = ops.gram(fresh, fresh)
        corner = 0.5 * (corner + corner.T)
        corner[np.arange(fresh.size), np.arange(fresh.size)] += ridge
        m_w = np.block([[m_w, cross], [cross.T, corner]])
        work = np.concatenate([work, fresh])
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
            lam, x, violation = structured
            if not np.isfinite(x).all():
                continue
            delta_c = x.reshape(p, p, n)
            return QPSolution(
                delta_c=delta_c,
                cost=0.5 * cost.quadratic_value(delta_c),
                max_violation=violation,
                dual=lam,
            )
        obs.incr("fallback.qp_dense")
        _LOG.warning(
            "solve_block_qp: structured ladder exhausted; using the "
            "dense dual route"
        )
    try:
        f = constraints.dense_matrix()
        g = constraints.bounds
        y = _solve_h_inv_ft(cost, constraints)
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
    )
