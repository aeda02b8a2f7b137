"""Semidefinite programming over complex Hermitian blocks.

Solves

    max / min   sum_j <C_j, X_j>  (+ const)
    subject to  sum_j <A_ij, X_j> = b_i,    X_j >= 0,

where each X_j is a Hermitian d_j x d_j matrix and <.,.> is the
Hilbert-Schmidt inner product. The solver is an infeasible-start primal-dual
path-following method with Nesterov-Todd scaling and a Mehrotra second-order
corrector, written directly on numpy so that runs are deterministic
bit-for-bit for identical inputs. Redundant equality rows are removed up
front by a pivoted QR factorization of the constraint matrix.

Hermitian matrices are vectorized isometrically into R^{d^2} ("hvec"):
diagonal entries, then sqrt(2) * real and sqrt(2) * imag of the upper
triangle. All per-iteration work is batched over blocks of equal dimension.

Everything that depends only on a dimension is built once, on first use, and
cached read-only: the gather/scatter offsets and scale vectors behind hvec and
unhvec, and the Hermitian basis. The cached plan is bit-exact: hvec gives the
same bits as fancy indexing over np.triu_indices, and unhvec the same as that
indexing with a complex division by sqrt(2), except for the sign of an exact
zero and for entries that are not finite. Each block group of a PreparedSdp
also fixes the contraction path of its Schur kernel once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .linalg import HermitianOperator
from .tolerances import DEFAULT_FEAS_TOL, DEFAULT_GAP_TOL, DEFAULT_MAX_ITER

STATUS_OPTIMAL = "Optimal"
STATUS_MAX_ITERATIONS = "MaxIterations"
STATUS_NUMERICAL_FAILURE = "NumericalFailure"

# Pivoted-QR threshold below which an equality row counts as dependent.
RANK_TOL = 1e-10

_STEP_FRACTION = 0.98


class _VecPlan(NamedTuple):
    """Index arrays for one matrix dimension d. Offsets address a (d, d)
    complex128 matrix viewed as 2 d^2 float64s: entry (i, j) has its real
    part at 2 (i d + j) and its imaginary part one further."""

    gather: np.ndarray  # hvec coordinate k reads float offset gather[k]
    scale: np.ndarray  # 1 on the diagonal coordinates, sqrt(2) off them
    unscale: np.ndarray  # 1 on the diagonal coordinates, 1/sqrt(2) off them
    lower_re: np.ndarray  # real parts of the lower triangle, pair order
    lower_im: np.ndarray  # imaginary parts of the lower triangle, pair order


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=None)
def _vec_plan(dim: int) -> _VecPlan:
    iu, ju = np.triu_indices(dim, k=1)
    npairs = iu.size
    diag = np.arange(dim) * (dim + 1)
    upper = iu * dim + ju
    lower = ju * dim + iu
    ones = np.ones(dim)
    return _VecPlan(
        gather=_read_only(np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])),
        scale=_read_only(np.concatenate([ones, np.full(2 * npairs, np.sqrt(2.0))])),
        unscale=_read_only(
            np.concatenate([ones, np.full(2 * npairs, 1.0 / np.sqrt(2.0))])
        ),
        lower_re=_read_only(2 * lower),
        lower_im=_read_only(2 * lower + 1),
    )


@functools.lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of Hermitian dim x dim matrices, shape (dim^2, dim, dim).

    Ordering matches hvec: unit diagonal matrices first, then
    (E_ij + E_ji)/sqrt(2) and (i E_ij - i E_ji)/sqrt(2) over the upper
    triangle in row-major order. The array is cached and read-only.
    """
    basis = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    for i in range(dim):
        basis[i, i, i] = 1.0
    iu, ju = np.triu_indices(dim, k=1)
    npairs = iu.size
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(npairs):
        i, j = iu[k], ju[k]
        basis[dim + k, i, j] = inv_sqrt2
        basis[dim + k, j, i] = inv_sqrt2
        basis[dim + npairs + k, i, j] = 1j * inv_sqrt2
        basis[dim + npairs + k, j, i] = -1j * inv_sqrt2
    return _read_only(basis)


def hvec(mats: np.ndarray) -> np.ndarray:
    """Isometric real vectorization of Hermitian matrices, batched over leading axes."""
    mats = np.ascontiguousarray(mats, dtype=np.complex128)
    dim = mats.shape[-1]
    plan = _vec_plan(dim)
    flat = mats.view(np.float64).reshape(mats.shape[:-2] + (2 * dim * dim,))
    out = flat[..., plan.gather]
    out *= plan.scale
    return out


def unhvec(vecs: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of hvec, batched over leading axes."""
    vecs = np.asarray(vecs, dtype=np.float64)
    plan = _vec_plan(dim)
    lead = vecs.shape[:-1]
    coords = vecs * plan.unscale
    flat = np.zeros(lead + (2 * dim * dim,), dtype=np.float64)
    flat[..., plan.gather] = coords
    npairs = plan.lower_re.size
    flat[..., plan.lower_re] = coords[..., dim : dim + npairs]
    flat[..., plan.lower_im] = -coords[..., dim + npairs :]
    return flat.view(np.complex128).reshape(lead + (dim, dim))


@dataclass
class SdpProblem:
    """One conic program. ``objective`` and each constraint's coefficient list
    hold one HermitianOperator per block, with None standing for a zero
    coefficient."""

    dims: tuple[int, ...]
    objective: list
    constraints: list
    maximize: bool = True
    objective_const: float = 0.0

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("block dimensions must be positive")
        if len(self.objective) != len(self.dims):
            raise ValueError("objective must list one coefficient per block")
        for j, op in enumerate(self.objective):
            if op is not None and op.dim != self.dims[j]:
                raise ValueError(f"objective coefficient {j} has wrong dimension")
        for i, (coeffs, rhs) in enumerate(self.constraints):
            if len(coeffs) != len(self.dims):
                raise ValueError(f"constraint {i} must list one coefficient per block")
            for j, op in enumerate(coeffs):
                if op is not None and op.dim != self.dims[j]:
                    raise ValueError(
                        f"constraint {i} coefficient {j} has wrong dimension"
                    )
            if not np.isfinite(rhs):
                raise ValueError(f"constraint {i} has non-finite right-hand side")


@dataclass
class SdpSolution:
    status: str
    primal_value: float
    dual_value: float
    gap: float
    primal_infeasibility: float
    dual_infeasibility: float
    iterations: int
    block_values: list = field(default_factory=list)
    message: str = ""


# Schur kernel contraction: block i of W times basis matrix k times block i of W.
_WBW = "ipq,kqr,irs->ikps"


class _Group:
    """Blocks of one common dimension, batched. The Hermitian basis and the
    contraction path of the Schur kernel depend only on the group's shape,
    so they are fixed here once rather than on every IPM iteration."""

    __slots__ = ("dim", "blocks", "col_start", "col_stop", "basis", "wbw_path")

    def __init__(self, dim: int, blocks: list[int], col_start: int) -> None:
        self.dim = dim
        self.blocks = blocks
        self.col_start = col_start
        self.col_stop = col_start + len(blocks) * dim * dim
        self.basis = hermitian_basis(dim)
        w_like = np.empty((len(blocks), dim, dim), dtype=np.complex128)
        self.wbw_path = np.einsum_path(_WBW, w_like, self.basis, w_like, optimize=True)[0]


class PreparedSdp:
    """Constraint-side preprocessing, reusable across objectives.

    Preparing once and re-solving with fresh objectives is what the
    alternating optimization in the witness module leans on; the plain
    solve() entry point prepares and solves in one go.
    """

    def __init__(self, dims, constraints) -> None:
        self.dims = tuple(int(d) for d in dims)
        by_dim: dict[int, list[int]] = {}
        for j, d in enumerate(self.dims):
            by_dim.setdefault(d, []).append(j)
        self.groups: list[_Group] = []
        col = 0
        for d in sorted(by_dim):
            g = _Group(d, by_dim[d], col)
            self.groups.append(g)
            col = g.col_stop
        self.n_cols = col
        self.block_slot: dict[int, tuple[int, int]] = {}
        for gi, g in enumerate(self.groups):
            for pos, j in enumerate(g.blocks):
                self.block_slot[j] = (gi, pos)

        m = len(constraints)
        a_mat = np.zeros((m, self.n_cols), dtype=np.float64)
        b = np.zeros(m, dtype=np.float64)
        for i, (coeffs, rhs) in enumerate(constraints):
            b[i] = float(rhs)
            for j, op in enumerate(coeffs):
                if op is None:
                    continue
                if op.dim != self.dims[j]:
                    raise ValueError(
                        f"constraint {i} coefficient {j} has wrong dimension"
                    )
                gi, pos = self.block_slot[j]
                g = self.groups[gi]
                d2 = g.dim * g.dim
                start = g.col_start + pos * d2
                a_mat[i, start : start + d2] = hvec(op.entries)

        self.failure: str | None = None
        if m > 0:
            _, r, perm = scipy.linalg.qr(a_mat.T, mode="economic", pivoting=True)
            diag = np.abs(np.diag(r))
            thresh = RANK_TOL * max(1.0, diag[0] if diag.size else 0.0)
            rank = int(np.sum(diag > thresh))
            keep = np.sort(perm[:rank])
            drop = np.sort(perm[rank:])
            self.a_red = a_mat[keep]
            self.b_red = b[keep]
            if drop.size:
                # Dependent rows must also be consistent in their right-hand
                # sides, otherwise the equalities have no solution at all.
                w, *_ = np.linalg.lstsq(self.a_red.T, a_mat[drop].T, rcond=None)
                implied = w.T @ self.b_red
                resid = np.max(np.abs(implied - b[drop]))
                if resid > 1e-8 * (1.0 + np.max(np.abs(b))):
                    self.failure = (
                        f"equality constraints are inconsistent (residual {resid:.2e})"
                    )
        else:
            self.a_red = np.zeros((0, self.n_cols))
            self.b_red = np.zeros(0)
        self.m = self.a_red.shape[0]

    # -- helpers ----------------------------------------------------------

    def _split(self, vec: np.ndarray) -> list[np.ndarray]:
        out = []
        for g in self.groups:
            seg = vec[g.col_start : g.col_stop]
            out.append(unhvec(seg.reshape(len(g.blocks), g.dim * g.dim), g.dim))
        return out

    def _flatten(self, mats: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([hvec(mg).reshape(-1) for mg in mats])

    def _identity_state(self, scale: float = 1.0) -> list[np.ndarray]:
        return [
            np.broadcast_to(
                scale * np.eye(g.dim, dtype=np.complex128), (len(g.blocks), g.dim, g.dim)
            ).copy()
            for g in self.groups
        ]

    def _objective_mats(self, objective, sign: float) -> list[np.ndarray]:
        mats = []
        for g in self.groups:
            cg = np.zeros((len(g.blocks), g.dim, g.dim), dtype=np.complex128)
            for pos, j in enumerate(g.blocks):
                op = objective[j]
                if op is not None:
                    cg[pos] = sign * op.entries
            mats.append(cg)
        return mats

    # -- main solve -------------------------------------------------------

    def solve_with(
        self,
        objective,
        objective_const: float = 0.0,
        maximize: bool = True,
        gap_tol: float = DEFAULT_GAP_TOL,
        feas_tol: float = DEFAULT_FEAS_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
    ) -> SdpSolution:
        if len(objective) != len(self.dims):
            raise ValueError("objective must list one coefficient per block")
        if self.failure is not None:
            return SdpSolution(
                status=STATUS_NUMERICAL_FAILURE,
                primal_value=np.nan,
                dual_value=np.nan,
                gap=np.nan,
                primal_infeasibility=np.nan,
                dual_infeasibility=np.nan,
                iterations=0,
                block_values=[],
                message=self.failure,
            )

        sign = -1.0 if maximize else 1.0
        c_mats = self._objective_mats(objective, sign)
        c_vec = self._flatten(c_mats)
        a = self.a_red
        b = self.b_red
        m = self.m
        k_total = float(sum(g.dim * len(g.blocks) for g in self.groups))
        norm_b = np.linalg.norm(b)
        norm_c = np.linalg.norm(c_vec)

        x = self._identity_state()
        z = self._identity_state()
        y = np.zeros(m)

        status = STATUS_MAX_ITERATIONS
        message = ""
        stall = 0
        it = 0
        best = None
        best_score = np.inf

        def finish(state) -> SdpSolution:
            xs, int_p, int_d, pinf, dinf = state
            if maximize:
                primal = -int_p + objective_const
                dual = -int_d + objective_const
            else:
                primal = int_p + objective_const
                dual = int_d + objective_const
            block_values = [None] * len(self.dims)
            for j, (gi, pos) in self.block_slot.items():
                block_values[j] = HermitianOperator(xs[gi][pos])
            return SdpSolution(
                status=status,
                primal_value=float(primal),
                dual_value=float(dual),
                gap=float(abs(primal - dual)),
                primal_infeasibility=float(pinf),
                dual_infeasibility=float(dinf),
                iterations=it,
                block_values=block_values,
                message=message,
            )

        for it in range(1, max_iter + 1):
            x_vec = self._flatten(x)
            rp = b - a @ x_vec
            aty = self._split(a.T @ y)
            rd = [c_mats[gi] - aty[gi] - z[gi] for gi in range(len(self.groups))]
            int_p = float(c_vec @ x_vec)
            int_d = float(b @ y)
            pinf = np.linalg.norm(rp) / (1.0 + norm_b)
            dinf = np.sqrt(
                sum(float(np.sum(np.abs(rg) ** 2)) for rg in rd)
            ) / (1.0 + norm_c)
            gap_int = abs(int_p - int_d)
            if not (np.isfinite(int_p) and np.isfinite(int_d) and np.isfinite(pinf)):
                status = STATUS_NUMERICAL_FAILURE
                message = "non-finite iterate"
                if best is not None:
                    return finish(best)
                return finish(([xg.copy() for xg in x], np.nan, np.nan, pinf, dinf))
            score = max(pinf / feas_tol, dinf / feas_tol, gap_int / gap_tol)
            if score < best_score:
                best_score = score
                best = ([xg.copy() for xg in x], int_p, int_d, pinf, dinf)
            if pinf <= feas_tol and dinf <= feas_tol and gap_int <= gap_tol:
                status = STATUS_OPTIMAL
                return finish((x, int_p, int_d, pinf, dinf))

            # Nesterov-Todd scaling per group: W Z W = X with W = R R^H and
            # the common scaled spectrum sig of X and Z.
            try:
                scal = [self._nt_scaling(x[gi], z[gi]) for gi in range(len(self.groups))]
            except np.linalg.LinAlgError:
                status = STATUS_NUMERICAL_FAILURE
                message = "iterate left the positive cone"
                return finish(best)
            w_mats = [s[0] for s in scal]
            r_mats = [s[1] for s in scal]
            rinv_mats = [s[2] for s in scal]
            sig = [s[3] for s in scal]

            schur = np.zeros((m, m))
            a_wrw = np.zeros(self.n_cols)
            for gi, g in enumerate(self.groups):
                d = g.dim
                n_g = len(g.blocks)
                w = w_mats[gi]
                # Map U -> W U W in the hvec basis, one (d^2, d^2) kernel per block.
                wbw = np.einsum(_WBW, w, g.basis, w, optimize=g.wbw_path)
                kern = hvec(wbw)
                a3 = a[:, g.col_start : g.col_stop].reshape(m, n_g, d * d)
                tmp = np.matmul(a3.transpose(1, 0, 2), kern)
                schur += tmp.transpose(1, 0, 2).reshape(m, -1) @ a3.reshape(m, -1).T
                wrw = w @ rd[gi] @ w
                a_wrw[g.col_start : g.col_stop] = hvec(wrw).reshape(-1)

            chol = self._factor_schur(schur)
            if chol is None:
                status = STATUS_NUMERICAL_FAILURE
                message = "Schur complement factorization failed"
                return finish(best)

            mu = self._inner_state(x, z) / k_total

            # Predictor: aim straight at the boundary.
            g_aff = [-x[gi] for gi in range(len(self.groups))]
            dx_a, _, dz_a = self._newton(a, rp, rd, g_aff, w_mats, a_wrw, chol)
            ap_aff = min(1.0, self._max_step(dx_a, rinv_mats, sig, primal=True))
            ad_aff = min(1.0, self._max_step(dz_a, r_mats, sig, primal=False))
            mu_aff = (
                self._inner_state(
                    [x[gi] + ap_aff * dx_a[gi] for gi in range(len(self.groups))],
                    [z[gi] + ad_aff * dz_a[gi] for gi in range(len(self.groups))],
                )
                / k_total
            )
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

            # Corrector with the Mehrotra second-order term, assembled in the
            # scaled frame where both X and Z share the spectrum sig. If the
            # corrected step collapses, retry without the second-order term
            # (plain centering), which is the standard safeguard.
            def corrector_direction(with_second_order: bool):
                g_cor = []
                for gi in range(len(self.groups)):
                    r_m = r_mats[gi]
                    s = sig[gi]
                    if with_second_order:
                        rinv = rinv_mats[gi]
                        dxt = rinv @ dx_a[gi] @ rinv.conj().transpose(0, 2, 1)
                        dzt = r_m.conj().transpose(0, 2, 1) @ dz_a[gi] @ r_m
                        num = -0.5 * (dxt @ dzt + dzt @ dxt)
                    else:
                        n_g, d_g = s.shape[0], s.shape[1]
                        num = np.zeros((n_g, d_g, d_g), dtype=np.complex128)
                    d = self.groups[gi].dim
                    rng = np.arange(d)
                    num[:, rng, rng] += sigma * mu - s**2
                    denom = s[:, :, None] + s[:, None, :]
                    gt = 2.0 * num / denom
                    g_cor.append(r_m @ gt @ r_m.conj().transpose(0, 2, 1))
                dx, dy, dz = self._newton(a, rp, rd, g_cor, w_mats, a_wrw, chol)
                ap = min(
                    1.0,
                    _STEP_FRACTION * self._max_step(dx, rinv_mats, sig, primal=True),
                )
                ad = min(
                    1.0, _STEP_FRACTION * self._max_step(dz, r_mats, sig, primal=False)
                )
                return dx, dy, dz, ap, ad

            dx, dy, dz, ap, ad = corrector_direction(True)
            if min(ap, ad) < 0.2:
                dx2, dy2, dz2, ap2, ad2 = corrector_direction(False)
                if min(ap2, ad2) > min(ap, ad):
                    dx, dy, dz, ap, ad = dx2, dy2, dz2, ap2, ad2

            # Eigenvalue-based step bounds can overshoot at extreme
            # conditioning; halve until the update verifiably stays in the
            # cone rather than letting the next scaling blow up.
            ap, x_new = self._backtrack_into_cone(x, dx, ap)
            ad, z_new = self._backtrack_into_cone(z, dz, ad)
            x = x_new
            z = z_new
            y = y + ad * dy

            if max(ap, ad) < 1e-8:
                stall += 1
                if stall >= 3:
                    status = STATUS_NUMERICAL_FAILURE
                    message = "step length collapsed"
                    return finish(best)
            else:
                stall = 0

        status = STATUS_MAX_ITERATIONS
        message = f"no convergence in {max_iter} iterations"
        return finish(best)

    # -- numerical pieces -------------------------------------------------

    @staticmethod
    def _nt_scaling(xg: np.ndarray, zg: np.ndarray):
        lx = PreparedSdp._chol_batch(xg)
        lz = PreparedSdp._chol_batch(zg)
        prod = lz.conj().transpose(0, 2, 1) @ lx
        u, s, vh = np.linalg.svd(prod)
        if np.min(s) <= 0:
            raise np.linalg.LinAlgError("singular NT scaling")
        s_isqrt = 1.0 / np.sqrt(s)
        r = (lx @ vh.conj().transpose(0, 2, 1)) * s_isqrt[:, None, :]
        rinv = s_isqrt[:, :, None] * (u.conj().transpose(0, 2, 1) @ lz.conj().transpose(0, 2, 1))
        w = r @ r.conj().transpose(0, 2, 1)
        w = 0.5 * (w + w.conj().transpose(0, 2, 1))
        return w, r, rinv, s

    @staticmethod
    def _chol_batch(mats: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            # Tiny symmetric jitter rescues roundoff-level indefiniteness.
            d = mats.shape[-1]
            scale = np.max(np.abs(mats), axis=(-2, -1), keepdims=True)
            jitter = 1e-14 * np.maximum(scale, 1.0) * np.eye(d)
            for boost in (1.0, 1e2, 1e4):
                try:
                    return np.linalg.cholesky(mats + boost * jitter)
                except np.linalg.LinAlgError:
                    continue
            raise

    @staticmethod
    def _factor_schur(schur: np.ndarray):
        """Equilibrated Cholesky factorization of the Schur complement."""
        if schur.shape[0] == 0:
            return ()
        d = np.sqrt(np.clip(np.diag(schur), 1e-300, None))
        scaled = schur / np.outer(d, d)
        for reg in (0.0, 1e-14, 1e-12, 1e-10):
            try:
                fac = scipy.linalg.cho_factor(
                    scaled + reg * np.eye(scaled.shape[0]), lower=True
                )
                return (fac, d)
            except np.linalg.LinAlgError:
                continue
        return None

    @staticmethod
    def _schur_solve(chol, rhs: np.ndarray) -> np.ndarray:
        if chol == ():
            return np.zeros(0)
        fac, d = chol
        return scipy.linalg.cho_solve(fac, rhs / d) / d

    def _newton(self, a, rp, rd, g_rhs, w_mats, a_wrw, chol):
        """Solve the scaled Newton system for (dx, dy, dz) given the
        complementarity right-hand side g_rhs (one matrix batch per group).

        The computed direction satisfies the dual-residual and
        complementarity equations by construction; all numerical error lands
        in A(dx) = rp, which two rounds of iterative refinement clean up.
        This is what keeps the primal residual decreasing once the Schur
        complement turns ill-conditioned near the optimum.
        """
        a_g = np.zeros(self.n_cols)
        for gi, g in enumerate(self.groups):
            a_g[g.col_start : g.col_stop] = hvec(g_rhs[gi]).reshape(-1)
        rhs = rp - a @ a_g + a @ a_wrw
        dy = self._schur_solve(chol, rhs)
        aty = self._split(a.T @ dy)
        dz = [rd[gi] - aty[gi] for gi in range(len(self.groups))]
        dx = [
            g_rhs[gi] - w_mats[gi] @ dz[gi] @ w_mats[gi]
            for gi in range(len(self.groups))
        ]
        for _ in range(2):
            e1 = rp - a @ self._flatten(dx)
            if np.linalg.norm(e1) <= 1e-15 * (1.0 + np.linalg.norm(rp)):
                break
            delta_y = self._schur_solve(chol, e1)
            aty_c = self._split(a.T @ delta_y)
            for gi in range(len(self.groups)):
                dz[gi] = dz[gi] - aty_c[gi]
                dx[gi] = dx[gi] + w_mats[gi] @ aty_c[gi] @ w_mats[gi]
            dy = dy + delta_y
        return dx, dy, dz

    def _backtrack_into_cone(self, state, delta, alpha, tries: int = 6):
        """Return (alpha, new_state) with new_state certifiably positive
        definite, halving alpha as needed; alpha 0 keeps the old state."""
        for _ in range(tries):
            trial = []
            ok = True
            for gi in range(len(self.groups)):
                m_new = state[gi] + alpha * delta[gi]
                m_new = 0.5 * (m_new + m_new.conj().transpose(0, 2, 1))
                try:
                    np.linalg.cholesky(m_new)
                except np.linalg.LinAlgError:
                    ok = False
                    break
                trial.append(m_new)
            if ok:
                return alpha, trial
            alpha *= 0.5
        return 0.0, state

    def _inner_state(self, xs, zs) -> float:
        total = 0.0
        for gi in range(len(self.groups)):
            total += float(np.einsum("ijk,ikj->", xs[gi], zs[gi]).real)
        return total

    def _max_step(self, deltas, scalers, sig, primal: bool) -> float:
        """Largest alpha with (state + alpha * delta) still in the cone."""
        alpha = np.inf
        for gi in range(len(self.groups)):
            s = sig[gi]
            if primal:
                rinv = scalers[gi]
                scaled = rinv @ deltas[gi] @ rinv.conj().transpose(0, 2, 1)
            else:
                r_m = scalers[gi]
                scaled = r_m.conj().transpose(0, 2, 1) @ deltas[gi] @ r_m
            s_isqrt = 1.0 / np.sqrt(s)
            t = scaled * s_isqrt[:, :, None] * s_isqrt[:, None, :]
            t = 0.5 * (t + t.conj().transpose(0, 2, 1))
            lam_min = float(np.min(np.linalg.eigvalsh(t)[..., 0]))
            if lam_min < -1e-16:
                alpha = min(alpha, -1.0 / lam_min)
        return alpha


def solve(
    problem: SdpProblem,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdpSolution:
    """Solve one SdpProblem end to end."""
    prep = PreparedSdp(problem.dims, problem.constraints)
    return prep.solve_with(
        problem.objective,
        objective_const=problem.objective_const,
        maximize=problem.maximize,
        gap_tol=gap_tol,
        feas_tol=feas_tol,
        max_iter=max_iter,
    )


class ProgramBuilder:
    """Accumulates operator-valued equality constraints and an objective,
    producing the scalar-row SdpProblem the solver consumes.

    Terms in an operator equation are either a real scalar multiplying a
    matrix block of the equation's dimension, or a Hermitian matrix
    multiplying a 1x1 (scalar) block.
    """

    def __init__(self, dims) -> None:
        self.dims = tuple(int(d) for d in dims)
        self.rows: list = []
        self._objective: list = [None] * len(self.dims)
        self._maximize = True
        self._const = 0.0

    def add_scalar_row(self, coeffs: dict, rhs: float) -> None:
        row = [None] * len(self.dims)
        for j, op in coeffs.items():
            op = self._as_operator(op, self.dims[j])
            row[j] = op
        self.rows.append((row, float(rhs)))

    def add_operator_equation(self, terms: dict, rhs) -> None:
        if isinstance(rhs, HermitianOperator):
            dim = rhs.dim
            rhs_mat = rhs.entries
        else:
            dim = 1
            rhs_mat = np.array([[float(rhs)]], dtype=np.complex128)
        basis = hermitian_basis(dim)
        prepared = []
        for j, coeff in terms.items():
            if isinstance(coeff, HermitianOperator) or isinstance(coeff, np.ndarray):
                if self.dims[j] != 1:
                    raise ValueError(
                        "matrix-valued terms are only supported on scalar blocks"
                    )
                mat = coeff.entries if isinstance(coeff, HermitianOperator) else coeff
                if mat.shape != (dim, dim):
                    raise ValueError("matrix term does not match equation dimension")
                prepared.append((j, "matrix", np.asarray(mat, dtype=np.complex128)))
            else:
                if self.dims[j] != dim:
                    raise ValueError(
                        f"block {j} has dimension {self.dims[j]}, equation needs {dim}"
                    )
                prepared.append((j, "scalar", float(coeff)))
        for k in range(dim * dim):
            bk = basis[k]
            row = [None] * len(self.dims)
            for j, kind, val in prepared:
                if kind == "scalar":
                    row[j] = HermitianOperator(val * bk)
                else:
                    weight = float(np.sum(bk.conj() * val).real)
                    row[j] = HermitianOperator([[weight]])
            rhs_k = float(np.sum(bk.conj() * rhs_mat).real)
            self.rows.append((row, rhs_k))

    def set_objective(self, coeffs: dict, const: float = 0.0, maximize: bool = True) -> None:
        self._objective = [None] * len(self.dims)
        for j, op in coeffs.items():
            self._objective[j] = self._as_operator(op, self.dims[j])
        self._const = float(const)
        self._maximize = bool(maximize)

    def _as_operator(self, op, dim: int) -> HermitianOperator:
        if isinstance(op, HermitianOperator):
            if op.dim != dim:
                raise ValueError("coefficient dimension mismatch")
            return op
        if np.isscalar(op):
            if dim != 1:
                raise ValueError("scalar coefficients require a 1x1 block")
            return HermitianOperator([[float(op)]])
        out = HermitianOperator(op)
        if out.dim != dim:
            raise ValueError("coefficient dimension mismatch")
        return out

    def problem(self) -> SdpProblem:
        return SdpProblem(
            dims=self.dims,
            objective=list(self._objective),
            constraints=list(self.rows),
            maximize=self._maximize,
            objective_const=self._const,
        )

    def prepared(self) -> PreparedSdp:
        return PreparedSdp(self.dims, self.rows)

    def objective_list(self) -> list:
        return list(self._objective)
