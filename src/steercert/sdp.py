"""Semidefinite programming over complex Hermitian blocks.

Solves

    maximize    sum_j <C_j, X_j>
    subject to  sum_j <A_ij, X_j> = b_i,    X_j >= 0,

where each X_j is a Hermitian d_j x d_j matrix and <.,.> is the
Hilbert-Schmidt inner product. The solver is an infeasible-start primal-dual
path-following method with Nesterov-Todd (NT) scaling and a Mehrotra
second-order corrector, written directly on numpy so that runs are
deterministic bit-for-bit for identical inputs.

The equalities enter as one real matrix with a row per equation and d_j^2
hvec columns per block (below), in block order, plus the right-hand side.
ProgramBuilder writes equations of numpy arrays straight into those rows,
and operator_rows turns SdpProblem's constraints into them through it. An
objective takes the layout of one such row. PreparedSdp only maximizes;
solve() maps an SdpProblem that minimizes or adds a constant onto that.
PreparedSdp rejects non-finite rows and objectives, regroups the columns
by block dimension with one gather and removes redundant rows up front by
a pivoted QR factorization.

Hermitian matrices are vectorized isometrically into R^{d^2} ("hvec"):
diagonal entries, then sqrt(2) * real and sqrt(2) * imag of the upper
triangle. Blocks of equal dimension form a group, and all per-iteration work
is batched over a group. The block dimension picks the group's cone:

- d = 1: the nonnegative orthant, with entrywise scaling and step length.
  Production programs have no 1x1 block; this path serves SdpProblem and
  the random test programs.
- d = 2: the 4-dimensional Lorentz cone. X = (t I + r.sigma) / 2 is positive
  semidefinite exactly when t >= |r|. A primal block has cone coordinates
  x = Q hvec(X) / sqrt(2) and a dual block z = sqrt(2) Q hvec(Z), where Q
  maps (h0, h1) to ((h0 + h1), (h0 - h1)) / sqrt(2). Then x.z = tr(XZ),
  X's eigenvalues are x_0 +- |x_1|, and the cone's Jordan product
  x o z = (x.z, x_0 z_1 + z_0 x_1) holds the Pauli coordinates of
  (XZ + ZX) / 2. The NT scaling, the solve of lam o g = r and the step
  length are closed-form (Vandenberghe, The CVXOPT linear and quadratic
  cone program solvers, 2010; Alizadeh & Goldfarb, Math. Program. 95, 2003).
- d >= 3: Hermitian matrices, scaled through Cholesky factors and an SVD,
  with eigvalsh step lengths. This path serves the random test programs.

The change to cone coordinates is linear and keeps the pairing <X, Z>, so
the central path X o Z = tau I becomes x o z = 2 tau e on a Lorentz block
and mu = <X, Z> / sum_j d_j is unchanged. The NT scaling point is unique,
and the Newton directions, step lengths and stopping quantities are the same
linear-algebra objects written in other coordinates (the dual residual
weighs Lorentz coordinates by 1/2 to give the Frobenius norm). In exact
arithmetic the iterates are therefore those of the all-Hermitian method.

Each Newton step takes one of two forms, chosen from the shape of the
reduced program alone: m independent rows over N cone coordinates leave
p = N - m of them free.

- Range form, p > m: the Schur complement A H A^T is factored as R^T R
  through a QR factorization of the N x m scaled rows W A^T, and triangular
  solves with R, with up to two refinement passes, give the step.
- Null-space form, p <= m: one complete QR factorization of A^T at build
  time gives an orthonormal basis F of null(A) and the pseudo-inverses of A
  and A^T. Each step factors the N x p matrix W^-T F instead, and A dx = rp
  holds through the build-time factors, with no triangular solve and no
  refinement pass (Lofberg, Dualize it, Optim. Methods Softw. 24, 2009; the
  CVXOPT cone solvers take the same choice). The particular step
  W^-T A^+ rp is formed once per iteration and serves its predictor,
  corrector and centering solves.

Either way the scaled rows are factored, not an assembled product, so the
conditioning is not squared near a degenerate optimum. In every cone an NT
scaling is its per-block matrices of W and W^T and, for the null-space
form, of W^-1 and W^-T: applying one is a matrix-vector product per block,
and scaling the rows a matrix product per block.

PreparedSdp maximizes one objective (solve_with) or a batch of k
objectives side by side (solve_batch), over one program or, pairing
objective i with program i, over a stack of k programs that share block
dimensions and right-hand side but not their rows. One program is a stack
of one, whose rows every instance shares. Redundant rows are found per
program, and the programs of a stack must keep the same ones. Both entry
points run the same IPM loop, on instance rows: the iterate of every
instance is one row of a (k, n) array, the cone operations act on the k n
blocks row by row, and only the quantities that decide something are taken
per instance: the residual norms, mu and sigma, the step lengths, the
interior test and the stopping rule. Each instance keeps its own program,
best iterate, status, iteration count, stall count, corrector fallback and
backtracking. An instance that converges or fails (non-finite iterate, a
block that cannot be scaled, a singular R, a collapsed step) leaves the
batch, and the rest go on. The Schur step is a QR factorization of each
instance's scaled rows, then LAPACK triangular solves with its R in the
range form, or products with its program's build-time factors in the
null-space form. Every product with one instance's data is a BLAS or LAPACK
call of its own, on operands whose memory order does not depend on the
batch, so an instance's result is bit for bit the same whatever else is in
its batch and whether its program is shared or one of a stack. solve_with
runs that IPM on a batch of one, and solve_batch hands a batch of one to
solve_with, so every single solve, whichever entry point it came in by,
passes through solve_with.

Everything that depends only on a dimension is built once, on first use, and
cached read-only: the gather/scatter offsets and scale vectors behind hvec and
unhvec, and the Hermitian basis. The cached plan is bit-exact: hvec gives the
same bits as fancy indexing over np.triu_indices, and unhvec the same as that
indexing with a complex division by sqrt(2), except for the sign of an exact
zero and for entries that are not finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

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
    """Orthonormal basis of Hermitian dim x dim matrices, shape (dim^2, dim, dim):
    unhvec of the unit vectors, so the ordering is hvec's. The array is
    cached and read-only.
    """
    return _read_only(unhvec(np.eye(dim * dim), dim))


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
    hold one HermitianOperator (any object with ``dim`` and ``entries``) per
    block, with None standing for a zero coefficient. solve() turns the
    constraints into rows with operator_rows."""

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
    """One solve's outcome. ``block_values`` holds the primal value of each
    block as a (d_j, d_j) complex array, in block order."""

    status: str
    primal_value: float
    dual_value: float
    gap: float
    primal_infeasibility: float
    dual_infeasibility: float
    iterations: int
    block_values: list = field(default_factory=list)
    message: str = ""


# Lorentz-cone constants: the signature J = diag(1, -1, -1, -1), and
# M = sqrt(2) Q, which takes the hvec coordinates of a 2x2 block to the cone
# coordinates of a dual vector and the cone coordinates of a primal vector
# back to hvec. M is symmetric and M M = 2 I.
_SOC_SIGN = np.array([1.0, -1.0, -1.0, -1.0])
_SOC_J = np.diag(_SOC_SIGN)
_SOC_M = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, np.sqrt(2.0), 0.0],
        [0.0, 0.0, 0.0, np.sqrt(2.0)],
    ]
)
for _arr in (_SOC_SIGN, _SOC_J, _SOC_M):
    _read_only(_arr)
del _arr


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Matrix times each row of vecs, (m, n) or (k, m, n) times (k, n): one
    BLAS product per row, so a row's result does not depend on the others."""
    return np.matmul(mats, vecs[..., None])[..., 0]


def _steps_from_min_eig(lam_min: np.ndarray) -> np.ndarray:
    """Largest alpha with e + alpha * t in the cone, per instance, given t's
    least eigenvalue (inf when lam_min is above -1e-16 or nan)."""
    out = np.full(lam_min.shape, np.inf)
    np.divide(-1.0, lam_min, out=out, where=lam_min < -1e-16)
    return out


# The cone operations below act row by row: row i of every result depends
# on row i of the arguments alone. Every iterate passes its group's strict
# interior test (the start point, and the rows _backtrack_into_cone admits),
# where the orthant and Lorentz scalings are defined in closed form. On a
# Hermitian group that test is np.linalg.cholesky of the same bits, so the
# scaling's Cholesky factorizations cannot fail; it flags in ``bad`` the
# blocks whose scaled product lost rank instead of raising, so that one
# instance of a batch can fail while the others go on; a flagged block's
# other entries are garbage.


class _OrthantScaling:
    """NT scaling of 1x1 blocks: W = sqrt(x / z), one (1, 1) matrix per block."""

    __slots__ = ("w", "wt", "winv", "winv_t", "lam")

    def __init__(self, x: np.ndarray, z: np.ndarray, inverse: bool = False) -> None:
        w = np.sqrt(x / z)
        self.lam = np.sqrt(x * z)
        self.w = self.wt = w[:, :, None]
        if inverse:
            self.winv = self.winv_t = (1.0 / w)[:, :, None]

    def solve(self, r: np.ndarray) -> np.ndarray:
        return r / self.lam

    def least_eig(self, delta: np.ndarray) -> np.ndarray:
        """Per block, the least eigenvalue of the step delta scaled by lam;
        delta may carry leading axes, as may every least_eig argument."""
        return (delta / self.lam)[..., 0]


def _soc_bounds(v: np.ndarray):
    """(v0 - |v1|, v0 + |v1|): the two eigenvalues of Lorentz vectors (n, 4)."""
    nrm = np.sqrt(np.vecdot(v[:, 1:], v[:, 1:]))
    return v[:, 0] - nrm, v[:, 0] + nrm


class _LorentzScaling:
    """Closed-form NT scaling of 4-dimensional Lorentz cones.

    With x_bar = x / sqrt(det x), z_bar = z / sqrt(det z),
    gamma = sqrt((1 + x_bar.z_bar) / 2) and w_bar = (x_bar + J z_bar) / (2 gamma),
    the symmetric W = eta (2 v v^T - J), with v = (w_bar + e) /
    sqrt(2 (w_bar_0 + 1)) and eta = (det x / det z)^(1/4), satisfies
    W z = W^-1 x = lam, and W W = sqrt(det x / det z) (2 w_bar w_bar^T - J)
    is the Schur kernel H with H z = x (Vandenberghe, The CVXOPT linear and
    quadratic cone program solvers, 2010). Since v^T J v = 1, the inverse is
    W^-1 = (2 J v (J v)^T - J) / eta, symmetric too, so ``w`` and ``wt`` are
    one array, as are ``winv`` and ``winv_t``.
    """

    __slots__ = (
        "w", "wt", "winv", "winv_t", "lam", "_det_lam", "_u", "_inv_l1", "_inv_l2",
    )

    def __init__(self, x: np.ndarray, z: np.ndarray, inverse: bool = False) -> None:
        x_lo, x_hi = _soc_bounds(x)
        z_lo, z_hi = _soc_bounds(z)
        det_x = x_lo * x_hi
        det_z = z_lo * z_hi
        x_bar = x / np.sqrt(det_x)[:, None]
        z_bar = z / np.sqrt(det_z)[:, None]
        gamma = np.sqrt(0.5 + 0.5 * np.vecdot(x_bar, z_bar))[:, None]
        v = (x_bar + _SOC_SIGN * z_bar) / (2.0 * gamma)
        v[:, 0] += 1.0
        v /= np.sqrt(2.0 * v[:, :1])
        eta = np.sqrt(np.sqrt(det_x / det_z))
        w = eta[:, None, None] * (2.0 * v[:, :, None] * v[:, None, :] - _SOC_J)
        self.w = self.wt = w
        if inverse:
            jv = _SOC_SIGN * v
            self.winv = self.winv_t = (1.0 / eta)[:, None, None] * (
                2.0 * jv[:, :, None] * jv[:, None, :] - _SOC_J
            )
        # lam = W z in closed form, which keeps lam_0 free of cancellation
        # on blocks at the edge of the cone; det lam = eta^2 det z exactly.
        det_lam = np.sqrt(det_x * det_z)
        x0 = x_bar[:, :1]
        z0 = z_bar[:, :1]
        lam = np.empty_like(x)
        lam[:, :1] = gamma
        lam[:, 1:] = ((gamma + z0) * x_bar[:, 1:] + (gamma + x0) * z_bar[:, 1:]) / (
            x0 + z0 + 2.0 * gamma
        )
        lam *= np.sqrt(det_lam)[:, None]
        self.lam = lam
        self._det_lam = det_lam
        # lam's Jordan frame c_1,2 = (1, +-u) / 2 with eigenvalues l1 >= l2,
        # for the step length.
        nrm = np.sqrt(np.vecdot(lam[:, 1:], lam[:, 1:]))
        flat = nrm == 0
        u = lam[:, 1:] / np.where(flat, 1.0, nrm)[:, None]
        if flat.any():
            u[flat, 0] = 1.0
        l1 = lam[:, 0] + nrm
        self._u = u
        self._inv_l1 = 1.0 / l1
        self._inv_l2 = l1 / det_lam

    def solve(self, r: np.ndarray) -> np.ndarray:
        """g with lam o g = r: the inverse of lam's arrow matrix."""
        lam = self.lam
        lam0 = lam[:, :1]
        g0 = (lam0[:, 0] * r[:, 0] - np.vecdot(lam[:, 1:], r[:, 1:])) / self._det_lam
        out = np.empty_like(r)
        out[:, 0] = g0
        out[:, 1:] = (r[:, 1:] - g0[:, None] * lam[:, 1:]) / lam0
        return out

    def least_eig(self, delta: np.ndarray) -> np.ndarray:
        """Per block, the least eigenvalue of P(lam^-1/2) delta, where P is
        the quadratic representation: lam + alpha delta stays in the cone
        up to minus its inverse. In lam's Jordan frame that matrix is
        a c_1 + b c_2 + delta_perp / sqrt(l1 l2), with a and b the frame
        coordinates of delta over l1 and l2."""
        d0 = delta[..., 0]
        d1 = delta[..., 1:]
        along = np.vecdot(self._u, d1)
        perp2 = np.maximum(np.vecdot(d1, d1) - along * along, 0.0)
        a = (d0 + along) * self._inv_l1
        b = (d0 - along) * self._inv_l2
        return 0.5 * (a + b) - np.sqrt(
            0.25 * (a - b) ** 2 + perp2 * (self._inv_l1 * self._inv_l2)
        )


class _HermitianScaling:
    """NT scaling of d x d Hermitian blocks, d >= 3, in hvec coordinates:
    R R^H Z R R^H = X with the common scaled spectrum sig of X and Z.
    W maps U to R^H U R, W^T maps G back to R G R^H, and lam is diag(sig);
    their inverses go through R^-1 = diag(sqrt(sig)) V^H L_x^-1. ``w`` and
    ``winv_t`` are C-contiguous copies of the transposes of ``wt`` and
    ``winv``."""

    __slots__ = ("w", "wt", "winv", "winv_t", "lam", "bad", "_dim", "_sig")

    def __init__(self, x: np.ndarray, z: np.ndarray, inverse: bool = False) -> None:
        d = math.isqrt(x.shape[1])
        lx = np.linalg.cholesky(unhvec(x, d))
        lz = np.linalg.cholesky(unhvec(z, d))
        prod = lz.conj().transpose(0, 2, 1) @ lx
        _, s, vh = np.linalg.svd(prod)
        self.bad = np.min(s, axis=1) <= 0
        with np.errstate(invalid="ignore", divide="ignore"):
            s_isqrt = 1.0 / np.sqrt(s)
            r = (lx @ vh.conj().transpose(0, 2, 1)) * s_isqrt[:, None, :]
            # Row k of wt is hvec(R^H B_k R) for basis matrix B_k: W's matrix
            # transposed. Each entry is its own product, whatever the batch.
            r_h = r.conj().transpose(0, 2, 1)
            self.wt = hvec(r_h[:, None] @ hermitian_basis(d) @ r[:, None])
            self.w = np.ascontiguousarray(np.swapaxes(self.wt, 1, 2))
            if inverse:
                # Row k of winv is hvec(R^-1 B_k R^-H) = W^-T B_k: the
                # matrix of W^-1.
                r_inv = np.sqrt(s)[:, :, None] * (vh @ np.linalg.inv(lx))
                self.winv = hvec(
                    r_inv[:, None]
                    @ hermitian_basis(d)
                    @ r_inv.conj().transpose(0, 2, 1)[:, None]
                )
                self.winv_t = np.ascontiguousarray(np.swapaxes(self.winv, 1, 2))
        self.lam = np.zeros_like(x)
        self.lam[:, :d] = s
        self._dim = d
        self._sig = s

    def solve(self, r: np.ndarray) -> np.ndarray:
        s = self._sig
        return hvec(2.0 * unhvec(r, self._dim) / (s[:, :, None] + s[:, None, :]))

    def least_eig(self, delta: np.ndarray) -> np.ndarray:
        s_isqrt = 1.0 / np.sqrt(self._sig)
        t = unhvec(delta, self._dim) * s_isqrt[:, :, None] * s_isqrt[:, None, :]
        t = 0.5 * (t + np.swapaxes(t.conj(), -1, -2))
        # eigvalsh raises on a single non-finite block; such a block gets
        # no eigenvalue (nan) instead, which the backtracking then rejects.
        finite = np.isfinite(t).all(axis=(-2, -1))
        if finite.all():
            return np.linalg.eigvalsh(t)[..., 0]
        least = np.full(t.shape[:-2], np.nan)
        least[finite] = np.linalg.eigvalsh(t[finite])[..., 0]
        return least


class _Group:
    """Blocks of one common dimension, batched, and their cone.

    A group owns the columns col_start:col_stop of the solver's flat
    vectors, d^2 cone coordinates per block, and offers the same operations
    whatever its cone: the coordinate maps, the NT scaling ``nt(x, z)``,
    the Jordan product ``jordan(u, v)`` and the strict-interior test
    ``interior(x)``, per block. A scaling is its matrices, one (d^2, d^2)
    per block and (n, d^2, d^2) per group: ``w`` of W and ``wt`` of W^T,
    whose product W^T W is the Schur kernel H with H z = x, and, built with
    ``inverse`` for the null-space form, ``winv`` of W^-1 and ``winv_t`` of
    W^-T. PreparedSdp applies any of them with one matrix-vector product
    per block and scales the Schur rows with ``wt`` or ``winv``. A scaling
    also holds the scaled point ``lam`` = W z = W^-T x, solves lam o g = r
    (``solve``) and gives, per block, the least eigenvalue of a scaled
    direction in lam's frame (``least_eig``), which bounds the step; a
    Hermitian scaling also flags in ``bad`` the blocks it could not scale.
    ``row_blocks`` holds the group's columns of the rows that each Newton
    step scales and factors, shape (k, n, r, d^2) for a stack of k
    programs, once the program is built: the r = m reduced constraint rows
    A in the range form, the r = p rows of F^T in the null-space form.
    """

    __slots__ = ("dim", "blocks", "col_start", "col_stop", "row_blocks")

    def __init__(self, dim: int, blocks: list[int], col_start: int) -> None:
        self.dim = dim
        self.blocks = blocks
        self.col_start = col_start
        self.col_stop = col_start + len(blocks) * dim * dim

    def seg(self, vecs: np.ndarray) -> np.ndarray:
        """The group's blocks of instance rows (k, n_cols), as (k * n, d^2)
        rows in instance-major order."""
        return vecs[:, self.col_start : self.col_stop].reshape(-1, self.dim * self.dim)

    def dual_coords(self, h: np.ndarray) -> np.ndarray:
        """Cone coordinates of dual-side vectors (objective, constraint
        columns) given in hvec coordinates, batched over leading axes."""
        return h

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """The blocks of a primal vector in cone coordinates, shape (n, d, d)."""
        return unhvec(x, self.dim)

    # Subclasses set nt, the class of their scaling, and x0 and z0, the
    # cone coordinates of the identity block on the primal and the dual
    # side: the starting point. z0 is also the centering direction, since
    # the scaled frame aims at lam o lam = sigma mu z0.

    # Weight of each coordinate in the Frobenius norm of a dual-side vector.
    dual_weight = 1.0


class _OrthantGroup(_Group):
    """1x1 blocks: the nonnegative orthant."""

    __slots__ = ()

    x0 = z0 = _read_only(np.ones(1))

    nt = _OrthantScaling

    @staticmethod
    def jordan(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u * v

    @staticmethod
    def interior(x: np.ndarray) -> np.ndarray:
        return x[:, 0] > 0


class _LorentzGroup(_Group):
    """2x2 blocks as Lorentz cones. A primal block X has cone coordinates
    x = Q hvec(X) / sqrt(2) and a dual block Z has z = sqrt(2) Q hvec(Z),
    where Q maps (h0, h1) to ((h0 + h1), (h0 - h1)) / sqrt(2). Then
    x.z = tr(XZ), x_0 +- |x_1| are X's eigenvalues, and X o Z = (XZ + ZX)/2
    has the Pauli coordinates of the cone's Jordan product x o z."""

    __slots__ = ()

    def dual_coords(self, h: np.ndarray) -> np.ndarray:
        return h @ _SOC_M

    def matrices(self, x: np.ndarray) -> np.ndarray:
        return unhvec(x @ _SOC_M, 2)

    x0 = _read_only(np.array([1.0, 0.0, 0.0, 0.0]))
    z0 = _read_only(np.array([2.0, 0.0, 0.0, 0.0]))

    # |Z|_F^2 = |z|^2 / 2 in dual cone coordinates.
    dual_weight = 0.5

    nt = _LorentzScaling

    @staticmethod
    def jordan(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out[:, 0] = np.vecdot(u, v)
        out[:, 1:] = u[:, :1] * v[:, 1:] + v[:, :1] * u[:, 1:]
        return out

    @staticmethod
    def interior(x: np.ndarray) -> np.ndarray:
        return _soc_bounds(x)[0] > 0


class _HermitianGroup(_Group):
    """d x d Hermitian blocks, d >= 3, in hvec coordinates."""

    __slots__ = ("x0", "z0")

    def __init__(self, dim: int, blocks: list[int], col_start: int) -> None:
        super().__init__(dim, blocks, col_start)
        self.x0 = self.z0 = hvec(np.eye(dim))

    nt = _HermitianScaling

    def jordan(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        um = unhvec(u, self.dim)
        vm = unhvec(v, self.dim)
        return hvec(0.5 * (um @ vm + vm @ um))

    def interior(self, x: np.ndarray) -> np.ndarray:
        mats = unhvec(x, self.dim)
        try:
            np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            return np.array([_positive_definite(mat) for mat in mats], dtype=bool)
        return np.ones(len(mats), dtype=bool)


def _positive_definite(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _make_group(dim: int, blocks: list[int], col_start: int) -> _Group:
    """The block dimension picks the cone."""
    if dim == 1:
        return _OrthantGroup(dim, blocks, col_start)
    if dim == 2:
        return _LorentzGroup(dim, blocks, col_start)
    return _HermitianGroup(dim, blocks, col_start)


def _block_starts(dims) -> np.ndarray:
    """Offsets of each block's d_j^2 hvec columns in block order, and the total."""
    return np.cumsum((0,) + tuple(d * d for d in dims))


def _qr(mats: np.ndarray):
    """Reduced QR factors of each (n, m) matrix of a stack, m <= n, with
    each Q in Fortran order.

    Both branches run LAPACK's dgeqrf and dorgqr on each matrix and give the
    same bits: one matrix goes to LAPACK directly, which is faster than
    np.linalg.qr's wrapper, and a stack goes through np.linalg.qr, which
    loops over it in C. The memory order of Q is part of the result: it
    picks the BLAS kernel of every product with Q, and so its rounding."""
    if len(mats) > 1:
        q, r = np.linalg.qr(mats)
        return q.transpose(0, 2, 1).copy().transpose(0, 2, 1), r
    m = mats.shape[2]
    qr, tau, _, _ = scipy.linalg.lapack.dgeqrf(mats[0])
    q, _, _ = scipy.linalg.lapack.dorgqr(qr[:, :m], tau)
    return q[None], np.triu(qr[:m])[None]


def _failed_solution(message: str) -> SdpSolution:
    """The solution of a program whose equalities have no solution."""
    return SdpSolution(
        status=STATUS_NUMERICAL_FAILURE,
        primal_value=np.nan,
        dual_value=np.nan,
        gap=np.nan,
        primal_infeasibility=np.nan,
        dual_infeasibility=np.nan,
        iterations=0,
        block_values=[],
        message=message,
    )


def _independent_rows(a_mat: np.ndarray, b: np.ndarray):
    """The sorted indices of the rows of a_mat that a pivoted QR factorization
    keeps as independent, and a message when the dropped rows' right-hand
    sides contradict the kept ones (None when they agree)."""
    if b.size == 0:
        return np.zeros(0, dtype=int), None
    _, r, perm = scipy.linalg.qr(a_mat.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    thresh = RANK_TOL * max(1.0, diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > thresh))
    keep = np.sort(perm[:rank])
    drop = np.sort(perm[rank:])
    if drop.size:
        # Dependent rows must also be consistent in their right-hand sides,
        # otherwise the equalities have no solution at all.
        w, *_ = np.linalg.lstsq(a_mat[keep].T, a_mat[drop].T, rcond=None)
        resid = np.max(np.abs(w.T @ b[keep] - b[drop]))
        if resid > 1e-8 * (1.0 + np.max(np.abs(b))):
            return keep, f"equality constraints are inconsistent (residual {resid:.2e})"
    return keep, None


def _null_space_form(m: int, n_cols: int) -> bool:
    """Whether a program of m independent rows over n_cols coordinates
    takes the null-space Newton form: no more free coordinates than rows.

    At p = m both forms factor an N x m matrix per step, and the null-space
    form skips the range form's per-instance triangular solves and
    refinement passes. The rule stops there because the null-space steps
    converge badly on wider programs: with p > m forced into the null form,
    conj1's full JM stacks (17, 36) took 558-900 iterations against
    104-212 in the range form and its (21, 68) stacks 619-2,715 against
    178-380, with 3 to 16 instances per group ending short of Optimal; the
    certify half programs (20, 132) and (23, 260) took 543 and 633
    iterations against 67 and 79, with 3 instances short of Optimal in
    each."""
    return n_cols - m <= m


def _null_space(a: np.ndarray):
    """F, an orthonormal basis of null(A) as columns, and the
    pseudo-inverses A^+ = A^T (A A^T)^-1 and (A^T)^+ = (A A^T)^-1 A of a
    full-row-rank (m, N) matrix, all from one complete QR factorization
    A^T = [Q_1 F] [R_1; 0]: (A^T)^+ = R_1^-1 Q_1^T."""
    m = len(a)
    q, r = scipy.linalg.qr(a.T)
    at_pinv = scipy.linalg.solve_triangular(r[:m], q[:, :m].T)
    return q[:, m:], np.ascontiguousarray(at_pinv.T), at_pinv


_PROGRAM_SLOTS = ("a", "row_blocks", "a_pinv", "at_pinv")


class _Active:
    """IPM state of the instances still iterating, one row per instance:
    its position in the batch, program (the constraint rows ``a``, each
    group's ``row_blocks`` and, in the null-space form, the pseudo-inverses
    ``a_pinv`` of A and ``at_pinv`` of A^T; None in the range form),
    objective, iterate, residuals, complementarity mu, stall count and best
    iterate so far (x, its (int_p, int_d, pinf, dinf), score). The program
    arrays of a stack of one hold one row, which every instance shares: keep
    slices them only when they hold a row per instance."""

    __slots__ = (
        "index", "c", "dinf_scale", "x", "z", "y", "rp", "rd", "rp_tol", "mu",
        "stall", "best_x", "best_stats", "best_score",
    ) + _PROGRAM_SLOTS

    def keep(self, rows: np.ndarray) -> None:
        for name in self.__slots__:
            if name not in _PROGRAM_SLOTS:
                setattr(self, name, getattr(self, name)[rows])
        if len(self.a) == len(rows):
            self.a = self.a[rows]
            self.row_blocks = [blocks[rows] for blocks in self.row_blocks]
            if self.a_pinv is not None:
                self.a_pinv = self.a_pinv[rows]
                self.at_pinv = self.at_pinv[rows]


class PreparedSdp:
    """Constraint-side preprocessing, reusable across objectives.

    Preparing once and re-solving with fresh objectives is what the
    alternating optimization in the witness module leans on; the plain
    solve() entry point prepares and solves in one go. solve_with maximizes
    one objective and solve_batch several side by side.
    """

    def __init__(self, dims, a, b) -> None:
        """``a`` holds one equality row per entry of ``b`` over the hvec
        coordinates of every block, d_j^2 columns per block in block order:
        one program, shape (m, n_cols), or a stack of k programs that share
        the block dimensions and ``b``, shape (k, m, n_cols). One program is
        a stack of one. Redundant rows are found per program, and a stack
        whose programs keep different rows raises ValueError."""
        self.dims = tuple(int(d) for d in dims)
        by_dim: dict[int, list[int]] = {}
        for j, d in enumerate(self.dims):
            by_dim.setdefault(d, []).append(j)
        self.groups: list[_Group] = []
        col = 0
        for d in sorted(by_dim):
            g = _make_group(d, by_dim[d], col)
            self.groups.append(g)
            col = g.col_stop
        self.n_cols = col

        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        m = b.size
        stack = a[None] if a.ndim == 2 else a
        if b.ndim != 1 or stack.ndim != 3 or stack.shape[1:] != (m, self.n_cols):
            raise ValueError(
                f"expected a ({m}, {self.n_cols}) constraint matrix or a stack of them"
            )
        if len(stack) == 0:
            raise ValueError("a stack needs at least one program")
        if not (np.isfinite(stack).all() and np.isfinite(b).all()):
            raise ValueError("equality rows must be finite")
        # One gather regroups the block-order columns by dimension; the
        # objectives take the same gather.
        block_start = _block_starts(self.dims)
        self._order = np.concatenate(
            [
                (block_start[g.blocks][:, None] + np.arange(g.dim * g.dim)).ravel()
                for g in self.groups
            ]
        )
        a_mat = stack[:, :, self._order]

        # Per program, a message when its equalities have no solution.
        self.failures: list = []
        keep = None
        for rows in a_mat:
            kept, failure = _independent_rows(rows, b)
            if keep is not None and not np.array_equal(kept, keep):
                raise ValueError("the programs of a stack must keep the same rows")
            keep = kept
            self.failures.append(failure)
        self.a_red = a_mat[:, keep]
        self.b_red = b[keep]
        self.m = self.a_red.shape[1]

        # The IPM works in cone coordinates: a_red's columns of each group
        # are the dual-side images of its hvec columns.
        k = len(a_mat)
        for g in self.groups:
            cols = slice(g.col_start, g.col_stop)
            shape = (k, self.m, len(g.blocks), g.dim * g.dim)
            a3 = g.dual_coords(self.a_red[:, :, cols].reshape(shape))
            self.a_red[:, :, cols] = a3.reshape(self.a_red[:, :, cols].shape)
            g.row_blocks = np.ascontiguousarray(a3.transpose(0, 2, 1, 3))

        # The Newton form follows from the shape alone: with p = n_cols - m
        # free coordinates against m rows, the null-space form factors
        # N x p matrices per step where the range form factors N x m ones.
        self.null_form = _null_space_form(self.m, self.n_cols)
        self._a_pinv = self._at_pinv = None
        if self.null_form:
            null, self._a_pinv, self._at_pinv = (
                np.array(parts) for parts in zip(*map(_null_space, self.a_red))
            )
            p = self.n_cols - self.m
            for g in self.groups:
                shape = (k, len(g.blocks), g.dim * g.dim, p)
                f3 = null[:, g.col_start : g.col_stop].reshape(shape)
                g.row_blocks = np.ascontiguousarray(f3.transpose(0, 1, 3, 2))
        self._x_start = self._concat(lambda g: g.x0)
        self._z_start = self._concat(lambda g: g.z0)
        self._dual_weight = self._concat(lambda g: np.full(g.dim * g.dim, g.dual_weight))
        self._degree = float(self._x_start @ self._z_start)

    # -- helpers ----------------------------------------------------------

    def _concat(self, per_block) -> np.ndarray:
        """One flat vector holding per_block(g) for every block of every group."""
        return np.concatenate(
            [
                np.broadcast_to(per_block(g), (len(g.blocks), g.dim * g.dim)).ravel()
                for g in self.groups
            ]
        )

    def _cone_objectives(self, objectives: np.ndarray) -> np.ndarray:
        """Block-order hvec objectives (k, n_cols), negated for the IPM,
        which minimizes, regrouped by dimension and mapped to each group's
        dual cone coordinates."""
        # C order: row reductions over an instance must not see its
        # neighbours, and fancy indexing along columns can leave F order.
        h = -np.ascontiguousarray(objectives[:, self._order])
        k = len(h)
        return np.concatenate(
            [g.dual_coords(g.seg(h)).reshape(k, -1) for g in self.groups], axis=1
        )

    def _per_group(self, k: int, fn) -> np.ndarray:
        """Instance rows (k, n_cols) assembled from fn(group_index, group),
        each returning the group's (k * n, d^2) block rows."""
        if len(self.groups) == 1:
            return fn(0, self.groups[0]).reshape(k, -1)
        out = np.empty((k, self.n_cols))
        for gi, g in enumerate(self.groups):
            out[:, g.col_start : g.col_stop] = fn(gi, g).reshape(k, -1)
        return out

    # -- main solve -------------------------------------------------------

    def solve_with(
        self,
        objective,
        gap_tol: float = DEFAULT_GAP_TOL,
        feas_tol: float = DEFAULT_FEAS_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
    ) -> SdpSolution:
        """Maximize one objective, given like a row of the constraint
        matrix: the hvec coordinates of each block's coefficient, d_j^2 per
        block in block order. It runs the IPM of solve_batch on a batch of
        one."""
        (sol,) = self._solve(
            np.asarray(objective, dtype=np.float64)[None], gap_tol, feas_tol, max_iter
        )
        return sol

    def solve_batch(
        self,
        objectives,
        gap_tol: float = DEFAULT_GAP_TOL,
        feas_tol: float = DEFAULT_FEAS_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
    ) -> list:
        """Maximize each row of ``objectives`` (k, n_cols), laid out as for
        solve_with, in one IPM loop over all of them: every row over a
        program of one, or row i over program i of a stack of k. Solution i
        is bit for bit the one solve_with gives for objective i alone over
        its program alone. An instance whose program's equalities have no
        solution ends NumericalFailure at once. A batch of one is handed to
        solve_with, the one entry point that sees every single solve."""
        objectives = np.asarray(objectives, dtype=np.float64)
        if objectives.ndim == 2 and len(objectives) == 1:
            return [self.solve_with(objectives[0], gap_tol, feas_tol, max_iter)]
        return self._solve(objectives, gap_tol, feas_tol, max_iter)

    def _solve(self, objectives, gap_tol, feas_tol, max_iter) -> list:
        """The IPM behind solve_with and solve_batch, on (k, n_cols)
        objectives."""
        if objectives.ndim != 2 or objectives.shape[1] != self.n_cols:
            raise ValueError(f"expected objectives of {self.n_cols} hvec coordinates")
        if not np.isfinite(objectives).all():
            raise ValueError("objectives must be finite")
        k_in = len(objectives)
        n_programs = len(self.a_red)
        if n_programs not in (1, k_in):
            raise ValueError(
                f"a stack of {n_programs} programs takes one objective each"
            )
        if k_in == 0:
            return []
        failures = self.failures * k_in if n_programs == 1 else self.failures
        out: list = [None if f is None else _failed_solution(f) for f in failures]
        live = [i for i, f in enumerate(failures) if f is None]
        if not live:
            return out

        b = self.b_red
        weight = self._dual_weight
        k_total = self._degree
        norm_b = np.linalg.norm(b)
        k_live = len(live)

        st = _Active()
        st.index = np.array(live)
        # A program of one stays one row that every instance shares.
        programs = slice(None) if n_programs == 1 else live
        st.a = self.a_red[programs]
        st.row_blocks = [g.row_blocks[programs] for g in self.groups]
        st.a_pinv = st.at_pinv = None
        if self.null_form:
            st.a_pinv = self._a_pinv[programs]
            st.at_pinv = self._at_pinv[programs]
        st.c = self._cone_objectives(objectives[live])
        st.dinf_scale = 1.0 + np.sqrt(np.vecdot(st.c, weight * st.c))
        st.x = np.tile(self._x_start, (k_live, 1))
        st.z = np.tile(self._z_start, (k_live, 1))
        st.y = np.zeros((k_live, self.m))
        st.rp = st.rd = np.empty((k_live, 0))
        st.rp_tol = st.mu = np.empty(k_live)
        st.stall = np.zeros(k_live, dtype=int)
        st.best_x = st.x.copy()
        st.best_stats = np.full((k_live, 4), np.nan)
        st.best_score = np.full(k_live, np.inf)
        it = 0

        # Each instance's decisions are taken on Python floats, one
        # instance at a time, which for a batch of one costs no more numpy
        # calls than a solver written for one objective.
        def finish(i: int, status: str, message: str, x_row=None, stats=None) -> None:
            """Store the solution of active instance i at x_row, whose
            (int_p, int_d, pinf, dinf) are stats; by default at its best
            iterate."""
            if x_row is None:
                x_row, stats = st.best_x[i], st.best_stats[i]
            out[st.index[i]] = self._solution(x_row, stats, status, message, it)

        def retire(done: list) -> bool:
            """Drop the active instances in ``done``; True when none is left."""
            if done:
                keep = np.ones(len(st.x), dtype=bool)
                keep[done] = False
                st.keep(keep)
            return len(st.x) == 0

        for it in range(1, max_iter + 1):
            x, z, y, c = st.x, st.z, st.y, st.c
            st.rp = rp = b - _matvec(st.a, x)
            st.rd = rd = c - _matvec(np.swapaxes(st.a, 1, 2), y) - z
            all_int_p = np.vecdot(c, x).tolist()
            all_int_d = np.vecdot(y, b).tolist()
            rp_norm = np.sqrt(np.vecdot(rp, rp))
            # The Newton refinement stops once |rp - A dx| <= 1e-15 (1 + |rp|).
            st.rp_tol = (1e-15 * (1.0 + rp_norm)) ** 2
            all_pinf = (rp_norm / (1.0 + norm_b)).tolist()
            all_dinf = (np.sqrt(np.vecdot(rd, weight * rd)) / st.dinf_scale).tolist()
            st.mu = np.vecdot(x, z) / k_total
            all_mu = st.mu.tolist()
            done = []
            for i, now in enumerate(zip(all_int_p, all_int_d, all_pinf, all_dinf)):
                int_p, int_d, pinf, dinf = now
                if not (
                    math.isfinite(int_p) and math.isfinite(int_d) and math.isfinite(pinf)
                ):
                    message = "non-finite iterate"
                    if st.best_score[i] < np.inf:
                        finish(i, STATUS_NUMERICAL_FAILURE, message)
                    else:
                        # No best iterate yet: the current one, with its
                        # objective values unknown.
                        unknown = (np.nan, np.nan, pinf, dinf)
                        finish(i, STATUS_NUMERICAL_FAILURE, message, x[i], unknown)
                    done.append(i)
                    continue
                gap_int = abs(int_p - int_d)
                score = max(pinf / feas_tol, dinf / feas_tol, gap_int / gap_tol)
                if score < st.best_score[i]:
                    st.best_score[i] = score
                    st.best_x[i] = x[i]
                    st.best_stats[i] = now
                if pinf <= feas_tol and dinf <= feas_tol and gap_int <= gap_tol:
                    finish(i, STATUS_OPTIMAL, "", x[i], now)
                    done.append(i)
                elif all_mu[i] == 0.0:
                    # x.z underflowed short of the tolerances; the centering
                    # weight below divides by it.
                    finish(i, STATUS_NUMERICAL_FAILURE, "complementarity vanished")
                    done.append(i)
            if retire(done):
                break

            # Nesterov-Todd scaling per group, the scaled point
            # lam = W z = W^-T x common to both sides, and the Schur
            # factors. An instance whose scaling or factorization fails
            # retires with its best iterate, and the others are scaled
            # again without it.
            while True:
                k = len(st.x)
                scal = [
                    g.nt(g.seg(st.x), g.seg(st.z), self.null_form)
                    for g in self.groups
                ]
                bad = [
                    s.bad.reshape(k, -1).any(axis=1)
                    for s in scal
                    if isinstance(s, _HermitianScaling)
                ]
                failed = np.flatnonzero(np.any(bad, axis=0)).tolist() if bad else []
                message = "iterate left the positive cone"
                if not failed:
                    # The Newton system reduces to the Schur complement
                    # A H A^T with H = W^T W, or in the null-space form to
                    # F^T H^-1 F. Either is factored as R^T R from a QR
                    # factorization of its scaled rows, A W^T or F^T W^-1:
                    # forming H or the Schur complement itself would square
                    # the conditioning of blocks near the boundary, and near
                    # a degenerate optimum that leaves a primal residual the
                    # steps cannot remove.
                    fac, failed = self._factor_scaled_rows(st.row_blocks, scal, k)
                    message = "Schur complement factorization failed"
                if not failed:
                    break
                for i in failed:
                    finish(i, STATUS_NUMERICAL_FAILURE, message)
                if retire(failed):
                    break
            if len(st.x) == 0:
                break

            x, z, y, mu = st.x, st.z, st.y, st.mu
            w_rd = self._scaled(k, scal, "w", st.rd)
            # The null-space form's particular step W^-T A^+ rp serves every
            # Newton solve of the iteration.
            dxs_p = None
            if self.null_form:
                dxs_p = self._scaled(k, scal, "winv_t", _matvec(st.a_pinv, st.rp))
            lam = self._per_group(k, lambda gi, g: scal[gi].lam)

            # Predictor: aim straight at the boundary; its dy is never used.
            dx_a, _, dz_a, dxs_a, dzs_a = self._newton(
                st, -lam, scal, w_rd, dxs_p, fac, want_dy=False
            )
            ap_aff, ad_aff = np.minimum(1.0, self._max_steps(k, scal, dxs_a, dzs_a))
            mu_aff = np.vecdot(x + ap_aff[:, None] * dx_a, z + ad_aff[:, None] * dz_a) / k_total
            sigma_mu = np.array(
                [
                    min(1.0, max(0.0, (max(m_aff, 0.0) / m) ** 3)) * m
                    for m, m_aff in zip(mu.tolist(), mu_aff.tolist())
                ]
            )

            # Corrector with the Mehrotra second-order term, assembled in the
            # scaled frame where x and z both map to lam. If the corrected
            # step collapses, retry without the second-order term (plain
            # centering), which is the standard safeguard.
            def corrector_direction(with_second_order: bool):
                def rhs(gi, g):
                    s = scal[gi]
                    target = np.repeat(sigma_mu, len(g.blocks))[:, None] * g.z0
                    r = target - g.jordan(s.lam, s.lam)
                    if with_second_order:
                        r = r - g.jordan(g.seg(dxs_a), g.seg(dzs_a))
                    return s.solve(r)

                gt = self._per_group(k, rhs)
                dx, dy, dz, dxs, dzs = self._newton(st, gt, scal, w_rd, dxs_p, fac)
                steps = self._max_steps(k, scal, dxs, dzs)
                ap, ad = np.minimum(1.0, _STEP_FRACTION * steps)
                return dx, dy, dz, ap, ad

            dx, dy, dz, ap, ad = corrector_direction(True)
            short = [
                i
                for i, (p, d) in enumerate(zip(ap.tolist(), ad.tolist()))
                if min(p, d) < 0.2
            ]
            if short:
                # Computed for every instance, kept where it is the better step.
                dx2, dy2, dz2, ap2, ad2 = corrector_direction(False)
                for i in short:
                    if min(ap2[i], ad2[i]) > min(ap[i], ad[i]):
                        dx[i], dy[i], dz[i] = dx2[i], dy2[i], dz2[i]
                        ap[i], ad[i] = ap2[i], ad2[i]

            # Eigenvalue-based step bounds can overshoot at extreme
            # conditioning; halve until the update verifiably stays in the
            # cone rather than letting the next scaling blow up.
            ap, st.x = self._backtrack_into_cone(x, dx, ap)
            ad, st.z = self._backtrack_into_cone(z, dz, ad)
            st.y = y + ad[:, None] * dy

            collapsed = []
            for i, step in enumerate(np.maximum(ap, ad).tolist()):
                if step >= 1e-8:
                    st.stall[i] = 0
                    continue
                st.stall[i] += 1
                if st.stall[i] >= 3:
                    finish(i, STATUS_NUMERICAL_FAILURE, "step length collapsed")
                    collapsed.append(i)
            if retire(collapsed):
                break

        for i in range(len(st.x)):
            finish(i, STATUS_MAX_ITERATIONS, f"no convergence in {max_iter} iterations")
        return out

    def _solution(self, x_row, stats, status, message, iterations):
        """The SdpSolution of a primal iterate in cone coordinates, given its
        (int_p, int_d, pinf, dinf) for the negated objective."""
        int_p, int_d, pinf, dinf = (float(v) for v in stats)
        # 0.0 - v rather than -v: an exact zero stays +0.0.
        primal = 0.0 - int_p
        dual = 0.0 - int_d
        block_values = [None] * len(self.dims)
        for g in self.groups:
            mats = g.matrices(g.seg(x_row[None]))
            for pos, j in enumerate(g.blocks):
                block_values[j] = mats[pos]
        return SdpSolution(
            status=status,
            primal_value=primal,
            dual_value=dual,
            gap=abs(primal - dual),
            primal_infeasibility=pinf,
            dual_infeasibility=dinf,
            iterations=iterations,
            block_values=block_values,
            message=message,
        )

    # -- numerical pieces -------------------------------------------------

    def _factor_scaled_rows(self, row_blocks, scal, k: int):
        """Q and R of each instance's scaled rows, transposed, given each
        group's row_blocks, and the list of the instances whose R is
        singular (when not empty, no factors). The range form factors
        (A W^T)^T = W A^T, N x m; the null-space form, taken when
        p = N - m <= m, factors W^-T F, N x p."""
        r_rows = self.n_cols - self.m if self.null_form else self.m
        if r_rows == 0:
            return (np.zeros((k, self.n_cols, 0)), np.zeros((k, 0, 0))), []
        parts = []
        for g, blocks, s in zip(self.groups, row_blocks, scal):
            d2 = g.dim * g.dim
            scale = s.winv if self.null_form else s.wt
            rows = np.matmul(blocks, scale.reshape(k, len(g.blocks), d2, d2))
            parts.append(rows.transpose(0, 1, 3, 2).reshape(k, -1, r_rows))
        q, r = _qr(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        if not ((diag > 1e-300).all() and np.isfinite(r).all()):
            regular = (diag > 1e-300).all(axis=1) & np.isfinite(r).all(axis=(1, 2))
            return None, np.flatnonzero(~regular).tolist()
        return (q, r), []

    def _scaled(self, k: int, scal, op: str, vecs: np.ndarray) -> np.ndarray:
        """Apply each group's W (op "w"), W^T ("wt"), W^-1 ("winv") or W^-T
        ("winv_t") to instance rows: one product per block."""
        mats = [getattr(s, op) for s in scal]
        return self._per_group(k, lambda gi, g: _matvec(mats[gi], g.seg(vecs)))

    def _newton(self, st: _Active, gt, scal, w_rd, dxs_p, fac, want_dy=True):
        """Solve the scaled Newton system

            A dx = rp,   A^T dy + dz = rd,   W^-T dx + W dz = gt

        per instance row for (dx, dy, dz), with A, rp and rd each active
        instance's rows and residuals in ``st``, given the complementarity
        right-hand side gt in the scaled frame and W rd, and return the
        scaled directions W^-T dx and W dz too. fac holds the factors of
        _factor_scaled_rows, whose form the shape of the program picks, and
        dxs_p the null-space form's W^-T A^+ rp (None in the range form).

        Range form (p > m), with Q R = W A^T: the scaled primal direction
        is gt - W rd + Q R dy. Starting from dy = 0, each pass solves
        R^T t = rp - A dx and adds Q t to the scaled direction, so A dx = rp
        holds to the accuracy of Q rather than of the Schur complement; dy
        is R^-1 times the sum of the t. The first pass is the solve; two
        more refine it. An instance stops refining once its squared
        residual is at most rp_tol. The dual residual equation holds by
        construction.

        Null-space form (p <= m), with Q R = W^-T F: dx is A^+ rp plus a
        step F u along the null space of A, so A dx = rp holds through the
        build-time factorization, without a triangular solve or a
        refinement pass. The dual equations ask F^T dz = F^T rd, which makes
        the scaled primal direction dxs_p + Q Q^T h, with
        h = gt - dxs_p - W rd; then dz = W^-1 (gt - W^-T dx) and
        dy = (A^T)^+ (rd - dz), or None when want_dy is false.
        """
        q, r = fac
        k = len(st.rp)
        if self.null_form:
            h = gt - dxs_p - w_rd
            dxs = dxs_p + _matvec(q, _matvec(np.swapaxes(q, 1, 2), h))
            dzs = gt - dxs
            dz = self._scaled(k, scal, "winv", dzs)
            dy = _matvec(st.at_pinv, st.rd - dz) if want_dy else None
            return self._scaled(k, scal, "wt", dxs), dy, dz, dxs, dzs
        a, rp, rd, rp_tol = st.a, st.rp, st.rd, st.rp_tol
        # One LAPACK triangular solve per instance: a batch of one costs what
        # a solver for one objective does, and at the batch sizes of a
        # see-saw probe the loop costs a few percent of an iteration.
        trtrs = scipy.linalg.lapack.dtrtrs
        dxs = gt - w_rd
        dx = self._scaled(k, scal, "wt", dxs)
        going = t_sum = None
        for _ in range(3):
            e1 = rp - _matvec(a, dx)
            more = np.vecdot(e1, e1) > rp_tol
            going = more if going is None else going & more
            n_going = np.count_nonzero(going)
            if n_going == 0:
                break
            t = np.empty_like(e1)
            for i in range(k):
                t[i] = trtrs(r[i], e1[i], trans=1)[0]
            if n_going == k:
                dxs = dxs + _matvec(q, t)
                t_sum = t if t_sum is None else t_sum + t
            else:
                rows = going[:, None]
                np.add(dxs, _matvec(q, t), out=dxs, where=rows)
                if t_sum is None:
                    t_sum = np.where(rows, t, 0.0)
                else:
                    np.add(t_sum, t, out=t_sum, where=rows)
            dx = self._scaled(k, scal, "wt", dxs)
        if t_sum is None:
            dy = np.zeros_like(rp)
        else:
            dy = np.empty_like(rp)
            for i in range(k):
                dy[i] = trtrs(r[i], t_sum[i])[0]
        dz = rd - _matvec(np.swapaxes(a, 1, 2), dy)
        return dx, dy, dz, dxs, self._scaled(k, scal, "w", dz)

    def _interior(self, vecs: np.ndarray) -> np.ndarray:
        """Whether each instance row is finite and lies strictly inside
        every cone."""
        k = len(vecs)
        inside = np.isfinite(vecs).all(axis=1)
        for g in self.groups:
            inside &= g.interior(g.seg(vecs)).reshape(k, -1).all(axis=1)
        return inside

    def _backtrack_into_cone(self, state, delta, alpha, tries: int = 6):
        """Return (alpha, new_state) with each instance's row of new_state
        finite and strictly inside every cone, halving that instance's
        alpha as needed; alpha 0 keeps its old row."""
        trial = state + alpha[:, None] * delta
        ok = self._interior(trial)
        if ok.all():
            return alpha, trial
        alpha = alpha.copy()
        new = state.copy()
        pending = np.ones(len(state), dtype=bool)
        for attempt in range(tries):
            if attempt:
                trial = state + alpha[:, None] * delta
                ok = pending & self._interior(trial)
            np.copyto(new, trial, where=ok[:, None])
            pending &= ~ok
            if not pending.any():
                return alpha, new
            alpha = np.where(pending, alpha * 0.5, alpha)
        alpha[pending] = 0.0
        return alpha, new

    def _max_steps(self, k: int, scal, dxs, dzs) -> np.ndarray:
        """Per instance, the largest alpha with lam + alpha * d still in the
        cone, for d the scaled primal (row 0) and dual (row 1) directions."""
        pair = np.empty((2,) + dxs.shape)
        pair[0] = dxs
        pair[1] = dzs
        least = None
        for g, s in zip(self.groups, scal):
            seg = pair[:, :, g.col_start : g.col_stop].reshape(2, -1, g.dim * g.dim)
            g_least = s.least_eig(seg).reshape(2, k, -1).min(axis=2)
            # fmin: a group without an eigenvalue (nan) bounds nothing.
            least = g_least if least is None else np.fmin(least, g_least)
        return _steps_from_min_eig(least)


def operator_rows(dims, constraints) -> tuple[np.ndarray, np.ndarray]:
    """The constraint matrix and right-hand side that PreparedSdp takes, from
    SdpProblem constraints: one ProgramBuilder scalar row per (coefficients,
    rhs) pair, with None for a zero coefficient."""
    builder = ProgramBuilder(dims)
    for coeffs, rhs in constraints:
        builder.add_scalar_row(
            {j: op.entries for j, op in enumerate(coeffs) if op is not None}, rhs
        )
    return builder.constraint_matrix()


def solve(
    problem: SdpProblem,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdpSolution:
    """Solve one SdpProblem end to end. A minimization maximizes the
    negated objective; its values are negated back, objective_const is added
    to both and the gap is taken between the results."""
    prep = PreparedSdp(problem.dims, *operator_rows(problem.dims, problem.constraints))
    # The objective in the layout of a constraint row.
    (objective,), _ = operator_rows(problem.dims, [(problem.objective, 0.0)])
    sign = 1.0 if problem.maximize else -1.0
    sol = prep.solve_with(sign * objective, gap_tol, feas_tol, max_iter)
    sol.primal_value = sign * sol.primal_value + problem.objective_const
    sol.dual_value = sign * sol.dual_value + problem.objective_const
    sol.gap = abs(sol.primal_value - sol.dual_value)
    return sol


def hermitian_hvec(mats) -> np.ndarray:
    """hvec of the Hermitian part (M + M^H) / 2 of square matrices, batched
    over leading axes: the only part that pairs with the Hermitian basis."""
    mats = np.asarray(mats, dtype=np.complex128)
    return hvec(0.5 * (mats + np.swapaxes(mats.conj(), -1, -2)))


class ProgramBuilder:
    """Accumulates equality constraints as rows of the real constraint matrix
    that PreparedSdp takes: d_j^2 hvec columns per block, in block order.

    An operator equation sum_j T_j = R of dimension d adds d^2 rows, the hvec
    coordinates of both sides; R is a real scalar (d = 1) or a d x d array,
    of which the Hermitian part counts. A term is either a real scalar c
    multiplying a block of dimension d, which writes c I on that block's
    columns, or a d x d array M multiplying a 1x1 (scalar) block, which
    writes the one column hvec((M + M^H) / 2). A scalar row adds one row,
    hvec of the Hermitian part of each coefficient, a d_j x d_j array.
    """

    def __init__(self, dims) -> None:
        self.dims = tuple(int(d) for d in dims)
        self._start = _block_starts(self.dims)
        self._rows: list[np.ndarray] = []
        self._rhs: list[np.ndarray] = []

    def add_scalar_row(self, coeffs: dict, rhs: float) -> None:
        row = np.zeros((1, int(self._start[-1])))
        for j, op in coeffs.items():
            dim = self.dims[j]
            if np.shape(op) != (dim, dim):
                raise ValueError("coefficient dimension mismatch")
            row[0, self._start[j] : self._start[j + 1]] = hermitian_hvec(op)
        self._rows.append(row)
        self._rhs.append(np.array([float(rhs)]))

    def add_operator_equation(self, terms: dict, rhs) -> None:
        if np.ndim(rhs) == 2:
            rhs_vec = hermitian_hvec(rhs)
        else:
            rhs_vec = np.array([float(rhs)])
        d2 = rhs_vec.size
        dim = math.isqrt(d2)
        rows = np.zeros((d2, int(self._start[-1])))
        scalar_cols, scalars = [], []
        for j, coeff in terms.items():
            if isinstance(coeff, np.ndarray):
                if self.dims[j] != 1:
                    raise ValueError(
                        "matrix-valued terms are only supported on scalar blocks"
                    )
                if coeff.shape != (dim, dim):
                    raise ValueError("matrix term does not match equation dimension")
                rows[:, self._start[j]] = hermitian_hvec(coeff)
            else:
                if self.dims[j] != dim:
                    raise ValueError(
                        f"block {j} has dimension {self.dims[j]}, equation needs {dim}"
                    )
                scalar_cols.append(self._start[j])
                scalars.append(float(coeff))
        if scalars:
            # c I in hvec coordinates: row k reads coordinate k of each block.
            k = np.arange(d2)
            rows[k, np.add.outer(scalar_cols, k)] = np.asarray(scalars)[:, None]
        self._rows.append(rows)
        self._rhs.append(rhs_vec)

    def constraint_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows so far and their right-hand sides, in block order."""
        if not self._rows:
            return np.zeros((0, int(self._start[-1]))), np.zeros(0)
        return np.concatenate(self._rows), np.concatenate(self._rhs)

    def prepared(self) -> PreparedSdp:
        return PreparedSdp(self.dims, *self.constraint_matrix())
