"""Certified critical visibilities for joint measurability and for local
hidden-state models, plus a closed form for unbiased qubit pairs.

Both certificates solve one parent-search program, which maximizes the
visibility v at which the depolarized target (measurement set or
assemblage) still admits the classical parent structure, capped at 1. v and
its slack s are the diagonal of one 2x2 block V, and the cap is tr V = 1, so
the program's blocks are all 2x2 and form one Lorentz-cone group. A verdict
is only issued when the solver converged; the compatibility side
additionally requires the optimum to clear 1 by the verdict margin.

Unbiased targets take a program of half the size. theta(X) = tr(X) I - X
is a positive involution of qubit operators. For an unbiased measurement
set, or its assemblage on a state whose reduced state is I/2, it maps a
feasible parent G_lam to another, theta(G_not_lam), with the same v; their
average is feasible with that v and has G_not_lam = theta(G_lam), so the
optimum keeps its value on the 2^(n-1) blocks with lam_1 = 0 (the input
alone picks the form, and a batch is split by form).

Depolarizing composes, depolarize(depolarize(S, p), w) = depolarize(S, p w),
for measurements (noise I/2) and assemblages (noise tr sigma I/2) alike. So
for w in (0, 1] the capped critical visibility transports exactly,
crit(depolarize(S, w)) = min(1, crit(S) / w), also when the cap binds
(crit(S) = 1 means the uncapped optimum is at least 1 >= w).
CertificationReport.depolarized applies this to a solved report and gives
the report of the depolarized target without another solve.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .quantum import Assemblage, MeasurementSet, bloch_from_povm, check_binary_qubit
from .sdp import STATUS_OPTIMAL, PreparedSdp, ProgramBuilder, hermitian_hvec
from .tolerances import (
    DEFAULT_FEAS_TOL,
    DEFAULT_GAP_TOL,
    STRUCTURAL_TOL,
    VERDICT_MARGIN_FACTOR,
)

KIND_JOINT_MEASURABILITY = "JointMeasurability"
KIND_LOCAL_HIDDEN_STATE = "LocalHiddenState"

MAX_SETTINGS = 8

_HALF = 0.5 * np.eye(2, dtype=np.complex128)

# theta(X) = tr(X) I - X in hvec coordinates (X_00, X_11, then X_01's two):
# swap the diagonal, negate the rest.
_THETA = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1.0]])

# Verdict pair (target admits the parent structure, it does not) per kind.
_VERDICTS = {
    KIND_JOINT_MEASURABILITY: ("Compatible", "Incompatible"),
    KIND_LOCAL_HIDDEN_STATE: ("Unsteerable", "Steerable"),
}


def _verdict(kind: str, status: str, crit: float, gap_tol: float) -> str:
    """Inconclusive unless the solve converged; otherwise the kind's yes
    verdict when crit clears 1 by the verdict margin, else its no."""
    if status != STATUS_OPTIMAL:
        return "Inconclusive"
    yes, no = _VERDICTS[kind]
    return yes if crit >= 1.0 - VERDICT_MARGIN_FACTOR * gap_tol else no


@dataclass(frozen=True)
class CertificationReport:
    kind: str
    critical_visibility: float
    verdict: str
    status: str
    solver_gap: float

    def depolarized(
        self, w: float, gap_tol: float = DEFAULT_GAP_TOL
    ) -> "CertificationReport":
        """The report of this report's target depolarized to visibility w,
        without a solve: critical visibility min(1, crit / w), the same
        status, the solver gap scaled by 1 / w and the verdict recomputed.
        Raises ValueError unless 0 < w <= 1."""
        if not 0.0 < w <= 1.0:
            raise ValueError(f"visibility must lie in (0, 1], got {w!r}")
        crit = min(1.0, self.critical_visibility / w)
        return CertificationReport(
            kind=self.kind,
            critical_visibility=crit,
            verdict=_verdict(self.kind, self.status, crit, gap_tol),
            status=self.status,
            solver_gap=self.solver_gap / w,
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "CertificationReport":
        return cls(
            kind=str(data["kind"]),
            critical_visibility=float(data["critical_visibility"]),
            verdict=str(data["verdict"]),
            status=str(data["status"]),
            solver_gap=float(data["solver_gap"]),
        )


def check_jm_input(mset: MeasurementSet) -> None:
    """Raise ValueError unless jm_critical_visibility accepts the set:
    two-outcome qubit measurements, at most MAX_SETTINGS of them."""
    check_binary_qubit(mset)
    if mset.n > MAX_SETTINGS:
        raise ValueError(f"parent search is exponential in n; refusing n > {MAX_SETTINGS}")


def check_lhs_input(assemblage: Assemblage) -> None:
    """Raise ValueError unless lhs_critical_visibility accepts the
    assemblage: two outcomes on a qubit, at most MAX_SETTINGS settings."""
    if assemblage.dim != 2 or assemblage.n_outcomes != 2:
        raise ValueError("expected a two-outcome qubit assemblage")
    if assemblage.n_settings > MAX_SETTINGS:
        raise ValueError(f"model search is exponential in n; refusing n > {MAX_SETTINGS}")


def _report(kind: str, sol, gap_tol: float) -> CertificationReport:
    """The report of a parent-search solution: its optimum v, clipped to
    [0, 1], and the verdict on it."""
    crit = min(1.0, max(0.0, sol.primal_value))
    return CertificationReport(
        kind=kind,
        critical_visibility=crit,
        verdict=_verdict(kind, sol.status, crit, gap_tol),
        status=sol.status,
        solver_gap=sol.gap,
    )


def _theta_symmetric(targets: np.ndarray, noises: np.ndarray) -> np.ndarray:
    """Per target, whether T_0 = N_0 = c I and tr T_x = tr N_x = c for every
    x >= 1, to STRUCTURAL_TOL."""
    both = np.stack(np.broadcast_arrays(targets, noises), axis=1)
    c = 0.5 * np.trace(noises[0]).real
    scalar = np.abs(both[:, :, 0] - c * np.eye(2)).max(axis=(1, 2, 3))
    traces = np.abs(np.trace(both[:, :, 1:], axis1=3, axis2=4) - c).max(axis=(1, 2))
    return np.maximum(scalar, traces) <= STRUCTURAL_TOL


def _parent_search(targets, noises, kind: str, gap_tol: float, feas_tol: float) -> list:
    """Per entry of ``targets``, a list of 2x2 targets T_x, the largest v at
    which PSD parent blocks G_lam, one per response string lam in {0,1}^n,
    reproduce v T_x + (1 - v) N_x for each noise N_x of ``noises``, capped
    at 1: one report per entry, in input order.

    A theta-symmetric target (_theta_symmetric: an unbiased set, c = 1, or
    its assemblage on a state with rho_B = I/2, c = 1/2) has an optimal
    parent with G_not_lam = theta(G_lam). theta maps the sum over lam_x = 1
    of a feasible G, c I - N_x - v (T_x - N_x), to N_x + v (T_x - N_x), so
    lam -> theta(G_not_lam) is feasible with the same v, and so is its
    average with G. These targets take _parent_stack's half program and the
    others the full one, each form one stack.
    """
    targets = np.asarray(targets, dtype=np.complex128)
    noises = np.asarray(noises, dtype=np.complex128)
    half = _theta_symmetric(targets, noises)
    reports = [None] * len(targets)
    for form in (False, True):
        part = np.flatnonzero(half == form)
        if part.size:
            args = (targets[part], noises, kind, form, gap_tol, feas_tol)
            for i, report in zip(part, _parent_stack(*args)):
                reports[i] = report
    return reports


def _parent_stack(targets, noises, kind, half: bool, gap_tol, feas_tol) -> list:
    """_parent_search's reports for targets of one form, as one stack.

    Row group 0 fixes the sum over all lam and row group x + 1 the sum over
    lam_x = 0: sum G_lam - v (T_x - N_x) = N_x. v and a slack s are the
    diagonal of one more 2x2 block V = [[v, w], [conj(w), s]], and the cap
    is tr V = 1. w enters no row and no objective, so the optimum is that of
    v + s = 1 over two scalars, and by the symmetry w -> -w the central path
    keeps w = 0; every block of the program is a Lorentz cone of one group.
    The verdict is the kind's yes when the target itself (v = 1) admits the
    parent structure within the verdict margin, its no when it does not; a
    solve that did not converge is Inconclusive.

    The half program keeps the 2^(n-1) blocks with lam_1 = 0 and folds the
    columns of G_not_lam onto G_lam through theta (_THETA in hvec
    coordinates). Folded, group 0 reads tr(G_lam) I, and row 1 of group x
    adds to its row 0 to give group 0's row 0, so it keeps row 0 of group 0,
    rows 0, 2 and 3 of the others and the cap: 3n + 2 rows of full rank,
    chosen from the structure alone so that a stack keeps the same rows.

    The programs differ only in v's column, so one ProgramBuilder writes the
    rows they share and each target's copy gets its own v column,
    -hvec(T_x - N_x). They form one stack (PreparedSdp over (k, m, n) rows)
    and are solved in one batched IPM run, each bit for bit as it would be
    alone; solve_batch hands a stack of one to solve_with.
    """
    n = len(noises) - 1
    lams = list(itertools.product((0, 1), repeat=n))
    n_l = len(lams)
    # hvec(V) lists V_00 = v first, so v's column leads V's block.
    v_col = 4 * n_l
    builder = ProgramBuilder([2] * (n_l + 1))
    for x, noise in enumerate(noises):
        builder.add_operator_equation(
            {li: 1.0 for li, lam in enumerate(lams) if x == 0 or lam[x - 1] == 0}, noise
        )
    builder.add_scalar_row({n_l: np.eye(2)}, 1.0)
    rows, rhs = builder.constraint_matrix()
    k = len(targets)
    stack = np.repeat(rows[None], k, axis=0)
    stack[:, :-1, v_col] = -hermitian_hvec(targets - noises).reshape(k, -1)
    if half:
        # lams lists lam_1 = 0 first, and not lam sits at n_l - 1 - lam.
        keep = [0, *(4 * x + r for x in range(1, n + 1) for r in (0, 2, 3)), len(rhs) - 1]
        rhs, stack = rhs[keep], stack[:, keep]
        blocks = stack[:, :, :v_col].reshape(k, len(keep), n_l, 4)
        folded = blocks[:, :, : n_l // 2] + blocks[:, :, n_l // 2 :][:, :, ::-1] @ _THETA
        stack = np.concatenate((folded.reshape(k, len(keep), -1), stack[:, :, v_col:]), 2)
    prepared = PreparedSdp([2] * (stack.shape[2] // 4), stack, rhs)
    # Maximize v, the first hvec coordinate of V, the last block.
    objective = np.zeros(stack.shape[2])
    objective[-4] = 1.0
    sols = prepared.solve_batch(
        np.tile(objective, (k, 1)), gap_tol=gap_tol, feas_tol=feas_tol
    )
    return [_report(kind, sol, gap_tol) for sol in sols]


def jm_critical_visibility(
    msets,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
):
    """Largest v at which the depolarized set v B + (1 - v) I/2 has a joint
    parent measurement, capped at 1.

    The parent is indexed by one bit per setting; only the outcome-0
    marginal rows are imposed, the complementary rows follow from the
    completeness of the parent. Verdict Compatible means the set itself
    (v = 1) is jointly measurable within the verdict margin.

    ``msets`` is one MeasurementSet, which gives one CertificationReport,
    or a sequence of sets of one setting count, which gives a list of
    reports in the same order. The sets' programs are solved in one batched
    IPM run, and each report is bit for bit the one its set gets alone.
    """
    single = isinstance(msets, MeasurementSet)
    sets = [msets] if single else list(msets)
    for mset in sets:
        check_jm_input(mset)
    if len({mset.n for mset in sets}) > 1:
        raise ValueError("the sets of a batch need the same number of settings")
    if not sets:
        return []
    ident = np.eye(2)
    noises = [ident] + [_HALF] * sets[0].n
    targets = [[ident] + [povm[0].entries for povm in mset.settings] for mset in sets]
    reports = _parent_search(
        targets, noises, KIND_JOINT_MEASURABILITY, gap_tol, feas_tol
    )
    return reports[0] if single else reports


def lhs_critical_visibility(
    assemblage: Assemblage,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
) -> CertificationReport:
    """Largest v at which the assemblage mixed toward its trace-weighted
    maximally mixed version admits a local hidden-state decomposition,
    capped at 1.

    Hidden states are indexed by one response bit per setting; the
    outcome-0 rows plus the global sum pin the decomposition.
    """
    check_lhs_input(assemblage)
    sigmas = [assemblage[0, x].entries for x in range(assemblage.n_settings)]
    target = [assemblage.reduced_state.entries] + sigmas
    noises = [_HALF] + [float(np.trace(sigma).real) * _HALF for sigma in sigmas]
    (report,) = _parent_search(
        [target], noises, KIND_LOCAL_HIDDEN_STATE, gap_tol, feas_tol
    )
    return report


def pair_jm_oracle(mset: MeasurementSet) -> float:
    """Closed-form critical visibility for two unbiased qubit measurements.

    With weighted axes g_y (sharpness times axis), the pair is jointly
    measurable up to v = 2 / (|g_1 + g_2| + |g_1 - g_2|), capped at 1.
    Refuses biased effects, for which this expression does not apply.
    """
    if mset.n != 2:
        raise ValueError("oracle applies to exactly two measurements")
    params = bloch_from_povm(mset)
    for alpha in params.bias:
        if abs(alpha - 1.0) > 1e-9:
            raise ValueError("oracle requires unbiased measurements")
    g1 = params.sharpness[0] * np.asarray(params.axes[0])
    g2 = params.sharpness[1] * np.asarray(params.axes[1])
    denom = float(np.linalg.norm(g1 + g2) + np.linalg.norm(g1 - g2))
    if denom < 1e-15:
        return 1.0
    return min(1.0, 2.0 / denom)
