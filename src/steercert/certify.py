"""Certified critical visibilities for joint measurability and for local
hidden-state models, plus a closed form for unbiased qubit pairs.

Both certificates solve one parent-search program, which maximizes the
visibility v at which the depolarized target (measurement set or
assemblage) still admits the classical parent structure, capped at 1. A
verdict is only issued when the solver converged; the compatibility side
additionally requires the optimum to clear 1 by the verdict margin.

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

from .linalg import HermitianOperator
from .quantum import Assemblage, MeasurementSet, bloch_from_povm, check_binary_qubit
from .sdp import STATUS_OPTIMAL, ProgramBuilder
from .tolerances import (
    DEFAULT_FEAS_TOL,
    DEFAULT_GAP_TOL,
    VERDICT_MARGIN_FACTOR,
)

KIND_JOINT_MEASURABILITY = "JointMeasurability"
KIND_LOCAL_HIDDEN_STATE = "LocalHiddenState"

MAX_SETTINGS = 8

_HALF = 0.5 * np.eye(2, dtype=np.complex128)

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


def _parent_search(
    pairs, kind: str, gap_tol: float, feas_tol: float
) -> CertificationReport:
    """Largest v at which PSD parent blocks G_lam, one per response string
    lam in {0,1}^n, reproduce v T + (1 - v) N for each 2x2 (target, noise)
    pair (T, N) of ``pairs``, capped at 1.

    Pair 0 fixes the sum over all lam and pair x + 1 the sum over lam_x = 0:
    sum G_lam - v (T - N) = N. A slack s with v + s = 1 caps v. The
    verdict is the kind's yes when the target itself (v = 1) admits the
    parent structure within the verdict margin, its no when it does not;
    a solve that did not converge is Inconclusive.
    """
    lams = list(itertools.product((0, 1), repeat=len(pairs) - 1))
    n_l = len(lams)
    v_ix, s_ix = n_l, n_l + 1
    builder = ProgramBuilder([2] * n_l + [1, 1])
    for x, (target, noise) in enumerate(pairs):
        terms: dict = {
            li: 1.0 for li, lam in enumerate(lams) if x == 0 or lam[x - 1] == 0
        }
        terms[v_ix] = -(target - noise)
        builder.add_operator_equation(terms, HermitianOperator(noise))
    builder.add_operator_equation({v_ix: 1.0, s_ix: 1.0}, 1.0)
    # Maximize v: the objective in hvec coordinates, 4 per 2x2 block.
    objective = np.zeros(4 * n_l + 2)
    objective[4 * n_l] = 1.0
    sol = builder.prepared().solve_with(
        objective, gap_tol=gap_tol, feas_tol=feas_tol
    )
    crit = min(1.0, max(0.0, sol.primal_value))
    return CertificationReport(
        kind=kind,
        critical_visibility=crit,
        verdict=_verdict(kind, sol.status, crit, gap_tol),
        status=sol.status,
        solver_gap=sol.gap,
    )


def jm_critical_visibility(
    mset: MeasurementSet,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
) -> CertificationReport:
    """Largest v at which the depolarized set v B + (1 - v) I/2 has a joint
    parent measurement, capped at 1.

    The parent is indexed by one bit per setting; only the outcome-0
    marginal rows are imposed, the complementary rows follow from the
    completeness of the parent. Verdict Compatible means the set itself
    (v = 1) is jointly measurable within the verdict margin.
    """
    check_jm_input(mset)
    ident = np.eye(2)
    pairs = [(ident, ident)] + [(povm[0].entries, _HALF) for povm in mset.settings]
    return _parent_search(pairs, KIND_JOINT_MEASURABILITY, gap_tol, feas_tol)


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
    pairs = [(assemblage.reduced_state.entries, _HALF)]
    for x in range(assemblage.n_settings):
        sigma = assemblage[0, x].entries
        pairs.append((sigma, float(np.trace(sigma).real) * _HALF))
    return _parent_search(pairs, KIND_LOCAL_HIDDEN_STATE, gap_tol, feas_tol)


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
