"""End-to-end acceptance checks.

Each test covers one numbered criterion and reports a single PASS/FAIL
line in the terminal summary, with the measured deviations. The slow
n=6,7 tier of criterion 3 runs only when STEERCERT_FULL=1 is set in the
environment (the test-suite counterpart of the CLI --full flag).
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import record_acceptance
from randsdp import random_feasible_problem
from steercert.certify import (
    jm_critical_visibility,
    lhs_critical_visibility,
    pair_jm_oracle,
)
from steercert.harness import ExperimentConfig, run_conjecture1
from steercert.linalg import HermitianOperator
from steercert.quantum import (
    BlochPovmParams,
    MeasurementSet,
    assemblage_from,
    noisy_singlet,
    povm_from_bloch,
    sample_random_povm_set,
    sharp_povm,
)
from steercert.sdp import STATUS_OPTIMAL, solve
from steercert.witness import (
    Scenario,
    noncontextual_bound,
    noncontextual_bound_oracle,
    optimize_ensemble,
    seesaw_critical_visibility,
)

SQRT2 = float(np.sqrt(2.0))
VN_DISPLAY = {2: 0.7071, 3: 0.5774, 4: 0.5547, 5: 0.5422, 6: 0.5270, 7: 0.5234}
FULL = os.environ.get("STEERCERT_FULL") == "1"

# See-saw results accumulated across criteria; criterion 7 checks the
# per-iteration logs of every run gathered here.
_seesaw_runs: list = []


@contextmanager
def criterion(number: int, label: str):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        record_acceptance(
            f"criterion {number} [{label}]: FAIL {info['detail']}".rstrip()
        )
        raise
    record_acceptance(
        f"criterion {number} [{label}]: PASS {info['detail']}".rstrip()
    )


def _zx_pair() -> MeasurementSet:
    return MeasurementSet([sharp_povm((0, 0, 1)), sharp_povm((1, 0, 0))])


def test_criterion_1_classical_bound_lp():
    with criterion(1, "classical bound (n+1)/(2n) vs LP oracle") as info:
        devs = [
            abs(noncontextual_bound_oracle(n) - noncontextual_bound(n))
            for n in (2, 3, 4)
        ]
        info["detail"] = f"(max deviation {max(devs):.1e} over n=2,3,4)"
        assert max(devs) <= 1e-9


def test_criterion_2_chsh_anchor():
    with criterion(2, "CHSH anchor and n=2 singlet threshold") as info:
        res = optimize_ensemble(Scenario(2), _zx_pair())
        anchor = (2.0 + SQRT2) / 4.0
        dev_val = abs(res.value - anchor)
        see = seesaw_critical_visibility(2)
        _seesaw_runs.append(see)
        dev_v = abs(see.v_threshold - VN_DISPLAY[2])
        info["detail"] = (
            f"(ensemble dev {dev_val:.1e}, v2 dev {dev_v:.1e})"
        )
        assert res.status == STATUS_OPTIMAL
        assert dev_val <= 1e-6
        assert dev_v <= 5e-4


def test_criterion_3_singlet_thresholds():
    with criterion(3, "singlet thresholds v3, v4, v5") as info:
        devs = {}
        for n in (3, 4, 5):
            res = seesaw_critical_visibility(n)
            _seesaw_runs.append(res)
            devs[n] = abs(res.v_threshold - VN_DISPLAY[n])
        info["detail"] = (
            "(" + ", ".join(f"v{n} dev {d:.1e}" for n, d in devs.items()) + ")"
        )
        assert all(d <= 1e-3 for d in devs.values())


@pytest.mark.skipif(
    not FULL, reason="set STEERCERT_FULL=1 to run the n=6,7 tier"
)
def test_criterion_3_singlet_thresholds_full():
    with criterion(3, "singlet thresholds v6, v7 (full tier)") as info:
        devs = {}
        for n in (6, 7):
            res = seesaw_critical_visibility(n)
            _seesaw_runs.append(res)
            devs[n] = abs(res.v_threshold - VN_DISPLAY[n])
        info["detail"] = (
            "(" + ", ".join(f"v{n} dev {d:.1e}" for n, d in devs.items()) + ")"
        )
        assert all(d <= 2e-3 for d in devs.values())


def test_criterion_4_compatibility_thresholds():
    with criterion(4, "compatibility thresholds vs oracles") as info:
        pair = jm_critical_visibility(_zx_pair())
        triple = jm_critical_visibility(
            MeasurementSet(
                [
                    sharp_povm((0, 0, 1)),
                    sharp_povm((1, 0, 0)),
                    sharp_povm((0, 1, 0)),
                ]
            )
        )
        dev_pair = abs(pair.critical_visibility - 1.0 / SQRT2)
        dev_triple = abs(triple.critical_visibility - 1.0 / np.sqrt(3.0))
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(100):
            axes = []
            for _ in range(2):
                u = rng.normal(size=3)
                u = u / np.linalg.norm(u)
                axes.append(tuple(u))
            eta = tuple(rng.uniform(0.0, 1.0, size=2))
            mset = povm_from_bloch(
                BlochPovmParams(tuple(axes), eta, (1.0, 1.0))
            )
            report = jm_critical_visibility(mset)
            worst = max(
                worst, abs(report.critical_visibility - pair_jm_oracle(mset))
            )
        info["detail"] = (
            f"(pair dev {dev_pair:.1e}, triple dev {dev_triple:.1e}, "
            f"worst of 100 random pairs {worst:.1e})"
        )
        assert dev_pair <= 1e-6
        assert dev_triple <= 1e-6
        assert worst <= 1e-6


def test_criterion_5_threshold_compatibility_replication():
    with criterion(5, "threshold compatibility replication n=3,4") as info:
        start = time.perf_counter()
        parts = []
        for n, samples in ((3, 1000), (4, 400)):
            cfg = ExperimentConfig(
                experiment="conjecture1",
                n=n,
                samples=samples,
                seed=20260822,
                threads=8,
            )
            summary, _ = run_conjecture1(cfg)
            counts = summary.counts
            margin = summary.distributions["jm_margin"]
            parts.append(
                f"n={n}: {counts['post_selected']} post-selected, "
                f"{counts['incompatible_at_threshold']} incompatible at v, "
                f"{counts['compatible_at_probe']} compatible at probe, "
                f"v*/v-1 in [{margin['min']:.1e}, {margin['max']:.1e}]"
            )
            assert counts["errors"] == 0
            assert counts["post_selected"] >= 200
            assert counts["incompatible_at_threshold"] == 0
            assert counts["compatible_at_probe"] == 0
        elapsed = time.perf_counter() - start
        info["detail"] = f"({'; '.join(parts)}; {elapsed:.0f}s)"
        assert elapsed < 1800.0


def test_criterion_6_steering_flip():
    with criterion(6, "steering verdict flip across 1/sqrt(2)") as info:
        alice = _zx_pair()

        def is_steerable(v: float) -> bool:
            report = lhs_critical_visibility(
                assemblage_from(noisy_singlet(v), alice)
            )
            assert report.verdict in ("Steerable", "Unsteerable")
            return report.verdict == "Steerable"

        lo, hi = 0.65, 0.76
        assert not is_steerable(lo)
        assert is_steerable(hi)
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if is_steerable(mid):
                hi = mid
            else:
                lo = mid
        info["detail"] = (
            f"(flip bracket [{lo:.6f}, {hi:.6f}], width {hi - lo:.1e})"
        )
        assert hi - lo <= 1e-3
        assert lo <= 1.0 / SQRT2 <= hi


def test_criterion_7_property_suites():
    with criterion(7, "property suites") as info:
        # Weak duality and feasibility on 500 random problems. One instance
        # in this family bottoms out at a 1.1e-9 duality gap, so certify
        # at 1e-8; the asserted bounds below are unchanged.
        for i in range(500):
            rng = np.random.default_rng(7000 + i)
            problem = random_feasible_problem(rng)
            sol = solve(problem, gap_tol=1e-8)
            assert sol.status == STATUS_OPTIMAL, sol.message
            if problem.maximize:
                assert sol.primal_value <= sol.dual_value + 1e-7
            else:
                assert sol.primal_value >= sol.dual_value - 1e-7
            assert sol.primal_infeasibility <= 1e-7

        # Per-iteration monotonicity of every logged see-saw run.
        if not _seesaw_runs:
            _seesaw_runs.append(
                seesaw_critical_visibility(
                    2, restarts=4, rng=np.random.default_rng(77)
                )
            )
        n_logged = 0
        for res in _seesaw_runs:
            assert res.iteration_logs
            for run in res.iteration_logs:
                n_logged += 1
                for earlier, later in zip(run, run[1:]):
                    assert later >= earlier - 1e-8

        # No-signaling residuals of Born-rule assemblages.
        rng = np.random.default_rng(505)
        worst_ns = 0.0
        for _ in range(20):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            dense = raw @ raw.conj().T
            state = HermitianOperator(dense / float(np.trace(dense).real))
            _, alice = sample_random_povm_set(rng, int(rng.integers(2, 5)))
            asm = assemblage_from(state, alice)
            base = None
            for xi in range(asm.n_settings):
                reduced = sum(
                    asm.entries[a][xi].entries for a in range(asm.n_outcomes)
                )
                if base is None:
                    base = reduced
                else:
                    worst_ns = max(
                        worst_ns, float(np.max(np.abs(reduced - base)))
                    )
        assert worst_ns < 1e-12

        # Bit-for-bit harness reproducibility, 1 thread vs 8.
        blobs = []
        for threads in (1, 8):
            cfg = ExperimentConfig(
                experiment="conjecture1",
                n=3,
                samples=24,
                seed=99,
                threads=threads,
            )
            _, records = run_conjecture1(cfg)
            stripped = []
            for rec in records:
                data = rec.to_json()
                data.pop("wall_time", None)
                stripped.append(data)
            blobs.append(json.dumps(stripped, sort_keys=True))
        assert blobs[0] == blobs[1]

        info["detail"] = (
            f"(500 random programs, {n_logged} see-saw runs, "
            f"no-signaling residual {worst_ns:.1e}, 1-vs-8-thread match)"
        )
