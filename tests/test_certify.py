import itertools

import numpy as np
import pytest

from steercert import certify
from steercert.certify import (
    CertificationReport,
    jm_critical_visibility,
    lhs_critical_visibility,
    pair_jm_oracle,
)
from steercert.linalg import HermitianOperator
from steercert.quantum import (
    BlochPovmParams,
    MeasurementSet,
    assemblage_from,
    depolarize_measurements,
    noisy_singlet,
    povm_from_bloch,
    sample_random_povm_set,
    sharp_povm,
    trivial_povm,
)
from steercert.sdp import PreparedSdp, ProgramBuilder

INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT3 = 1.0 / np.sqrt(3.0)


def _sharp_set(*axes):
    return MeasurementSet([sharp_povm(v) for v in axes])


def test_trivial_set_is_compatible():
    rep = jm_critical_visibility(MeasurementSet([trivial_povm(), trivial_povm()]))
    assert rep.verdict == "Compatible"
    assert rep.critical_visibility >= 1.0 - 1e-7
    assert rep.kind == "JointMeasurability"


def test_orthogonal_sharp_pair():
    rep = jm_critical_visibility(_sharp_set((0, 0, 1), (1, 0, 0)))
    assert abs(rep.critical_visibility - INV_SQRT2) < 1e-6
    assert rep.verdict == "Incompatible"


def test_pauli_triple():
    rep = jm_critical_visibility(_sharp_set((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert abs(rep.critical_visibility - INV_SQRT3) < 1e-6


def test_sixty_degree_pair_matches_oracle():
    mset = _sharp_set((0, 0, 1), (np.sin(np.pi / 3), 0, np.cos(np.pi / 3)))
    rep = jm_critical_visibility(mset)
    expected = 2.0 / (np.sqrt(3.0) + 1.0)
    assert abs(pair_jm_oracle(mset) - expected) < 1e-12
    assert abs(rep.critical_visibility - expected) < 1e-6


def test_random_pairs_match_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        axes = rng.normal(size=(2, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        eta = rng.uniform(0.0, 1.0, size=2)
        params = BlochPovmParams(
            tuple(map(tuple, axes)), tuple(eta), (1.0, 1.0)
        )
        mset = povm_from_bloch(params)
        rep = jm_critical_visibility(mset)
        assert rep.status == "Optimal"
        assert abs(rep.critical_visibility - pair_jm_oracle(mset)) < 1e-6


def test_oracle_refuses_biased_pairs():
    params = BlochPovmParams(
        ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), (0.5, 0.5), (1.2, 1.0)
    )
    with pytest.raises(ValueError):
        pair_jm_oracle(povm_from_bloch(params))


def test_depolarized_pair_at_threshold_is_compatible():
    mset = depolarize_measurements(_sharp_set((0, 0, 1), (1, 0, 0)), INV_SQRT2)
    rep = jm_critical_visibility(mset)
    assert rep.verdict == "Compatible"
    assert rep.critical_visibility >= 1.0 - 1e-6


def test_depolarizing_scales_critical_visibility():
    rng = np.random.default_rng(8)
    _, mset = sample_random_povm_set(rng, 3)
    base = jm_critical_visibility(mset).critical_visibility
    w = 0.8
    scaled = jm_critical_visibility(depolarize_measurements(mset, w))
    assert abs(scaled.critical_visibility - min(1.0, base / w)) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_depolarized_report_matches_a_direct_solve(n):
    # Sharp measurements on random axes: incompatible, so w = 0.9 and 1 leave
    # the visibility below the cap and w = 0.5 lifts it to the cap.
    mset = _sharp_set(*np.random.default_rng(4100 + n).normal(size=(n, 3)))
    targets = [
        (jm_critical_visibility, lambda w: depolarize_measurements(mset, w)),
        (lhs_critical_visibility, lambda w: assemblage_from(noisy_singlet(w), mset)),
    ]
    for certifier, depolarized in targets:
        rep = certifier(depolarized(1.0))
        for w in (0.5, 0.7, 0.9, 1.0):
            moved = rep.depolarized(w)
            direct = certifier(depolarized(w))
            assert abs(moved.critical_visibility - direct.critical_visibility) <= 1e-9
            assert moved.status == direct.status
            assert moved.verdict == direct.verdict
            assert moved.kind == direct.kind


def _report_bits(rep):
    """Every field of a report; floats by repr, which tells all doubles apart."""
    return tuple(repr(value) for value in rep.to_json().values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_jm_reports_match_per_set_solves(n):
    """A sequence of sets is one stack of parent-search programs solved in
    one batched IPM run, and each report is bit for bit its set's solve
    alone, in any order. Sharp sets on random axes stay below the cap;
    depolarized to 0.4 they reach it."""
    rng = np.random.default_rng(4200 + n)
    sharp = [_sharp_set(*rng.normal(size=(n, 3))) for _ in range(3)]
    _, drawn = sample_random_povm_set(rng, n)
    sets = sharp + [
        depolarize_measurements(sharp[0], 0.4),
        drawn,
        depolarize_measurements(sharp[1], 0.8),
    ]
    single = [jm_critical_visibility(mset) for mset in sets]
    crits = {rep.critical_visibility for rep in single}
    assert min(crits) < 0.9 and max(crits) > 1.0 - 1e-9
    alone = [_report_bits(rep) for rep in single]
    assert [_report_bits(rep) for rep in jm_critical_visibility(sets)] == alone
    backwards = jm_critical_visibility(sets[::-1])[::-1]
    assert [_report_bits(rep) for rep in backwards] == alone
    one = jm_critical_visibility(sets[2:3])
    assert [_report_bits(rep) for rep in one] == alone[2:3]


def test_batched_jm_input_checks():
    pair = _sharp_set((0, 0, 1), (1, 0, 0))
    triple = _sharp_set((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert jm_critical_visibility([]) == []
    with pytest.raises(ValueError, match="same number of settings"):
        jm_critical_visibility([pair, triple])
    too_many = _sharp_set(*np.random.default_rng(1).normal(size=(9, 3)))
    with pytest.raises(ValueError, match="refusing n > 8"):
        jm_critical_visibility([pair, too_many])


def _both_kinds(n, seed):
    """One random set of n measurements and, from it, one assemblage of a
    noisy singlet."""
    _, mset = sample_random_povm_set(np.random.default_rng(seed), n)
    return [
        (jm_critical_visibility, mset),
        (lhs_critical_visibility, assemblage_from(noisy_singlet(0.8), mset)),
    ]


def test_parent_search_programs_are_one_lorentz_group(monkeypatch):
    """v and its slack s are the diagonal of one more 2x2 block, so the
    JM and LHS programs hold 2^n + 1 blocks of dimension 2 and no 1x1
    block."""
    built = []

    class Recording(PreparedSdp):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(certify, "PreparedSdp", Recording)
    for n in (2, 3):
        for certifier, target in _both_kinds(n, 4300 + n):
            certifier(target)
            prepared = built.pop()
            assert set(prepared.dims) == {2}
            assert [(g.dim, len(g.blocks)) for g in prepared.groups] == [(2, 2**n + 1)]


def _two_scalar_reference(targets, noises, kind, gap_tol, feas_tol):
    """The parent-search reports from the program that keeps v and s as
    two 1x1 blocks beside the 2x2 parent blocks, one target at a time."""
    lams = list(itertools.product((0, 1), repeat=len(noises) - 1))
    v_ix, s_ix = len(lams), len(lams) + 1
    dims = [2] * len(lams) + [1, 1]
    objective = np.zeros(4 * len(lams) + 2)
    objective[4 * len(lams)] = 1.0
    reports = []
    for target in targets:
        builder = ProgramBuilder(dims)
        for x, (t_x, noise) in enumerate(zip(target, noises)):
            terms = {li: 1.0 for li, lam in enumerate(lams) if x == 0 or lam[x - 1] == 0}
            terms[v_ix] = -(t_x - noise)
            builder.add_operator_equation(terms, noise)
        builder.add_operator_equation({v_ix: 1.0, s_ix: 1.0}, 1.0)
        sol = builder.prepared().solve_with(objective, gap_tol, feas_tol)
        reports.append(certify._report(kind, sol, gap_tol))
    return reports


@pytest.mark.parametrize("n", range(2, 9))
def test_parent_search_matches_the_two_scalar_block_program(monkeypatch, n):
    """Moving v and s into one 2x2 block leaves the optimum where it was:
    both kinds' critical visibilities agree with the two-scalar-block
    program to 1e-12, with the same verdicts and statuses."""
    calls = []
    search = certify._parent_search

    def recording(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(certify, "_parent_search", recording)
    for certifier, target in _both_kinds(n, 4400 + n):
        rep = certifier(target)
        (ref,) = _two_scalar_reference(*calls.pop())
        assert abs(rep.critical_visibility - ref.critical_visibility) <= 1e-12
        assert (rep.kind, rep.verdict, rep.status) == (ref.kind, ref.verdict, ref.status)


def test_jm_batch_builds_its_rows_once(monkeypatch):
    """The programs of a JM batch differ only in v's column, so the batch
    writes its shared rows with one ProgramBuilder."""
    built = []

    class Counting(ProgramBuilder):
        def __init__(self, dims):
            super().__init__(dims)
            built.append(self)

    monkeypatch.setattr(certify, "ProgramBuilder", Counting)
    rng = np.random.default_rng(4500)
    sets = [sample_random_povm_set(rng, 3)[1] for _ in range(4)]
    assert len(jm_critical_visibility(sets)) == 4
    assert len(built) == 1


@pytest.mark.parametrize("w", [0.0, -0.1, 1.5, float("nan")])
def test_depolarized_report_refuses_visibilities_outside_the_unit_interval(w):
    rep = jm_critical_visibility(_sharp_set((0, 0, 1), (1, 0, 0)))
    with pytest.raises(ValueError):
        rep.depolarized(w)


def test_unitary_covariance():
    rng = np.random.default_rng(13)
    _, mset = sample_random_povm_set(rng, 2)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = rng.uniform(0, np.pi)
    from steercert.quantum import PAULIS

    pauli_part = sum(c * s.entries for c, s in zip(axis, PAULIS))
    u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * pauli_part
    rotated = MeasurementSet(
        [
            type(p)([HermitianOperator(u @ e.entries @ u.conj().T) for e in p.effects])
            for p in mset.settings
        ]
    )
    a = jm_critical_visibility(mset).critical_visibility
    b = jm_critical_visibility(rotated).critical_visibility
    assert abs(a - b) < 1e-7


def test_outcome_relabeling_invariance():
    rng = np.random.default_rng(14)
    _, mset = sample_random_povm_set(rng, 2)
    flipped = MeasurementSet(
        [
            type(mset[0])([mset[0][1], mset[0][0]]),
            mset[1],
        ]
    )
    a = jm_critical_visibility(mset).critical_visibility
    b = jm_critical_visibility(flipped).critical_visibility
    assert abs(a - b) < 1e-7


def test_jm_refuses_too_many_settings():
    mset = MeasurementSet([trivial_povm() for _ in range(9)])
    with pytest.raises(ValueError):
        jm_critical_visibility(mset)


def test_product_state_is_unsteerable():
    rng = np.random.default_rng(3)
    _, alice = sample_random_povm_set(rng, 2)
    rho = HermitianOperator(np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])))
    rep = lhs_critical_visibility(assemblage_from(rho, alice))
    assert rep.kind == "LocalHiddenState"
    assert rep.verdict == "Unsteerable"
    assert rep.critical_visibility >= 1.0 - 1e-7


def test_noisy_singlet_zx_below_threshold_unsteerable():
    alice = _sharp_set((0, 0, 1), (1, 0, 0))
    sigma = assemblage_from(noisy_singlet(0.55), alice)
    rep = lhs_critical_visibility(sigma)
    assert rep.verdict == "Unsteerable"


def test_noisy_singlet_zx_above_threshold_steerable():
    alice = _sharp_set((0, 0, 1), (1, 0, 0))
    sigma = assemblage_from(noisy_singlet(0.8), alice)
    rep = lhs_critical_visibility(sigma)
    assert rep.verdict == "Steerable"
    assert abs(rep.critical_visibility - INV_SQRT2 / 0.8) < 1e-6


def test_compatible_alice_never_steers():
    rng = np.random.default_rng(77)
    for _ in range(5):
        params, mset = sample_random_povm_set(rng, 2)
        rep = jm_critical_visibility(mset)
        if rep.verdict != "Compatible":
            crit = rep.critical_visibility
            mset = depolarize_measurements(mset, crit * 0.999)
            assert jm_critical_visibility(mset).verdict == "Compatible"
        sigma = assemblage_from(noisy_singlet(1.0), mset)
        assert lhs_critical_visibility(sigma).verdict == "Unsteerable"


def test_report_round_trip():
    rep = jm_critical_visibility(_sharp_set((0, 0, 1), (1, 0, 0)))
    back = CertificationReport.from_json(rep.to_json())
    assert back == rep
